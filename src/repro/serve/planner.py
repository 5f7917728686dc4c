"""In-flight dedup: identical queries share one solve.

A query whose normalized key is already *in flight* (queued or
executing) attaches to the existing entry's future instead of creating
new work, so N simultaneous identical queries cost one solve.  The
engine calls :meth:`BatchPlanner.submit` on arrival and
:meth:`BatchPlanner.finish` once the query's future resolves; between
those two calls the key stays in the in-flight table, which is what lets
late duplicates join an *executing* solve, not just a queued one.
The engine scheduler dispatches each distinct query on its own as it
pops its fair queue.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.obs.trace import TraceContext
from repro.runtime.budget import Budget
from repro.serve.model import CacheKey


@dataclass
class PlannedQuery:
    """One distinct in-flight query and the requests riding on it.

    Attributes:
        key: the normalized query.
        budget: execution budget of the *first* requester; duplicates
            share the solve and therefore the budget (documented in
            docs/serving.md).
        future: resolves to the :class:`~repro.serve.model.QueryResponse`
            every attached requester receives.
        waiters: how many requests were deduplicated onto this entry.
        admitted: whether this entry holds an admission slot that must be
            released when the future resolves.
        trace: trace context of the *first* requester (like the budget,
            duplicates share the solve and therefore its span parent);
            the engine parents its ``serve.query`` span here so the
            solve lands in the requester's trace tree.
    """

    key: CacheKey
    budget: Optional[Budget]
    future: Future = field(default_factory=Future)
    waiters: int = 1
    admitted: bool = False
    trace: Optional[TraceContext] = None


class BatchPlanner:
    """The in-flight dedup table."""

    def __init__(self) -> None:
        self._inflight: Dict[CacheKey, PlannedQuery] = {}
        self._lock = threading.Lock()

    def submit(
        self,
        key: CacheKey,
        budget: Optional[Budget],
        trace: Optional[TraceContext] = None,
    ) -> Tuple[PlannedQuery, bool]:
        """Register a query; returns ``(entry, is_new)``.

        ``is_new`` is False when an identical query was already in flight
        — the caller should await the shared future and must *not* take
        an admission slot.
        """
        with self._lock:
            existing = self._inflight.get(key)
            if existing is not None:
                existing.waiters += 1
                return existing, False
            planned = PlannedQuery(key=key, budget=budget, trace=trace)
            self._inflight[key] = planned
            return planned, True

    def finish(self, planned: PlannedQuery) -> None:
        """Retire a query; the engine does so just before answering it."""
        with self._lock:
            current = self._inflight.get(planned.key)
            if current is planned:
                del self._inflight[planned.key]

    def inflight_count(self) -> int:
        """Distinct queries between submission and resolution."""
        with self._lock:
            return len(self._inflight)
