"""Batch planner: dedup identical in-flight queries, group compatible ones.

Two normalization-aware optimizations sit between admission and execution:

* **Dedup.**  A query whose normalized key is already *in flight*
  (pending or executing) attaches to the existing entry's future instead
  of creating new work.  N simultaneous identical queries cost one solve.
* **Grouping.**  Pending queries with the same *group key* — dataset,
  version, function, quantized rectangle size — are dispatched together
  as one batch: the group shares one dataset resolve and one worker
  dispatch slot, and each member is then one exact solve.  Group members
  differ at most in their focus rectangle.

The planner is passive: the engine's dispatcher thread calls
:meth:`BatchPlanner.drain` to collect pending work, and
:meth:`BatchPlanner.finish` when a query's future resolves.  Between those
two calls the key stays in the in-flight table, which is what lets late
duplicates join an *executing* solve, not just a queued one.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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
            the executor parents its ``serve.query`` span here so the
            solve lands in the requester's trace tree.
    """

    key: CacheKey
    budget: Optional[Budget]
    future: Future = field(default_factory=Future)
    waiters: int = 1
    admitted: bool = False
    trace: Optional[TraceContext] = None


class BatchPlanner:
    """In-flight dedup table plus pending-batch grouping."""

    def __init__(self) -> None:
        self._pending: "OrderedDict[CacheKey, PlannedQuery]" = OrderedDict()
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
            self._pending[key] = planned
            return planned, True

    def drain(self) -> List[List[PlannedQuery]]:
        """Take every pending query, grouped by compatibility.

        Groups preserve arrival order (of each group's first member).
        Drained queries stay in the in-flight table until
        :meth:`finish`, so duplicates arriving mid-solve still join them.
        """
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
        groups: "OrderedDict[tuple, List[PlannedQuery]]" = OrderedDict()
        for planned in pending:
            groups.setdefault(planned.key.group_key, []).append(planned)
        return list(groups.values())

    def finish(self, planned: PlannedQuery) -> None:
        """Retire a query once its future has been resolved."""
        with self._lock:
            current = self._inflight.get(planned.key)
            if current is planned:
                del self._inflight[planned.key]
            self._pending.pop(planned.key, None)

    def pending_count(self) -> int:
        """Queries not yet drained (waiting for dispatch)."""
        with self._lock:
            return len(self._pending)

    def inflight_count(self) -> int:
        """Distinct queries between submission and resolution."""
        with self._lock:
            return len(self._inflight)

    def inflight_entry(self, key: CacheKey) -> Optional[PlannedQuery]:
        """The live entry for ``key``, if any (introspection for tests)."""
        with self._lock:
            return self._inflight.get(key)
