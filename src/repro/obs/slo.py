"""Service-level objectives and a sliding-window SLO tracker.

ROADMAP item 2's "million-user load story" needs latency targets that
are *declared*, not implied by whatever the last benchmark happened to
print.  This module gives the serving tier that vocabulary:

* :class:`SLObjective` — a declarative target per quality tier: p50/p99
  latency ceilings, an availability floor, and a shed-ratio ceiling.
* :class:`SLOTracker` — a sliding window of request outcomes that turns
  the stream of (outcome, seconds) observations into live p50/p99,
  error-budget burn rate, and shed ratio, publishes them as gauges, and
  renders a verdict against its objective.

Outcome vocabulary (matching the serve layer's response statuses):
``ok`` and ``degraded`` count as *served* (degraded answers are still
answers — they carry sound bounds); ``error`` burns the availability
budget; ``rejected`` (admission shed) counts against the shed ratio but
not availability — shedding under pressure is the *designed* behavior,
and gets its own ceiling.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

#: Outcomes that carry a meaningful latency sample.
_SERVED = ("ok", "degraded")

#: All outcomes the tracker accepts.
OUTCOMES = ("ok", "degraded", "error", "rejected")


@dataclass(frozen=True)
class SLObjective:
    """A declarative latency/availability objective for one quality tier.

    Attributes:
        tier: the quality tier this objective governs (e.g.
            ``"interactive"``).
        p50_seconds / p99_seconds: latency ceilings for served requests.
        availability: floor on the fraction of non-shed requests that
            must not error (0.999 = "three nines").
        max_shed_ratio: ceiling on the fraction of requests the admission
            controller may reject before the tier is unhealthy.
    """

    tier: str
    p50_seconds: float
    p99_seconds: float
    availability: float = 0.99
    max_shed_ratio: float = 0.05


#: Default objectives per quality tier.  ``interactive`` is the serve
#: tier's envelope for cache-warm, deduplicated traffic on one host;
#: ``batch`` covers offline/benchmark traffic where only availability
#: and completion matter.
DEFAULT_OBJECTIVES: Dict[str, SLObjective] = {
    "interactive": SLObjective(
        tier="interactive",
        p50_seconds=0.5,
        p99_seconds=5.0,
        availability=0.99,
        max_shed_ratio=0.10,
    ),
    "batch": SLObjective(
        tier="batch",
        p50_seconds=30.0,
        p99_seconds=300.0,
        availability=0.95,
        max_shed_ratio=0.0,
    ),
}


def percentile(samples: List[float], q: float) -> float:
    """Linear-interpolation percentile of ``samples`` (0 <= q <= 1).

    Same estimator as :func:`repro.obs.metrics.histogram_quantile` uses
    within a bucket, but over exact samples; returns 0.0 when empty.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


class SLOTracker:
    """Sliding-window outcome tracker judged against one objective.

    The window is count-bounded (the newest ``window`` requests), so the
    tracker's memory is O(window) regardless of uptime and its verdict
    reflects *recent* behavior — a burst of errors an hour ago should not
    keep /healthz red forever.

    Thread-safe: the serve engine records outcomes from worker threads
    and HTTP handler threads concurrently.
    """

    def __init__(self, objective: SLObjective, window: int = 1024) -> None:
        self.objective = objective
        #: The window's outcomes, oldest first.
        self._window: Deque[str] = deque(maxlen=max(1, window))
        #: The served latencies of the window, oldest first.
        self._served: Deque[float] = deque()
        #: Outcome counts over the window, kept on record and evict.
        self._counts: Dict[str, int] = {outcome: 0 for outcome in OUTCOMES}
        self._lock = threading.Lock()

    def record(self, outcome: str, seconds: float = 0.0) -> None:
        """Record one request outcome (see :data:`OUTCOMES`)."""
        if outcome not in OUTCOMES:
            outcome = "error"
        with self._lock:
            window = self._window
            if len(window) == window.maxlen:
                evicted = window[0]
                self._counts[evicted] -= 1
                if evicted in _SERVED:
                    self._served.popleft()
            window.append(outcome)
            self._counts[outcome] += 1
            if outcome in _SERVED:
                self._served.append(seconds)

    def _collect(self) -> Tuple[List[float], Dict[str, int]]:
        with self._lock:
            return list(self._served), dict(self._counts)

    def snapshot(self) -> Dict[str, Any]:
        """Live SLO state: percentiles, burn rate, shed ratio, verdicts.

        ``error_budget_burn`` is the observed error rate divided by the
        budgeted error rate (``1 - availability``): 1.0 means the budget
        is being consumed exactly as provisioned, >1.0 means it will be
        exhausted early.  With a zero budget any error reports a burn of
        ``window`` (a finite, JSON-safe stand-in for "infinite").
        """
        objective = self.objective
        latencies, counts = self._collect()
        total = sum(counts.values())
        answered = counts["ok"] + counts["degraded"] + counts["error"]
        p50 = percentile(latencies, 0.50)
        p99 = percentile(latencies, 0.99)
        error_rate = counts["error"] / answered if answered else 0.0
        shed_ratio = counts["rejected"] / total if total else 0.0
        budget = 1.0 - objective.availability
        if budget > 0.0:
            burn = error_rate / budget
        else:
            burn = float(total) if counts["error"] else 0.0
        verdicts = {
            "p50_ok": p50 <= objective.p50_seconds,
            "p99_ok": p99 <= objective.p99_seconds,
            "availability_ok": (1.0 - error_rate) >= objective.availability,
            "shed_ok": shed_ratio <= objective.max_shed_ratio,
        }
        return {
            "tier": objective.tier,
            "objective": {
                "p50_seconds": objective.p50_seconds,
                "p99_seconds": objective.p99_seconds,
                "availability": objective.availability,
                "max_shed_ratio": objective.max_shed_ratio,
            },
            "window_requests": total,
            "counts": counts,
            "p50_seconds": p50,
            "p99_seconds": p99,
            "error_rate": error_rate,
            "error_budget_burn": burn,
            "shed_ratio": shed_ratio,
            "verdicts": verdicts,
            "healthy": all(verdicts.values()),
        }

    def publish(self, registry: MetricsRegistry) -> Dict[str, Any]:
        """Publish the snapshot as gauges; returns the snapshot.

        Gauge values are computed before any registry call, so no lock is
        held while publishing (the registry takes its own).
        """
        snap = self.snapshot()
        registry.gauge("brs_slo_p50_seconds").set(snap["p50_seconds"])
        registry.gauge("brs_slo_p99_seconds").set(snap["p99_seconds"])
        registry.gauge("brs_slo_error_budget_burn").set(
            snap["error_budget_burn"]
        )
        registry.gauge("brs_slo_shed_ratio").set(snap["shed_ratio"])
        registry.gauge("brs_slo_window_requests").set(
            float(snap["window_requests"])
        )
        registry.gauge("brs_slo_healthy").set(1.0 if snap["healthy"] else 0.0)
        return snap


def objective_for(tier: Optional[str]) -> SLObjective:
    """Resolve a tier name to its objective (``interactive`` default)."""
    if tier and tier in DEFAULT_OBJECTIVES:
        return DEFAULT_OBJECTIVES[tier]
    return DEFAULT_OBJECTIVES["interactive"]
