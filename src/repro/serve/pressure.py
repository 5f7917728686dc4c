"""Pressure-driven shedding policy: queue + SLO burn → runtime ladder rung.

Per-request deadlines (PR 3) bound each query's cost, but they react
*after* a query is already late.  Under sustained overload the right
move is to answer *earlier* queries more cheaply before the backlog
turns into deadline misses.  :class:`PressureMonitor` turns two live
signals into that decision:

* **backlog ratio** — fair-queue depth over the engine's capacity
  (queueing is the leading indicator of overload), and
* **SLO error-budget burn** — the serve tier's
  :class:`~repro.obs.slo.SLOTracker` burn rate plus its p99 verdict
  (the trailing confirmation that users are feeling it).

The monitor maps the combined signal onto the runtime ladder the
solvers already implement (:mod:`repro.serve.solvecore`):

====== ============ ===========================================
level  rung         meaning
====== ============ ===========================================
0      ``exact``    healthy: one exact solve per query
1      ``cover``    shedding: certified (1/4)-approx answers
2      ``grid``     overload: coarse anytime answers
====== ============ ===========================================

Transitions use hysteresis — a level is entered at its ``enter``
threshold but only left below its ``exit`` threshold — so a noisy
signal cannot flap the fleet between rungs.  The monitor is driven
purely by :meth:`observe` calls (no clock, no thread), which keeps it
deterministic under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.obs.metrics import active_registry
from repro.serve.solvecore import RUNG_COVER, RUNG_EXACT, RUNG_GRID

#: Pressure levels, in escalation order.
LEVEL_HEALTHY = 0
LEVEL_SHEDDING = 1
LEVEL_OVERLOAD = 2

_RUNG_OF_LEVEL = {
    LEVEL_HEALTHY: RUNG_EXACT,
    LEVEL_SHEDDING: RUNG_COVER,
    LEVEL_OVERLOAD: RUNG_GRID,
}


@dataclass(frozen=True)
class PressurePolicy:
    """Thresholds governing the pressure state machine.

    The pressure *score* is ``max(backlog_ratio, burn_factor)`` where
    ``burn_factor`` is the SLO error-budget burn scaled by
    :attr:`burn_weight` (a burn of 1.0 — consuming the budget exactly as
    provisioned — maps to a score of ``burn_weight``), bumped to at
    least :attr:`enter_shedding` while the tracker's p99 verdict fails.

    Attributes:
        enter_shedding / exit_shedding: score to enter level 1, and the
            (lower) score required to drop back to level 0.
        enter_overload / exit_overload: same pair for level 2.
        burn_weight: how strongly budget burn counts toward the score.
    """

    enter_shedding: float = 0.5
    exit_shedding: float = 0.25
    enter_overload: float = 0.9
    exit_overload: float = 0.6
    burn_weight: float = 0.5

    def __post_init__(self) -> None:
        """Validate threshold ordering.

        Raises:
            ValueError: when an exit threshold is not strictly below its
                enter threshold, or the two levels are out of order.
        """
        if not (0 <= self.exit_shedding < self.enter_shedding):
            raise ValueError(
                "exit_shedding must be below enter_shedding, got "
                f"{self.exit_shedding} / {self.enter_shedding}"
            )
        if not (self.exit_overload < self.enter_overload):
            raise ValueError(
                "exit_overload must be below enter_overload, got "
                f"{self.exit_overload} / {self.enter_overload}"
            )
        if self.enter_overload <= self.enter_shedding:
            raise ValueError(
                "enter_overload must exceed enter_shedding, got "
                f"{self.enter_overload} / {self.enter_shedding}"
            )


class PressureMonitor:
    """Hysteretic pressure state machine over backlog + SLO burn.

    Not thread-safe by itself: the owning engine drives :meth:`observe`
    from its single scheduler task/thread and readers only see the
    published level through :meth:`level`/:meth:`rung` (plain attribute
    reads of an int/str, atomic in CPython).
    """

    def __init__(self, policy: Optional[PressurePolicy] = None) -> None:
        self.policy = policy if policy is not None else PressurePolicy()
        self._level = LEVEL_HEALTHY
        self._score = 0.0
        self._transitions = 0

    def observe(
        self,
        backlog_ratio: float,
        slo: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Feed one observation; returns the (possibly new) level.

        Args:
            backlog_ratio: queued work over capacity (>= 0; values above
                1.0 mean the queue itself is saturated).
            slo: an :meth:`SLOTracker.snapshot` dict, or ``None`` when no
                tracker is wired (backlog alone then drives the level).
        """
        policy = self.policy
        score = max(0.0, float(backlog_ratio))
        if slo is not None:
            burn = float(slo.get("error_budget_burn", 0.0))
            score = max(score, burn * policy.burn_weight)
            verdicts = slo.get("verdicts") or {}
            if verdicts.get("p99_ok") is False:
                # A failing latency verdict is overload evidence even
                # when the queue happens to be momentarily short.
                score = max(score, policy.enter_shedding)
        previous = self._level
        level = previous
        if previous == LEVEL_HEALTHY:
            if score >= policy.enter_overload:
                level = LEVEL_OVERLOAD
            elif score >= policy.enter_shedding:
                level = LEVEL_SHEDDING
        elif previous == LEVEL_SHEDDING:
            if score >= policy.enter_overload:
                level = LEVEL_OVERLOAD
            elif score <= policy.exit_shedding:
                level = LEVEL_HEALTHY
        else:  # LEVEL_OVERLOAD
            if score <= policy.exit_shedding:
                level = LEVEL_HEALTHY
            elif score <= policy.exit_overload:
                level = LEVEL_SHEDDING
        self._score = score
        if level != previous:
            self._level = level
            self._transitions += 1
            active_registry().counter(
                "brs_serve_pressure_transitions_total",
                help="pressure-level changes (hysteresis-filtered)",
            ).inc()
        active_registry().gauge(
            "brs_serve_pressure_level",
            help="current shedding level: 0 healthy, 1 cover, 2 grid",
        ).set(float(self._level))
        return self._level

    def level(self) -> int:
        """The current pressure level (0/1/2)."""
        return self._level

    def rung(self) -> str:
        """The runtime-ladder rung queries should run at right now."""
        return _RUNG_OF_LEVEL[self._level]

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable state for the stats endpoint."""
        return {
            "level": self._level,
            "rung": _RUNG_OF_LEVEL[self._level],
            "score": self._score,
            "transitions": self._transitions,
            "policy": {
                "enter_shedding": self.policy.enter_shedding,
                "exit_shedding": self.policy.exit_shedding,
                "enter_overload": self.policy.enter_overload,
                "exit_overload": self.policy.exit_overload,
                "burn_weight": self.policy.burn_weight,
            },
        }
