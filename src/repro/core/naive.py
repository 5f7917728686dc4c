"""Brute-force exact BRS solver (ground truth for tests).

Enumerates one center per cell of the SIRI-rectangle arrangement: the
candidate grid is the cross product of the x-gap and y-gap centers
(:func:`~repro.core.siri.cell_center`) between consecutive distinct edge
coordinates of the half-open rows (:func:`~repro.core.siri.build_sweep_rows`).
Every cell of the arrangement contains at least one such grid point (the
global edge coordinates refine every cell boundary), and every float center
lies in one cell, so by Lemma 2 the enumeration is exhaustive.  Cost is
O(n^2) evaluations of ``f`` — usable only for small instances, which is
exactly its job: an independent oracle the fast solvers are tested
against.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro.core.result import BRSResult
from repro.core.siri import build_sweep_rows, cell_center, objects_in_region
from repro.core.stats import SearchStats
from repro.functions.base import SetFunction
from repro.geometry.point import Point
from repro.obs.metrics import active_registry
from repro.obs.trace import active_tracer
from repro.runtime.budget import Budget, effective_budget
from repro.runtime.errors import BudgetExceededError


def _gap_centers(coords: List[float]) -> List[float]:
    """Centers of the half-open gaps between consecutive distinct coordinates."""
    distinct = sorted(set(coords))
    return [cell_center(lo, hi) for lo, hi in zip(distinct, distinct[1:])]


class NaiveBRS:
    """Exhaustive-candidate exact solver.

    No tuning knobs; intended for testing and tiny exploratory instances.
    """

    def solve(
        self,
        points: Sequence[Point],
        f: SetFunction,
        a: float,
        b: float,
        budget: Optional[Budget] = None,
    ) -> BRSResult:
        """Return an optimal ``a x b`` region by exhaustive enumeration.

        Args:
            points: object locations.
            f: aggregate score over object ids.
            a: query-rectangle height.
            b: query-rectangle width.
            budget: optional execution budget; on expiry the best candidate
                scored so far is returned with ``status="timeout"`` and
                ``f`` of all objects as the (loose but sound) upper bound.

        Raises:
            InvalidQueryError: on an empty instance or non-positive
                rectangle.
        """
        budget = effective_budget(budget)
        tracer = active_tracer()
        registry = active_registry()
        start_time = time.perf_counter()
        rows = build_sweep_rows(points, a, b)
        xs = _gap_centers([r[0] for r in rows] + [r[1] for r in rows])
        ys = _gap_centers([r[2] for r in rows] + [r[3] for r in rows])

        # Candidate rows play the role of slices; the alive-set rebuild per
        # row is the sweep work ("pushes") this solver performs.
        stats = SearchStats(n_objects=len(points), n_slices=len(ys))
        best_value = 0.0
        best_point = points[0]
        status = "ok"
        with tracer.span("naive.solve", n_objects=len(points)):
            try:
                for y in ys:
                    # Objects whose rectangle spans this y — only their
                    # x-intervals matter along the row of candidates.
                    alive = [r for r in rows if r[2] <= y < r[3]]
                    stats.n_slices_scanned += 1
                    stats.n_pushes += len(alive)
                    for x in xs:
                        ids = [r[4] for r in alive if r[0] <= x < r[1]]
                        stats.n_candidates += 1
                        if budget is not None:
                            budget.charge()
                        value = f.value(ids)
                        if value > best_value:
                            best_value = value
                            best_point = Point(x, y)
            except BudgetExceededError:
                status = "timeout"

        stats.publish(registry, "naive")
        if registry.enabled:
            registry.histogram(
                "brs_naive_solve_seconds", help="NaiveBRS solve wall time"
            ).observe(time.perf_counter() - start_time)

        object_ids = objects_in_region(points, best_point, a, b)
        return BRSResult(
            point=best_point,
            score=best_value,
            object_ids=object_ids,
            a=a,
            b=b,
            stats=stats,
            status=status,
            upper_bound=(
                None if status == "ok"
                else max(best_value, f.value(range(len(points))))
            ),
        )
