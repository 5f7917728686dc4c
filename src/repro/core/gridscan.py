"""Coarse grid scan — the last rung of the graceful-degradation ladder.

When neither SliceBRS nor CoverBRS can finish inside the budget, this
solver guarantees *some* useful answer in near-linear time: lay a ``b x a``
grid over the objects, anchored half a cell below the data minimum so the
minimum-x and minimum-y objects sit at cell centers, give each cell the
objects the region centered on it holds (under
:func:`~repro.core.siri.objects_in_region`'s open-region predicate, so an
object on a cell's low edge belongs to no cell), order
the occupied cells by population (a free density proxy), and score each
cell's region until the budget runs out.  Every answer it returns is a
real region with its true score — only optimality is surrendered, and the
reported ``upper_bound`` (``f`` of all objects, sound by monotonicity)
says by at most how much.

The population ordering matters: under a tight budget only a handful of
cells get scored, and dense cells are where high-scoring regions live for
every monotone f.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.result import BRSResult
from repro.core.siri import build_siri_rows, objects_in_region
from repro.core.stats import SearchStats
from repro.functions.base import SetFunction
from repro.geometry.point import Point
from repro.obs.metrics import active_registry
from repro.obs.trace import active_tracer
from repro.runtime.budget import Budget, effective_budget
from repro.runtime.errors import BudgetExceededError


def coarse_grid_scan(
    points: Sequence[Point],
    f: SetFunction,
    a: float,
    b: float,
    budget: Optional[Budget] = None,
    initial_best: float = 0.0,
) -> BRSResult:
    """Best region among grid-cell centers; anytime and near-linear.

    Args:
        points: object locations.
        f: monotone aggregate score over object ids (submodularity is not
            needed here — no bounds are derived from it).
        a: query-rectangle height.
        b: query-rectangle width.
        budget: optional execution budget (falls back to the ambient
            scope); one evaluation is charged per cell scored.
        initial_best: known-achievable score to beat (the ladder passes the
            best answer of earlier stages).

    Returns:
        A ``BRSResult`` with ``status="degraded"`` when every occupied cell
        was scored, ``"timeout"`` when the budget cut the scan short; in
        both cases ``upper_bound`` is ``f`` of all objects.

    Raises:
        InvalidQueryError: on an empty instance or a bad rectangle.
    """
    build_siri_rows(points, a, b)  # input validation only
    budget = effective_budget(budget)
    tracer = active_tracer()
    registry = active_registry()
    start_time = time.perf_counter()

    # Half a cell below the minimum: the minimum objects are then cell
    # centers, not low cell edges no centered open region holds.
    x0 = min(p.x for p in points) - b / 2.0
    y0 = min(p.y for p in points) - a / 2.0

    def mid(v0: float, i: int, side: float) -> float:
        return v0 + (i + 0.5) * side

    def holders(v: float, v0: float, side: float) -> List[int]:
        # Cells on one axis whose centered region holds v under
        # objects_in_region's predicate: v's own half-open cell, or a
        # neighbour where float rounding moves a center across an edge.
        k = int((v - v0) // side)
        return [
            i for i in (k - 1, k, k + 1)
            if abs(v - mid(v0, i, side)) < side / 2.0
        ]

    cells: Counter = Counter()
    members: Dict[Tuple[int, int], List[int]] = {}
    for obj_id, p in enumerate(points):
        for cx in holders(p.x, x0, b):
            for cy in holders(p.y, y0, a):
                cells[(cx, cy)] += 1
                members.setdefault((cx, cy), []).append(obj_id)

    # Occupied cells play the role slices play for SliceBRS: binning every
    # object is the "push" work, scoring a cell is one candidate.
    stats = SearchStats(
        n_objects=len(points), n_slices=len(cells), n_pushes=len(points)
    )
    best_value = max(0.0, initial_best)
    best_point: Optional[Point] = None
    status = "degraded"
    with tracer.span("gridscan.solve", n_objects=len(points), n_cells=len(cells)):
        try:
            for cell, _count in cells.most_common():
                if budget is not None:
                    budget.charge()
                stats.n_candidates += 1
                stats.n_slices_scanned += 1
                value = f.value(members[cell])
                if value > best_value:
                    best_value = value
                    best_point = Point(mid(x0, cell[0], b), mid(y0, cell[1], a))
        except BudgetExceededError:
            status = "timeout"

    if best_point is None:
        best_point = points[0]
        best_value = f.value(objects_in_region(points, best_point, a, b))

    stats.publish(registry, "gridscan")
    if registry.enabled:
        registry.histogram(
            "brs_gridscan_solve_seconds", help="grid-scan solve wall time"
        ).observe(time.perf_counter() - start_time)

    object_ids = objects_in_region(points, best_point, a, b)
    return BRSResult(
        point=best_point,
        score=f.value(object_ids),
        object_ids=object_ids,
        a=a,
        b=b,
        stats=stats,
        status=status,
        upper_bound=max(best_value, f.value(range(len(points)))),
    )
