"""The two sweep lines of SliceBRS: *ScanSlab* and *SearchMR* (Section 4.4).

Both sweeps process events grouped by coordinate.  Grouping generalizes the
paper's ``flag`` mechanism (Appendix A): a candidate is emitted whenever a
batch containing removals follows a batch containing insertions, which
degenerates to "a bottom/left edge immediately followed by a top/right edge"
under the general-position assumption and stays correct when edges coincide
(as they do at slice boundaries after clipping).

Correctness sketch, mirroring Lemma 3: along a sweep the active set gains at
insertion batches and loses at removal batches; an elementary interval whose
following batch contains no removal is dominated by its right neighbour
(superset active set), and one whose preceding batch contains no insertion is
dominated by its left neighbour, so every undominated interval is caught by
the trigger.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.siri import RectRow, cell_center, rows_x_extent
from repro.core.stats import SearchStats
from repro.functions.base import IncrementalEvaluator
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.grid import GridIndex
from repro.obs.metrics import active_registry
from repro.obs.trace import active_tracer
from repro.runtime.budget import Budget
from repro.runtime.errors import EvaluationError

#: A maximal slab: (y_lo, y_hi, upper_bound).
Slab = Tuple[float, float, float]

#: Event kinds; removals sort before insertions inside a coordinate batch so
#: the "batch had insertions / has removals" bookkeeping can stream.
_REMOVE = 0
_INSERT = 1


def _checked(value: float) -> float:
    """Reject non-finite evaluator output before it poisons bounds.

    A NaN upper bound would compare false against everything and silently
    disable pruning (or hide the true best); surfacing it as a structured
    error keeps faulty score functions diagnosable.

    Raises:
        EvaluationError: when ``value`` is NaN.
    """
    if value != value:  # NaN is the only float that is not equal to itself
        raise EvaluationError("score function returned NaN during a sweep")
    return value


def scan_slabs(
    rows: Sequence[RectRow],
    evaluator: IncrementalEvaluator,
    stats: Optional[SearchStats] = None,
    budget: Optional[Budget] = None,
) -> List[Slab]:
    """Sweep bottom-up and return the maximal slabs with upper bounds.

    Implements Function *ScanSlab*: a maximal slab is the y-interval
    between a batch containing bottom edges and the next batch containing top
    edges (Definition 6); its upper bound is ``h`` of the rectangles active
    inside it (Lemma 7), maintained incrementally.  The slab is
    ``[y_lo, y_hi)`` on the half-open rows of
    :func:`~repro.core.siri.build_sweep_rows` and ``(y_lo, y_hi)`` on open
    ones; either way no edge lies inside it.

    Args:
        rows: the SIRI rectangles of one slice (already clipped in x).
        evaluator: incremental evaluator for ``h``; reset on entry and exit.
        stats: optional counters (``n_slabs``, ``n_pushes``).
        budget: optional execution budget, charged one evaluation per slab
            bound read.

    Returns:
        Slabs as ``(y_lo, y_hi, upper)`` tuples, in sweep order.

    Raises:
        BudgetExceededError: when the budget expires mid-sweep (the caller
            owns the slice's upper bound, which soundly covers the
            unfinished work).
        EvaluationError: when the evaluator produces NaN.
    """
    events: List[Tuple[float, int, int]] = []
    for row in rows:
        events.append((row[2], _INSERT, row[4]))
        events.append((row[3], _REMOVE, row[4]))
    events.sort()

    evaluator.reset()
    slabs: List[Slab] = []
    with active_tracer().span("sweep.scan_slab", n_rows=len(rows)):
        prev_had_insert = False
        prev_y = 0.0
        i = 0
        n = len(events)
        while i < n:
            y = events[i][0]
            batch_start = i
            has_remove = False
            has_insert = False
            while i < n and events[i][0] == y:
                if events[i][1] == _REMOVE:
                    has_remove = True
                else:
                    has_insert = True
                i += 1
            if prev_had_insert and has_remove:
                # The interval from prev_y to y is a maximal slab; the
                # evaluator currently holds exactly the rectangles
                # spanning it.
                if budget is not None:
                    budget.charge()
                slabs.append((prev_y, y, _checked(evaluator.value)))
            for j in range(batch_start, i):
                _, kind, obj_id = events[j]
                if kind == _INSERT:
                    evaluator.push(obj_id)
                else:
                    evaluator.pop(obj_id)
            prev_had_insert = has_insert
            prev_y = y

    evaluator.reset()
    if stats is not None:
        stats.n_slabs += len(slabs)
        stats.n_pushes += len(rows)
    return slabs


def rows_spanning_slab(rows: Sequence[RectRow], slab: Slab) -> List[RectRow]:
    """Return the rows whose y-extent covers the slab.

    A maximal slab contains no horizontal edge, so a rectangle intersecting
    it necessarily spans it end to end.
    """
    y_lo, y_hi, _ = slab
    return [row for row in rows if row[2] <= y_lo and row[3] >= y_hi]


def search_slab(
    rows: Sequence[RectRow],
    slab: Slab,
    evaluator: IncrementalEvaluator,
    best_value: float,
    stats: Optional[SearchStats] = None,
    budget: Optional[Budget] = None,
) -> Tuple[float, Optional[Point]]:
    """Sweep one maximal slab left-to-right and return the best point found.

    Implements Function *SearchMR*: because every rectangle in ``rows`` spans
    the slab vertically, the affected set of a point in the slab depends only
    on x, and the candidates are the x-gaps at insertion->removal
    transitions.  On the half-open rows of
    :func:`~repro.core.siri.build_sweep_rows` a gap ``[x_lo, x_hi)`` and
    the slab ``[y_lo, y_hi)`` always hold a center
    (:func:`~repro.core.siri.cell_center`), and the region there holds
    exactly the gap's active rows.

    Args:
        rows: rectangles spanning the slab (see :func:`rows_spanning_slab`).
        slab: the slab being searched.
        evaluator: incremental evaluator for ``h``; reset on entry and exit.
        best_value: current best score; only strictly better candidates are
            returned (and all candidates are still counted in ``stats``).
        stats: optional counters (``n_candidates``, ``n_pushes``).
        budget: optional execution budget, charged one evaluation per
            candidate scored.

    Returns:
        ``(value, point)`` of the best candidate strictly better than
        ``best_value``, else ``(best_value, None)``.

    Raises:
        BudgetExceededError: when the budget expires mid-sweep (the slab's
            upper bound soundly covers the unscored candidates).
        EvaluationError: when the evaluator produces NaN.
    """
    y_lo, y_hi, _ = slab
    center_y = cell_center(y_lo, y_hi)

    events: List[Tuple[float, int, int]] = []
    for row in rows:
        events.append((row[0], _INSERT, row[4]))
        events.append((row[1], _REMOVE, row[4]))
    events.sort()

    evaluator.reset()
    best_point: Optional[Point] = None
    n_candidates = 0
    with active_tracer().span("sweep.search_mr", n_rows=len(rows)):
        prev_had_insert = False
        prev_x = 0.0
        i = 0
        n = len(events)
        while i < n:
            x = events[i][0]
            batch_start = i
            has_remove = False
            has_insert = False
            while i < n and events[i][0] == x:
                if events[i][1] == _REMOVE:
                    has_remove = True
                else:
                    has_insert = True
                i += 1
            if prev_had_insert and has_remove:
                n_candidates += 1
                if budget is not None:
                    budget.charge()
                value = _checked(evaluator.value)
                if value > best_value:
                    best_value = value
                    best_point = Point(cell_center(prev_x, x), center_y)
            for j in range(batch_start, i):
                _, kind, obj_id = events[j]
                if kind == _INSERT:
                    evaluator.push(obj_id)
                else:
                    evaluator.pop(obj_id)
            prev_had_insert = has_insert
            prev_x = x

    evaluator.reset()
    if stats is not None:
        stats.n_candidates += n_candidates
        stats.n_pushes += len(rows)
    return best_value, best_point


def cut_into_slices(
    rows: Sequence[RectRow], width: float
) -> List[List[RectRow]]:
    """Assign each row to the ``width``-wide slices it meets, clipped in x.

    Slice ``i`` is ``[x0 + i * width, x0 + (i + 1) * width)`` with ``x0``
    the minimum left edge, so consecutive slices share one computed bound
    and every center lies in exactly one slice; a row goes to every slice
    its half-open x-interval meets.  The ``//`` binning can land one slice
    off at a bound, so each row's first and last slice are settled against
    the bounds themselves.

    Returns:
        The occupied slices in x order, rows in input order within each.
    """
    x0, x_end = rows_x_extent(rows)
    n_slices = max(1, math.ceil((x_end - x0) / width))
    while x0 + n_slices * width < x_end:
        n_slices += 1
    top = n_slices - 1
    buckets: Dict[int, List[RectRow]] = {}
    for row in rows:
        first = max(0, min(int((row[0] - x0) // width), top))
        last = max(0, min(int((row[1] - x0) // width), top))
        if first > 0 and row[0] < x0 + first * width:
            first -= 1
        if last < top and row[1] > x0 + (last + 1) * width:
            last += 1
        for idx in range(first, last + 1):
            clipped_lo = max(row[0], x0 + idx * width)
            clipped_hi = min(row[1], x0 + (idx + 1) * width)
            if clipped_lo < clipped_hi:  # skip zero-width clippings
                buckets.setdefault(idx, []).append(
                    (clipped_lo, clipped_hi, row[2], row[3], row[4])
                )
    return [buckets[idx] for idx in sorted(buckets)]


def count_maximal_regions(
    rows: Sequence[RectRow], slabs: Sequence[Slab]
) -> int:
    """Count the maximal regions (Definition 5) exactly.

    Used to reproduce the #MR column of Tables 4–6.  ``rows`` must be the
    *unclipped* SIRI rectangles of the whole instance (uniform size) and
    ``slabs`` its global maximal slabs.

    By Lemma 5 every maximal region intersects a maximal slab, and (because
    a maximal region's interior contains no edges) it shows up inside the
    slab as an elementary x-gap delimited by an insertion batch and a
    removal batch, with affected set equal to the gap's active set.  The
    region itself may extend *beyond* the slab vertically, so each
    candidate gap is grown to ``(max of active bottoms, min of active
    tops)`` and then checked against Definition 5: left/right boundaries
    must be left/right edges of active rectangles covering the full grown
    height, and no foreign rectangle may push an edge into the grown box.
    Regions intersecting several slabs are deduplicated by their box.
    """
    if not rows:
        return 0
    width = rows[0][1] - rows[0][0]
    height = rows[0][3] - rows[0][2]
    centers = [
        Point((row[0] + row[1]) / 2.0, (row[2] + row[3]) / 2.0) for row in rows
    ]
    grid = GridIndex(centers, cell_size=max(width, height))
    row_by_id: Dict[int, RectRow] = {row[4]: row for row in rows}

    regions: set = set()
    for slab in slabs:
        spanning = rows_spanning_slab(rows, slab)
        events: List[Tuple[float, int, int]] = []
        for idx, row in enumerate(spanning):
            events.append((row[0], _INSERT, idx))
            events.append((row[1], _REMOVE, idx))
        events.sort()

        active: set = set()
        prev_had_insert = False
        prev_x = 0.0
        i = 0
        n = len(events)
        while i < n:
            x = events[i][0]
            batch_start = i
            has_remove = False
            has_insert = False
            while i < n and events[i][0] == x:
                if events[i][1] == _REMOVE:
                    has_remove = True
                else:
                    has_insert = True
                i += 1
            if prev_had_insert and has_remove and active:
                box = _maximal_region_box(
                    prev_x, x, active, spanning, grid, row_by_id, width, height
                )
                if box is not None:
                    regions.add(box)
            for j in range(batch_start, i):
                _, kind, idx = events[j]
                if kind == _INSERT:
                    active.add(idx)
                else:
                    active.discard(idx)
            prev_had_insert = has_insert
            prev_x = x
    registry = active_registry()
    if registry.enabled:
        registry.counter(
            "brs_grid_queries_total", help="grid-index range queries served"
        ).inc(grid.n_queries)
    return len(regions)


def _maximal_region_box(
    x_lo: float,
    x_hi: float,
    active: set,
    spanning: Sequence[RectRow],
    grid: GridIndex,
    row_by_id: Dict[int, RectRow],
    width: float,
    height: float,
):
    """Validate one candidate gap against Definition 5.

    Returns the region's ``(x_lo, x_hi, y_lo, y_hi)`` box, or None if the
    grown box fails a boundary or interior condition.
    """
    y_hi = min(spanning[j][3] for j in active)
    y_lo = max(spanning[j][2] for j in active)
    if not y_lo < y_hi:
        return None
    # Left/right boundaries: a left (resp. right) edge of an active
    # rectangle covering the region's full height.
    left_ok = any(
        spanning[j][0] == x_lo and spanning[j][2] <= y_lo and spanning[j][3] >= y_hi
        for j in active
    )
    if not left_ok:
        return None
    right_ok = any(
        spanning[j][1] == x_hi and spanning[j][2] <= y_lo and spanning[j][3] >= y_hi
        for j in active
    )
    if not right_ok:
        return None
    # Interior: no rectangle (of the whole instance) may have an edge
    # strictly inside the box.  Candidates are found via the center grid:
    # a w x h rectangle overlaps the open box iff its center lies in the
    # box expanded by (w/2, h/2).
    probe = Rect(
        x_lo - width / 2.0, x_hi + width / 2.0,
        y_lo - height / 2.0, y_hi + height / 2.0,
    )
    for obj_id in grid.query_rect(probe):
        row = row_by_id[obj_id]
        vertical_edge_inside = (
            (x_lo < row[0] < x_hi or x_lo < row[1] < x_hi)
            and row[2] < y_hi
            and row[3] > y_lo
        )
        horizontal_edge_inside = (
            (y_lo < row[2] < y_hi or y_lo < row[3] < y_hi)
            and row[0] < x_hi
            and row[1] > x_lo
        )
        if vertical_edge_inside or horizontal_edge_inside:
            return None
    return (x_lo, x_hi, y_lo, y_hi)
