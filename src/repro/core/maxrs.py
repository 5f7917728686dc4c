"""MaxRS solvers: the OE baseline and the SliceBRS adaptation.

MaxRS — maximize the SUM of weights inside an ``a x b`` rectangle — is the
special case of BRS with a modular score (Section 2).  Two solvers live
here:

* :func:`oe_maxrs` — the *Optimal Enclosure* algorithm of Nandy &
  Bhattacharya [21], the paper's baseline: a bottom-up sweep over SIRI
  rectangle edges driving a lazy range-add/range-max segment tree over
  compressed x-intervals.  O(n log n).
* :func:`slicebrs_maxrs` — the Appendix C.2 adaptation of SliceBRS to SUM:
  slices and maximal slabs are enumerated and pruned exactly as in the
  general algorithm; in each surviving slice, the maximal slabs whose
  upper bound beats the incumbent are *marked*, rectangles not
  intersecting a marked slab are dropped, and a single OE sweep over the
  remainder finds the slice's best point.  The modular structure that
  makes this specialization possible is exactly what does *not* generalize
  to other submodular functions.

Both return identical optima; Table 7 compares their runtimes.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Sequence, Tuple

from repro.core.result import BRSResult
from repro.core.siri import (
    RectRow,
    build_sweep_rows,
    cell_center,
    objects_in_region,
)
from repro.core.stats import SearchStats
from repro.core.sweep import Slab, cut_into_slices, scan_slabs
from repro.functions.weighted_sum import SumFunction
from repro.geometry.point import Point
from repro.index.segment_tree import MaxAddSegmentTree
from repro.obs.metrics import active_registry
from repro.obs.trace import active_tracer
from repro.runtime.errors import InvalidQueryError


def _oe_sweep(
    rows: Sequence[RectRow],
    weight_of,
    best_value: float,
) -> Tuple[float, Optional[Point]]:
    """Run the Optimal Enclosure sweep over ``rows``.

    Returns the best stabbing weight strictly above ``best_value`` together
    with a point achieving it, or ``(best_value, None)``.  This is the
    shared kernel of :func:`oe_maxrs` (whole space) and the per-slice step
    of :func:`slicebrs_maxrs`.  On the half-open rows of
    :func:`~repro.core.siri.build_sweep_rows` every leaf cell holds a
    center (:func:`~repro.core.siri.cell_center`) whose region holds
    exactly the rows covering the cell.
    """
    if not rows:
        return best_value, None
    xs = sorted({r[0] for r in rows} | {r[1] for r in rows})
    if len(xs) < 2:
        return best_value, None
    leaf_index = {x: i for i, x in enumerate(xs)}
    tree = MaxAddSegmentTree(len(xs) - 1)

    events: List[Tuple[float, int, int]] = []
    for idx, row in enumerate(rows):
        events.append((row[2], 1, idx))  # bottom edge: insert
        events.append((row[3], 0, idx))  # top edge: remove
    events.sort()

    best_point: Optional[Point] = None
    i = 0
    n = len(events)
    while i < n:
        y = events[i][0]
        had_insert = False
        while i < n and events[i][0] == y:
            _, kind, idx = events[i]
            row = rows[idx]
            w = weight_of(row[4])
            lo = leaf_index[row[0]]
            hi = leaf_index[row[1]] - 1
            tree.add(lo, hi, w if kind == 1 else -w)
            if kind == 1:
                had_insert = True
            i += 1
        # The tree max can only set a new record right after insertions; a
        # record's y is any center from this event up to the next.
        if had_insert and i < n:
            value, leaf = tree.max_with_index()
            if value > best_value:
                best_value = value
                best_point = Point(
                    cell_center(xs[leaf], xs[leaf + 1]),
                    cell_center(y, events[i][0]),
                )
    registry = active_registry()
    if registry.enabled:
        registry.counter(
            "brs_segtree_adds_total", help="segment-tree range additions"
        ).inc(tree.n_adds)
        registry.counter(
            "brs_segtree_max_queries_total", help="segment-tree max queries"
        ).inc(tree.n_max_queries)
    return best_value, best_point


def oe_maxrs(
    points: Sequence[Point],
    a: float,
    b: float,
    weights: Optional[Sequence[float]] = None,
) -> BRSResult:
    """Solve MaxRS exactly with the Optimal Enclosure sweep.

    Args:
        points: object locations.
        a: query-rectangle height.
        b: query-rectangle width.
        weights: non-negative per-object weights; all ones when omitted.

    Raises:
        ValueError: on an empty instance, non-positive rectangle, or
            negative weight.
    """
    fn = SumFunction(len(points), weights)
    rows = build_sweep_rows(points, a, b)
    with active_tracer().span("maxrs.oe_sweep", n_objects=len(points)):
        best_value, best_point = _oe_sweep(rows, fn.weight_of, 0.0)
    if best_point is None:
        # Degenerate (single x coordinate) or all-zero weights: any object
        # location is optimal.
        best_point = points[0]
        best_value = fn.value(objects_in_region(points, best_point, a, b))
    ids = objects_in_region(points, best_point, a, b)
    return BRSResult(best_point, best_value, ids, a, b, SearchStats(len(points)))


def slicebrs_maxrs(
    points: Sequence[Point],
    a: float,
    b: float,
    weights: Optional[Sequence[float]] = None,
    theta: float = 1.0,
) -> BRSResult:
    """Solve MaxRS with the SUM-specialized SliceBRS (Appendix C.2).

    Slices carry sum upper bounds and are processed best-first.  Inside a
    processed slice, maximal slabs with bounds above the incumbent are
    marked, rectangles intersecting no marked slab are dropped, and one OE
    sweep over the survivors finds the slice's best point.  Whole slices —
    and within them whole rectangle populations — are thereby skipped,
    which is where the speedup over plain OE comes from.

    Raises:
        ValueError: on an empty instance, non-positive rectangle, negative
            weight, or non-positive ``theta``.
    """
    if theta <= 0:
        raise InvalidQueryError("theta must be positive")
    fn = SumFunction(len(points), weights)
    rows = build_sweep_rows(points, a, b)
    evaluator = fn.evaluator()
    stats = SearchStats(n_objects=len(points))

    # The same slicing rule as SliceBRS: width theta * b, rows clipped in x.
    slices = cut_into_slices(rows, theta * b)
    stats.n_slices = len(slices)

    heap: List[Tuple[float, int, List[RectRow]]] = []
    for seq, slice_rows in enumerate(slices):
        upper = sum(fn.weight_of(obj) for obj in {r[4] for r in slice_rows})
        heap.append((-upper, seq, slice_rows))
    heapq.heapify(heap)

    best_value = 0.0
    best_point: Optional[Point] = None
    while heap:
        neg_upper, _, slice_rows = heapq.heappop(heap)
        if -neg_upper <= best_value:
            break
        stats.n_slices_scanned += 1
        slabs = scan_slabs(slice_rows, evaluator, stats)
        marked: List[Slab] = [s for s in slabs if s[2] > best_value]
        stats.n_slabs_searched += len(marked)
        if not marked:
            continue
        surviving = [
            row
            for row in slice_rows
            if any(row[2] < s_hi and s_lo < row[3] for (s_lo, s_hi, _) in marked)
        ]
        stats.n_candidates += 1
        value, candidate = _oe_sweep(surviving, fn.weight_of, best_value)
        if candidate is not None:
            best_value = value
            best_point = candidate

    if best_point is None:
        best_point = points[0]
        best_value = fn.value(objects_in_region(points, best_point, a, b))
    ids = objects_in_region(points, best_point, a, b)
    return BRSResult(best_point, best_value, ids, a, b, stats)


def sampled_maxrs(
    points: Sequence[Point],
    a: float,
    b: float,
    epsilon: float = 0.2,
    delta: float = 0.05,
    weights: Optional[Sequence[float]] = None,
    seed: int = 0,
) -> BRSResult:
    """Approximate MaxRS by exact search over a uniform sample.

    The sampling route of Tao et al. [22]: draw a uniform sample, solve
    MaxRS exactly on it, and return that location.  A sample of size
    O(epsilon^-2 (log n + log 1/delta)) is an epsilon-sample for axis-
    aligned rectangles (their VC dimension is constant), so with
    probability 1 - delta every rectangle's sampled fraction is within
    epsilon of its true fraction and the returned location's true weight
    is within an epsilon fraction of the optimum.  The reported score is
    re-evaluated on the *full* object set.

    Unweighted only in spirit — per-object weights are supported by
    sampling objects uniformly and re-weighting, which preserves the
    expectation but weakens the tail bound when weights are wildly skewed.

    Args:
        points: object locations.
        a: query-rectangle height.
        b: query-rectangle width.
        epsilon: additive sampling error as a fraction of n (smaller =
            bigger sample = closer to exact).
        delta: failure probability of the epsilon-sample guarantee.
        weights: optional non-negative weights.
        seed: sampling seed (deterministic).

    Raises:
        ValueError: on an empty instance, non-positive rectangle, or
            parameters outside (0, 1).
    """
    if not 0.0 < epsilon < 1.0 or not 0.0 < delta < 1.0:
        raise InvalidQueryError("epsilon and delta must lie in (0, 1)")
    fn = SumFunction(len(points), weights)
    n = len(points)
    if n == 0:
        raise InvalidQueryError("BRS requires at least one spatial object")

    sample_size = min(
        n, max(1, math.ceil((2.0 / epsilon**2) * (math.log(max(n, 2)) + math.log(1.0 / delta))))
    )
    if sample_size >= n:
        result = oe_maxrs(points, a, b, weights)
        return result

    import random as _random

    rng = _random.Random(seed)
    sample_ids = rng.sample(range(n), sample_size)
    sample_points = [points[i] for i in sample_ids]
    sample_weights = [fn.weight_of(i) for i in sample_ids]
    sampled = oe_maxrs(sample_points, a, b, sample_weights)

    ids = objects_in_region(points, sampled.point, a, b)
    return BRSResult(
        point=sampled.point,
        score=fn.value(ids),
        object_ids=ids,
        a=a,
        b=b,
        stats=SearchStats(n_objects=sample_size),
    )
