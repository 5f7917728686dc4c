"""Property-based invariants of the index substrates."""

import math

from hypothesis import given, settings, strategies as st

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.grid import GridIndex
from repro.index.interval import max_stabbing
from repro.index.quadtree import Quadtree
from repro.index.segment_tree import MaxAddSegmentTree

_coord = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
_points = st.lists(st.tuples(_coord, _coord), min_size=1, max_size=50).map(
    lambda pairs: [Point(x, y) for x, y in pairs]
)


@given(_points, st.tuples(_coord, _coord, _coord, _coord))
@settings(max_examples=80, deadline=None)
def test_grid_matches_linear_scan(points, corners):
    x1, x2, y1, y2 = corners
    if not (x1 < x2 and y1 < y2):
        return
    rect = Rect(x1, x2, y1, y2)
    grid = GridIndex(points, cell_size=7.3)
    expected = sorted(i for i, p in enumerate(points) if rect.contains_point(p))
    assert sorted(grid.query_rect(rect)) == expected


@given(_points)
@settings(max_examples=60, deadline=None)
def test_quadtree_partitions_objects(points):
    tree = Quadtree(points)
    ids = sorted(tree.objects_under(tree.root))
    assert ids == list(range(len(points)))
    for depth in (1, 3, 6):
        frontier_ids = sorted(
            i for node in tree.truncated_nodes(depth) for i in tree.objects_under(node)
        )
        assert frontier_ids == list(range(len(points)))


@given(
    st.integers(1, 40),
    st.lists(
        st.tuples(st.integers(0, 39), st.integers(0, 39), st.integers(-5, 9)),
        max_size=60,
    ),
)
@settings(max_examples=80, deadline=None)
def test_segment_tree_matches_array(size, ops):
    tree = MaxAddSegmentTree(size)
    array = [0.0] * size
    for raw_lo, raw_hi, delta in ops:
        lo, hi = sorted((raw_lo % size, raw_hi % size))
        tree.add(lo, hi, float(delta))
        for i in range(lo, hi + 1):
            array[i] += float(delta)
        best, idx = tree.max_with_index()
        assert abs(best - max(array)) < 1e-9
        assert idx == array.index(max(array))


@given(
    st.lists(
        st.tuples(st.floats(0, 20, allow_nan=False), st.floats(0.1, 5, allow_nan=False)),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=80, deadline=None)
def test_max_stabbing_achievability(spans):
    intervals = [(lo, lo + length) for lo, length in spans]
    value, x = max_stabbing(intervals)
    assert x is not None
    stabbed = sum(1 for lo, hi in intervals if lo < x < hi)
    assert stabbed == value
    # And no interval endpoint midpoint beats it.
    coords = sorted({c for iv in intervals for c in iv})
    for lo, hi in zip(coords, coords[1:]):
        mid = (lo + hi) / 2
        assert sum(1 for l, h in intervals if l < mid < h) <= value


def _ulp_steps(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


# Ends a few ulps either side of a handful of anchors: intervals that
# touch, overlap by one float, or hold one float or none at all.
_anchor = st.sampled_from([-1.0, 0.0, 1e-300, 1.0, 3.0, 1e16])
_near = st.builds(_ulp_steps, _anchor, st.integers(-3, 3))


@given(
    st.lists(
        st.tuples(_near, _near, st.integers(0, 3)), min_size=1, max_size=12
    )
)
@settings(max_examples=200, deadline=None)
def test_max_stabbing_matches_bruteforce_over_floats(spans):
    spans = [(lo, hi, w) for lo, hi, w in spans if lo < hi]
    intervals = [(lo, hi) for lo, hi, _ in spans]
    weights = [float(w) for _, _, w in spans]
    value, x = max_stabbing(intervals, weights)

    def stabbed(at):
        return sum(w for (lo, hi), w in zip(intervals, weights) if lo < at < hi)

    # The stabbed weight is constant between consecutive half-open ends
    # (each interval's first float and its upper end), so probing every
    # end finds the optimum.
    ends = {math.nextafter(lo, math.inf) for lo, _ in intervals}
    ends |= {hi for _, hi in intervals}
    assert value == max([0.0] + [stabbed(end) for end in ends])
    if x is None:
        assert value == 0.0
    else:
        assert stabbed(x) == value
