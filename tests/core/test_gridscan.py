"""The coarse grid scan ranks cells by the regions it reports.

Each cell is scored by the objects the region centered on it holds under
``objects_in_region``'s open predicate, so an unbudgeted scan returns the
best grid-center region — an object on a cell's low edge is counted by
no cell, not counted and then dropped from the reported region.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core.gridscan import coarse_grid_scan
from repro.core.siri import objects_in_region
from repro.functions.weighted_sum import SumFunction
from repro.geometry.point import Point


def _best_grid_center_score(points, f, a, b):
    """Brute force over every grid center whose region can hold an object."""
    x0 = min(p.x for p in points) - b / 2.0
    y0 = min(p.y for p in points) - a / 2.0
    nx = int(math.floor((max(p.x for p in points) - x0) / b)) + 2
    ny = int(math.floor((max(p.y for p in points) - y0) / a)) + 2
    return max(
        f.value(objects_in_region(
            points, Point(x0 + (i + 0.5) * b, y0 + (j + 0.5) * a), a, b
        ))
        for i in range(-1, nx) for j in range(-1, ny)
    )


def test_object_on_a_low_cell_edge_does_not_rank_its_cell():
    # The grid starts half a cell below the minimum, so the minimum object
    # (0, 0) is the first cell's center and its region scores 10, while
    # (5.5, 5.5) sits on the low edge of the cell centered on (6, 6) and
    # is held by no cell.
    points = [Point(0.0, 0.0), Point(5.5, 5.5)]
    f = SumFunction(2, [10.0, 5.0])
    result = coarse_grid_scan(points, f, 1.0, 1.0)
    assert result.score == 10.0
    assert result.object_ids == [0]
    assert (result.point.x, result.point.y) == (0.0, 0.0)


coordinates = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(
    xy=st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=30),
    weights=st.lists(st.integers(min_value=0, max_value=9), min_size=30, max_size=30),
    a=st.sampled_from([0.5, 1.0, 2.5, 3.0, 7.0]),
    b=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
)
def test_unbudgeted_scan_is_the_best_grid_center_region(xy, weights, a, b):
    points = [Point(x, y) for x, y in xy]
    f = SumFunction(len(points), [float(w) for w in weights[: len(points)]])
    result = coarse_grid_scan(points, f, a, b)
    assert result.status == "degraded"
    assert result.score == f.value(objects_in_region(points, result.point, a, b))
    best = _best_grid_center_score(points, f, a, b)
    if best > 0:
        assert result.score == best
    else:
        # No grid center scores: the scan reports the first object's region.
        assert result.point == points[0]
