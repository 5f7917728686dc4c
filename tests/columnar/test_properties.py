"""Property-based invariants: slab boundaries and sweep exactness.

These are the array-form counterparts of the object path's BRS001
open-rectangle discipline: ``searchsorted``-based slab slicing must
exclude boundary coordinates exactly, including under heavy coordinate
duplication, and sweep bounds must equal the true active weight at any
interior coordinate.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.columnar.dataset import ColumnarDataset
from repro.columnar.kernels import grouped_sweep, maximal_intervals
from repro.core.siri import objects_in_region
from repro.geometry.point import Point

# Half-integer coordinates on a small range: duplicates are the common
# case, which is exactly what boundary semantics must survive.
_coord = st.integers(0, 12).map(lambda v: v / 2.0)
_coords = st.lists(_coord, min_size=1, max_size=25)
_weight = st.integers(1, 64).map(lambda v: v / 16.0)


@given(_coords, _coords, _coord, _coord)
@settings(max_examples=150, deadline=None)
def test_slab_x_is_exactly_the_open_interval(xs, ys, lo, hi):
    n = min(len(xs), len(ys))
    ds = ColumnarDataset(np.array(xs[:n]), np.array(ys[:n]))
    got = sorted(int(i) for i in ds.slab_x(lo, hi))
    expected = [i for i in range(n) if lo < xs[i] < hi]
    assert got == expected


@given(_coords, _coords, _coord, _coord)
@settings(max_examples=150, deadline=None)
def test_slab_y_is_exactly_the_open_interval(xs, ys, lo, hi):
    n = min(len(xs), len(ys))
    ds = ColumnarDataset(np.array(xs[:n]), np.array(ys[:n]))
    got = sorted(int(i) for i in ds.slab_y(lo, hi))
    expected = [i for i in range(n) if lo < ys[i] < hi]
    assert got == expected


@given(_coords)
@settings(max_examples=100, deadline=None)
def test_boundary_coordinates_are_always_excluded(xs):
    """BRS001 in array form: a slab bounded by a data coordinate never
    contains that coordinate's objects, no matter how many duplicates."""
    ds = ColumnarDataset(np.array(xs), np.zeros(len(xs)))
    for bound in set(xs):
        inside = ds.slab_x(bound, bound + 1.0)
        assert not np.any(ds.xs[inside] == bound)
        inside = ds.slab_x(bound - 1.0, bound)
        assert not np.any(ds.xs[inside] == bound)


@given(
    _coords, _coords, _coord, _coord,
    st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([0.5, 1.0, 3.0]),
)
@settings(max_examples=150, deadline=None)
def test_ids_in_region_matches_object_path(xs, ys, cx, cy, a, b):
    n = min(len(xs), len(ys))
    ds = ColumnarDataset(np.array(xs[:n]), np.array(ys[:n]))
    pts = [Point(x, y) for x, y in zip(xs[:n], ys[:n])]
    assert ds.ids_in_region(cx, cy, a, b) == objects_in_region(
        pts, Point(cx, cy), a, b
    )


@given(st.lists(st.tuples(_coord, st.integers(1, 8), _weight),
                min_size=1, max_size=20))
@settings(max_examples=150, deadline=None)
def test_sweep_active_weight_matches_open_membership(intervals):
    lo = np.array([t[0] for t in intervals])
    hi = lo + np.array([t[1] / 2.0 for t in intervals])
    w = np.array([t[2] for t in intervals])
    batches = grouped_sweep(lo, hi, w)
    for k in range(batches.coords.size - 1):
        mid = (batches.coords[k] + batches.coords[k + 1]) / 2.0
        active = (lo < mid) & (hi > mid)
        assert batches.active_after[k] == float(w[active].sum())


@given(st.lists(st.tuples(_coord, st.integers(1, 8), _weight),
                min_size=1, max_size=20))
@settings(max_examples=150, deadline=None)
def test_maximal_intervals_contain_no_event_coordinate(intervals):
    lo = np.array([t[0] for t in intervals])
    hi = lo + np.array([t[1] / 2.0 for t in intervals])
    w = np.array([t[2] for t in intervals])
    slabs = maximal_intervals(lo, hi, w)
    events = np.concatenate((lo, hi))
    for slab_lo, slab_hi in zip(slabs.lo, slabs.hi):
        assert slab_lo < slab_hi
        assert not np.any((events > slab_lo) & (events < slab_hi))
