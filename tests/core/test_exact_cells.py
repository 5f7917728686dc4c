"""Exact sweep cells: every cell holds a center, and every center one cell.

The sweeps run on half-open SIRI rows whose ends are settled onto
:func:`objects_in_region`'s predicate (``abs(v - c) < half`` in floats).
So the region at a reported center holds exactly the objects its score
counts, and no float center's object set is skipped: the sweeps reach the
optimum over every float center, even where SIRI edges meet an ulp apart.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import best_region
from repro.columnar.solvers import columnar_slicebrs
from repro.core.maxrs import oe_maxrs, slicebrs_maxrs
from repro.core.naive import NaiveBRS
from repro.core.siri import (
    band_ends,
    build_sweep_rows,
    cell_center,
    objects_in_region,
)
from repro.core.slicebrs import SliceBRS
from repro.datasets.registry import yelp_like
from repro.functions.reduced import reduce_over_cover
from repro.functions.weighted_sum import SumFunction
from repro.geometry.point import Point

ULP = math.ulp(1000.0)


def _sweeps(points, f, a, b):
    weights = list(f.weights)
    return {
        "slice": SliceBRS().solve(points, f, a, b),
        "columnar": columnar_slicebrs(points, f, a, b),
        "oe": oe_maxrs(points, a, b, weights),
        "slicebrs_maxrs": slicebrs_maxrs(points, a, b, weights),
        "naive": NaiveBRS().solve(points, f, a, b),
    }


def _optimum(points, f, a, b):
    """Best score over every float center, found without the SIRI rows.

    An object set changes only where a band starts or ends, and away from
    zero each such float lies within a few ulps of ``v - half`` or
    ``v + half``; scoring every float there covers every set a center can
    hold.  The instances below keep every end far from zero.
    """
    def axis_sets(coords, half):
        tries = set()
        for v in coords:
            for end in (v - half, v + half):
                c = end
                for _ in range(3):
                    c = math.nextafter(c, -math.inf)
                for _ in range(7):
                    tries.add(c)
                    c = math.nextafter(c, math.inf)
        return {
            frozenset(i for i, v in enumerate(coords) if abs(v - c) < half)
            for c in tries
        }

    xs = axis_sets([p.x for p in points], b / 2.0)
    ys = axis_sets([p.y for p in points], a / 2.0)
    return max(f.value(sorted(sx & sy)) for sx in xs for sy in ys)


def _up(x):
    return math.nextafter(x, math.inf)


class TestBandEnds:
    def test_exact_sums_bound_the_band(self):
        lo, hi = band_ends(np.array([0.0, 2.5, -3.0]), 1.5)
        assert list(lo) == [_up(-1.5), _up(1.0), _up(-4.5)]
        assert list(hi) == [1.5, 4.0, -1.5]

    def test_an_end_near_zero_is_past_the_floats_that_round_away(self):
        # 1.5 - c rounds to 1.5 for every c up to 2**-53, so those centers
        # leave the object out although 1.5 - 1.5 < c.
        lo, _ = band_ends(np.array([1.5]), 1.5)
        assert lo[0] == _up(2.0 ** -53)
        assert abs(1.5 - lo[0]) < 1.5
        assert not abs(1.5 - math.nextafter(lo[0], -1.0)) < 1.5

    @pytest.mark.parametrize(
        "half", [364.76, 0.35, 1e-3, 7.3e5, 1.5, 2.0 ** -20, 1e-300]
    )
    def test_ends_bracket_the_predicate(self, half):
        rng = np.random.default_rng(3)
        coords = np.concatenate([
            rng.uniform(-5e3, 5e3, 300),
            half * rng.uniform(0.5, 2.0, 100),  # an end near zero
            -half * rng.uniform(0.5, 2.0, 100),
            half * rng.uniform(-1.0, 1.0, 50) * 1e-12,  # tiny coordinates
            [0.0, half, -half, 2.0 * half],
        ])
        lo, hi = band_ends(coords, half)
        for v, l, h in zip(coords, lo, hi):
            assert abs(v - l) < half
            assert not abs(v - math.nextafter(l, -math.inf)) < half
            assert not abs(v - h) < half
            assert abs(v - math.nextafter(h, -math.inf)) < half

    def test_sweep_rows_are_the_band_ends(self):
        points = [Point(0.0, 0.5), Point(5.0, 5.0)]
        x_lo, x_hi = band_ends(np.array([0.0, 5.0]), 2.0)
        y_lo, y_hi = band_ends(np.array([0.5, 5.0]), 1.0)
        assert build_sweep_rows(points, 2, 4) == [
            (x_lo[i], x_hi[i], y_lo[i], y_hi[i], i) for i in range(2)
        ]
        assert x_lo[1] == _up(3.0)
        # 0.5 - (-0.5 + 2**-54) rounds to 1.0: that center leaves the
        # object out, so its band starts two floats above -0.5.
        assert y_lo[0] == _up(_up(-0.5))


class TestCellCenter:
    def test_wide_cell_takes_the_open_gap_midpoint(self):
        # The cell a sweep opens at -2's band start is [next(-2), 2).
        assert cell_center(math.nextafter(-2.0, 0.0), 2.0) == 0.0
        assert cell_center(0.0, 1.0) == 0.5

    def test_one_float_cell_takes_its_lower_end(self):
        lo = 1000.5 - ULP
        assert cell_center(lo, 1000.5) == lo


@pytest.mark.parametrize("axis", ["x", "y"])
def test_one_ulp_overlap_is_not_reported(axis):
    """Two objects whose bands meet an ulp apart share no region."""
    coords = [(1000.0, 0.0), (1001.0 - ULP, 0.0)]
    points = [Point(*c) if axis == "x" else Point(c[1], c[0]) for c in coords]
    f = SumFunction(2)
    for name, result in _sweeps(points, f, 1.0, 1.0).items():
        held = objects_in_region(points, result.point, 1.0, 1.0)
        assert f.value(held) == result.score == 1.0, name


def test_unreachable_pair_does_not_hide_the_next_best_cell():
    """The heavy pair cannot share a region; one of them alone still wins."""
    points = [
        Point(1000.0, 0.0), Point(1001.0 - ULP, 0.0),
        Point(2000.0, 0.0), Point(2000.5, 0.0),
    ]
    f = SumFunction(4, [5.0, 5.0, 1.0, 1.0])
    for name, result in _sweeps(points, f, 1.0, 1.0).items():
        held = objects_in_region(points, result.point, 1.0, 1.0)
        assert f.value(held) == result.score == 5.0, name


def test_lone_center_between_one_float_cells_is_found():
    """A set held only at one float, with one-float cells on either side."""
    e = math.nextafter(1000.5, math.inf)  # an odd float: midpoints miss it
    points = [
        Point(e - 0.5, 0.0),                      # band ends at e
        Point(math.nextafter(e, math.inf) - 0.5, 0.0),  # ends one float later
        Point(math.nextafter(e, -math.inf) + 0.5, 0.0),  # starts at e
    ]
    f = SumFunction(3, [1.0, 5.0, 5.0])
    assert _optimum(points, f, 1.0, 1.0) == 10.0
    for name, result in _sweeps(points, f, 1.0, 1.0).items():
        held = objects_in_region(points, result.point, 1.0, 1.0)
        assert f.value(held) == result.score == 10.0, name


@pytest.mark.parametrize("method", ["slice", "columnar"])
def test_found_instance_reports_a_region_that_recounts(method):
    """``yelp_like(1500)`` in a focus window: 35 reported, 35 held."""
    data = yelp_like(1500)
    x_min, x_max, y_min, y_max = (2823.01, 7427.15, 3999.69, 8603.83)
    ids = [
        i for i, p in enumerate(data.points)
        if x_min < p.x < x_max and y_min < p.y < y_max
    ]
    points = [data.points[i] for i in ids]
    f = reduce_over_cover(data.score_function(), [[i] for i in ids])
    result = best_region(points, f, 729.52, 729.52, method=method)
    held = objects_in_region(points, result.point, 729.52, 729.52)
    assert result.score == 35.0
    assert f.value(held) == 35.0


_unit = st.integers(min_value=0, max_value=6)


@st.composite
def _ulp_instances(draw):
    """Objects on a unit grid, some nudged so SIRI edges meet ulp-close."""
    n = draw(st.integers(min_value=2, max_value=9))
    points = []
    for _ in range(n):
        x = 1000.0 + draw(_unit)
        y = 1000.0 + draw(_unit)
        steps = draw(st.integers(min_value=-2, max_value=2))
        for _ in range(abs(steps)):
            x = math.nextafter(x, math.inf if steps > 0 else -math.inf)
        if draw(st.booleans()):
            y = math.nextafter(y, -math.inf)
        points.append(Point(x, y))
    weights = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=n, max_size=n))
    return points, SumFunction(n, weights)


@given(_ulp_instances(), st.sampled_from([1.0, 2.0, 0.7, 1.3]))
@settings(max_examples=150, deadline=None)
def test_every_sweep_reaches_the_optimum_and_recounts(instance, side):
    points, f = instance
    optimum = _optimum(points, f, side, side)
    for name, result in _sweeps(points, f, side, side).items():
        held = objects_in_region(points, result.point, side, side)
        assert f.value(held) == result.score == optimum, name
