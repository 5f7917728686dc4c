"""Columnar solvers vs object-path solvers vs the NaiveBRS oracle.

Every instance uses half-integer coordinates and dyadic (k/256) weights:
all partial sums are then exact in float64 regardless of summation
order, so score comparisons are byte-identical ``==``, not approx.
"""

import random

import numpy as np
import pytest

from repro.columnar.dataset import ColumnarDataset
from repro.columnar.rangecount import SortedRangeCounter
from repro.columnar.solvers import (
    columnar_best_region,
    columnar_oe_maxrs,
    columnar_slicebrs,
)
from repro.core.maxrs import oe_maxrs
from repro.core.naive import NaiveBRS
from repro.core.siri import objects_in_region
from repro.core.slicebrs import SliceBRS
from repro.functions.coverage import CoverageFunction
from repro.functions.weighted_sum import SumFunction
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.grid import GridIndex

SEEDS = range(40)


def _instance(seed):
    """A dyadic-exact weighted instance plus a rectangle size."""
    rng = random.Random(seed)
    n = rng.randint(12, 36)
    points = [
        Point(rng.randrange(0, 41) / 2.0, rng.randrange(0, 41) / 2.0)
        for _ in range(n)
    ]
    weights = [rng.randrange(1, 512) / 256.0 for _ in range(n)]
    a = rng.choice([1.0, 1.5, 2.5, 3.0])
    b = rng.choice([1.0, 2.0, 2.5, 4.0])
    return points, weights, a, b


def _assert_valid_location(result, points, f, a, b):
    """The reported center must actually achieve the reported score."""
    ids = objects_in_region(points, result.point, a, b)
    assert ids == result.object_ids
    assert f.value(ids) == result.score


@pytest.mark.parametrize("seed", SEEDS)
def test_columnar_slicebrs_matches_oracle(seed):
    points, weights, a, b = _instance(seed)
    f = SumFunction(len(points), weights)
    oracle = NaiveBRS().solve(points, f, a, b)
    obj = SliceBRS().solve(points, f, a, b)
    col = columnar_slicebrs(points, f, a, b)
    assert obj.score == oracle.score
    assert col.score == oracle.score
    assert col.status == "ok"
    _assert_valid_location(col, points, f, a, b)


@pytest.mark.parametrize("seed", SEEDS)
def test_columnar_oe_matches_object_oe_and_oracle(seed):
    points, weights, a, b = _instance(seed)
    f = SumFunction(len(points), weights)
    oracle = NaiveBRS().solve(points, f, a, b)
    obj = oe_maxrs(points, a, b, weights=weights)
    col = columnar_oe_maxrs(points, a, b, weights=weights)
    assert obj.score == oracle.score
    assert col.score == oracle.score
    _assert_valid_location(col, points, f, a, b)


@pytest.mark.parametrize("seed", [0, 7, 19, 23, 31])
def test_theta_variants_agree(seed):
    points, weights, a, b = _instance(seed)
    f = SumFunction(len(points), weights)
    base = columnar_slicebrs(points, f, a, b, theta=1.0)
    for theta in (2.0, 3.5):
        assert columnar_slicebrs(points, f, a, b, theta=theta).score == base.score


@pytest.mark.parametrize("seed", [1, 5, 12, 28, 33])
def test_dataset_weight_column_is_picked_up(seed):
    points, weights, a, b = _instance(seed)
    ds = ColumnarDataset.from_points(points, weights=weights)
    explicit = columnar_oe_maxrs(points, a, b, weights=weights)
    implicit = columnar_oe_maxrs(ds, a, b)
    assert implicit.score == explicit.score


@pytest.mark.parametrize("seed", [2, 9, 17, 26, 38])
def test_best_region_fallback_on_coverage(seed):
    points, _, a, b = _instance(seed)
    rng = random.Random(seed * 7 + 1)
    tags = [
        {rng.randrange(0, 8) for _ in range(rng.randint(0, 3))}
        for _ in points
    ]
    f = CoverageFunction(tags)
    obj = SliceBRS().solve(points, f, a, b)
    col = columnar_best_region(points, f, a, b)
    assert col.score == obj.score
    _assert_valid_location(col, points, f, a, b)


@pytest.mark.parametrize("seed", [3, 11, 24, 36])
def test_sorted_range_counter_matches_grid_index(seed):
    points, _, _, _ = _instance(seed)
    counter = SortedRangeCounter(points)
    grid = GridIndex(points, cell_size=2.0)
    rng = random.Random(seed + 500)
    for _ in range(200):
        x0 = rng.uniform(-2, 20)
        y0 = rng.uniform(-2, 20)
        rect = Rect(x0, x0 + rng.uniform(0.5, 8), y0, y0 + rng.uniform(0.5, 8))
        assert counter.count(
            rect.x_min, rect.x_max, rect.y_min, rect.y_max
        ) == grid.count_rect(rect)
        assert counter.ids(
            rect.x_min, rect.x_max, rect.y_min, rect.y_max
        ) == sorted(grid.query_rect(rect))


@pytest.mark.parametrize("seed", [4, 13, 29])
def test_budget_timeout_is_anytime_and_sound(seed):
    from repro.runtime.budget import Budget

    points, weights, a, b = _instance(seed)
    f = SumFunction(len(points), weights)
    exact = NaiveBRS().solve(points, f, a, b)
    result = columnar_slicebrs(points, f, a, b, budget=Budget(max_evals=1))
    assert result.status == "timeout"
    assert result.upper_bound is not None
    assert result.score <= result.upper_bound
    assert exact.score <= result.upper_bound


def test_initial_best_prunes_everything_but_stays_sound():
    points, weights, a, b = _instance(42)
    f = SumFunction(len(points), weights)
    exact = NaiveBRS().solve(points, f, a, b)
    # An unachievable incumbent: the solver may prune every slice, but the
    # answer it returns must still be a real (recomputed) score.
    result = columnar_slicebrs(points, f, a, b, initial_best=exact.score + 100)
    assert result.status == "ok"
    assert result.score == f.value(result.object_ids)
