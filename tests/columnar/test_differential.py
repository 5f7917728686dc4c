"""Columnar solvers vs object-path solvers vs the NaiveBRS oracle.

Every instance uses half-integer coordinates and dyadic (k/256) weights:
all partial sums are then exact in float64 regardless of summation
order, so score comparisons are byte-identical ``==``, not approx.
"""

import math
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
from repro.functions.reduced import reduce_over_cover
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


# --- The kernel is SliceBRS: same point, score and search counters ---------
#
# One table of score kinds x theta x incumbent.  Coordinates are
# half-integers with duplicated and nextafter-adjacent objects mixed in,
# so ties between equal-scoring centers and slabs are everywhere; every
# weight is dyadic, so the kernel and the object path must agree to the
# bit, on the center as well as the score.

KINDS = (
    "sum-unit",
    "sum-dyadic",
    "coverage-unit",
    "coverage-dyadic",
    "coverage-scaled",
    "merged-focus",
    "merged-cover",
)
THETAS = (0.5, 1.0, 2.0)
#: initial_best as a function of the optimum.
INCUMBENTS = {
    "zero": lambda opt: 0.0,
    "half": lambda opt: opt / 2.0,
    "opt": lambda opt: opt,
    "above": lambda opt: opt + 1.0,
}
CASE_SEEDS = range(6)


def _tied_points(rng, n):
    """Half-integer points, some duplicated, some one ulp from another."""
    points = []
    for _ in range(n):
        roll = rng.random()
        if points and roll < 0.15:
            points.append(rng.choice(points))
        elif points and roll < 0.3:
            q = rng.choice(points)
            points.append(Point(math.nextafter(q.x, rng.choice([-1e9, 1e9])), q.y))
        else:
            points.append(
                Point(rng.randrange(0, 31) / 2.0, rng.randrange(0, 31) / 2.0)
            )
    return points


def _case(kind, seed):
    """``(points, f, a, b)`` of one table row."""
    rng = random.Random(f"{kind}-{seed}")
    n = rng.randint(8, 40)
    points = _tied_points(rng, n)
    a = rng.choice([1.0, 1.5, 2.5, 3.0])
    b = rng.choice([1.0, 2.0, 2.5, 4.0])
    if kind == "sum-unit":
        return points, SumFunction(n), a, b
    if kind == "sum-dyadic":
        return points, SumFunction(n, [rng.randrange(1, 512) / 256.0 for _ in range(n)]), a, b
    tags = [
        {rng.randrange(0, 10) for _ in range(rng.randint(0, 4))} for _ in range(n)
    ]
    weights = None
    if kind != "coverage-unit":
        weights = {label: rng.randrange(1, 64) / 16.0 for label in range(10)}
    base = CoverageFunction(
        tags, weights, scale=1.1 if kind == "coverage-scaled" else 1.0
    )
    if kind == "merged-focus":
        ids = [i for i, p in enumerate(points) if 2.0 < p.x < 13.0]
        ids = ids or [0]
        return [points[i] for i in ids], base.merged([[i] for i in ids]), a, b
    if kind == "merged-cover":
        from repro.cover.quadtree_cover import select_cover

        c = 1.0 / 3.0
        cover = select_cover(points, c, a, b)
        reduced = reduce_over_cover(base, cover.groups)
        return cover.points, reduced, (1 - c) * a, (1 - c) * b
    return points, base, a, b


@pytest.mark.parametrize("incumbent", sorted(INCUMBENTS))
@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("kind", KINDS)
def test_kernel_is_slicebrs(kind, theta, incumbent):
    for seed in CASE_SEEDS:
        points, f, a, b = _case(kind, seed)
        opt = NaiveBRS().solve(points, f, a, b).score
        start = INCUMBENTS[incumbent](opt)
        obj = SliceBRS(theta=theta).solve(points, f, a, b, initial_best=start)
        col = columnar_slicebrs(points, f, a, b, theta=theta, initial_best=start)
        assert (col.point, col.score) == (obj.point, obj.score), (kind, seed)
        assert col.stats.n_slabs_searched == obj.stats.n_slabs_searched
        assert col.stats == obj.stats
        assert col.object_ids == obj.object_ids
        if start < opt:
            assert col.score == opt


def test_unit_sum_sweep_reports_slicebrs_centers():
    # Unit weights tie everywhere: the kernel must pick SliceBRS's center
    # among equal-scoring ones on every instance.
    differ = []
    for seed in range(1000):
        rng = random.Random(seed)
        n = rng.randint(6, 30)
        points = [
            Point(rng.randrange(0, 25) / 2.0, rng.randrange(0, 25) / 2.0)
            for _ in range(n)
        ]
        a = rng.choice([1.0, 1.5, 2.5, 3.0])
        b = rng.choice([1.0, 2.0, 2.5, 4.0])
        f = SumFunction(n)
        obj = SliceBRS().solve(points, f, a, b)
        col = columnar_slicebrs(points, f, a, b)
        if (col.point, col.score) != (obj.point, obj.score):
            differ.append(seed)
    assert differ == []


@pytest.mark.parametrize("kind", ["sum-dyadic", "coverage-dyadic", "merged-focus"])
def test_kernel_under_an_eval_cap_is_anytime_and_sound(kind):
    from repro.runtime.budget import Budget

    for seed in range(4):
        points, f, a, b = _case(kind, seed)
        opt = NaiveBRS().solve(points, f, a, b).score
        for max_evals in range(1, 31):
            result = columnar_slicebrs(
                points, f, a, b, budget=Budget(max_evals=max_evals)
            )
            assert result.score == f.value(result.object_ids)
            assert result.score <= opt
            if result.status == "ok":
                assert result.score == opt
            else:
                assert result.status == "timeout"
                assert opt <= result.upper_bound
