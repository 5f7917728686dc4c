"""Metamorphic properties of the partitioned solver.

Every solve runs its x-windows on a 2-worker pool; each instance here
plans two or three windows.  Without a pool ``solve_partitioned`` is one
exact call, and the window plan and merge would go unchecked.

Each property derives a transformed instance whose optimum is *known
from* the original's — no oracle needed, so they hold at any scale:

* translating every point shifts an optimal center by the same vector
  (and preserves the optimal score);
* uniformly scaling points and rectangle preserves the optimal score,
  and the scaled original center stays optimal;
* duplicating an object never decreases the optimal score (monotone f).

Optima need not be unique, so the assertions are phrased as "the
transformed original center still achieves the optimal score", never as
center equality.
"""

from __future__ import annotations

import pytest

from repro.core.siri import objects_in_region
from repro.functions.coverage import CoverageFunction
from repro.geometry.point import Point
from repro.parallel import solve_partitioned
from tests.helpers import random_instance, random_sum_instance

SEEDS = range(6)


def _instance(seed):
    if seed % 2 == 0:
        return random_instance(seed, max_objects=30)
    return random_sum_instance(seed, max_objects=30)


@pytest.mark.parametrize("seed", SEEDS)
def test_translation_shifts_optimum(seed):
    points, fn, a, b = _instance(seed)
    dx, dy = 13.25, -7.5
    moved = [Point(p.x + dx, p.y + dy) for p in points]

    base = solve_partitioned(points, fn, a, b, n_parts=3, workers=2)
    shifted = solve_partitioned(moved, fn, a, b, n_parts=3, workers=2)

    assert shifted.score == pytest.approx(base.score)
    # The translated original center is still an optimal placement.
    center = Point(base.point.x + dx, base.point.y + dy)
    achieved = fn.value(objects_in_region(moved, center, a, b))
    assert achieved == pytest.approx(base.score)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("factor", [0.25, 3.0])
def test_uniform_scaling_preserves_optimum(seed, factor):
    points, fn, a, b = _instance(seed)
    scaled = [Point(p.x * factor, p.y * factor) for p in points]

    base = solve_partitioned(points, fn, a, b, n_parts=3, workers=2)
    rescaled = solve_partitioned(
        scaled, fn, a * factor, b * factor, n_parts=3, workers=2
    )

    assert rescaled.score == pytest.approx(base.score)
    center = Point(base.point.x * factor, base.point.y * factor)
    achieved = fn.value(
        objects_in_region(scaled, center, a * factor, b * factor)
    )
    assert achieved == pytest.approx(base.score)


@pytest.mark.parametrize("seed", SEEDS)
def test_duplicating_an_object_never_decreases_score(seed):
    points, fn, a, b = random_instance(seed, max_objects=30)
    base = solve_partitioned(points, fn, a, b, n_parts=3, workers=2)

    # Duplicate the first object in place: same location, same labels.
    dup_points = list(points) + [points[0]]
    dup_fn = CoverageFunction(
        [fn.labels_of(i) for i in range(len(points))] + [fn.labels_of(0)],
        fn.label_weights,
        scale=fn.scale,
    )
    dup = solve_partitioned(dup_points, dup_fn, a, b, n_parts=3, workers=2)
    assert dup.score >= base.score - 1e-9
