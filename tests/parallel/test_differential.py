"""Differential suite: parallel == serial == naive oracle, per instance.

Every seeded instance is solved three ways — the O(n^2) NaiveBRS oracle,
``solve_partitioned`` without workers (one exact call), and the
process-pool path over the windows — and all three must agree on the
optimal score.  Instances vary layout (uniform vs
clustered), score family (coverage vs weighted sum), rectangle shape
(square through heavily skewed), and window count, because those are the
axes the decomposition and the worker protocol could get wrong.

The first :data:`FAST_SEEDS` instances run everywhere (including the CI
spawn-backend job); the remaining sweep to 40 instances is marked
``slow``.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest

from repro.core.naive import NaiveBRS
from repro.core.siri import objects_in_region
from repro.functions.base import SetFunction
from repro.functions.coverage import CoverageFunction
from repro.functions.weighted_sum import SumFunction
from repro.geometry.point import Point
from repro.parallel import solve_partitioned

FAST_SEEDS = range(8)
SLOW_SEEDS = range(8, 40)


def make_instance(
    seed: int,
) -> Tuple[List[Point], SetFunction, float, float, int]:
    """One seeded instance: ``(points, f, a, b, n_parts)``.

    Even seeds scatter points uniformly; odd seeds sample around a few
    cluster centers so some windows are dense and others nearly empty.
    Seeds alternate coverage and sum functions independently of layout.
    """
    rng = random.Random(1_000_003 * seed + 17)
    n = rng.randint(4, 60)
    if seed % 2 == 0:
        points = [
            Point(rng.uniform(0, 12), rng.uniform(0, 12)) for _ in range(n)
        ]
    else:
        centers = [
            (rng.uniform(0, 12), rng.uniform(0, 12))
            for _ in range(rng.randint(2, 4))
        ]
        points = []
        for _ in range(n):
            cx, cy = rng.choice(centers)
            points.append(
                Point(cx + rng.gauss(0, 0.7), cy + rng.gauss(0, 0.7))
            )
    fn: SetFunction
    if seed % 4 < 2:
        tags = [
            set(rng.sample("abcdefghij", rng.randint(1, 3))) for _ in range(n)
        ]
        fn = CoverageFunction(tags)
    else:
        fn = SumFunction(n, [rng.uniform(0.1, 2.0) for _ in range(n)])
    # Rectangle shapes from squares to 8:1 skews, both orientations.
    base = rng.uniform(0.6, 3.0)
    aspect = rng.choice([1.0, 2.0, 4.0, 8.0])
    if rng.random() < 0.5:
        a, b = base * aspect, base
    else:
        a, b = base, base * aspect
    return points, fn, a, b, rng.randint(2, 6)


def assert_instance_agrees(seed: int) -> None:
    points, fn, a, b, n_parts = make_instance(seed)
    oracle = NaiveBRS().solve(points, fn, a, b)
    serial = solve_partitioned(points, fn, a, b, n_parts=n_parts)
    pooled = solve_partitioned(points, fn, a, b, n_parts=n_parts, workers=2)

    assert serial.score == pytest.approx(oracle.score), f"seed {seed}: serial"
    assert pooled.score == pytest.approx(oracle.score), f"seed {seed}: pool"
    # The returned center must itself achieve the reported score — the
    # score may not come from a region the answer does not describe.
    for result in (serial, pooled):
        achieved = fn.value(objects_in_region(points, result.point, a, b))
        assert achieved == pytest.approx(result.score), f"seed {seed}: center"
        assert result.status == "ok"


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_differential_fast(seed):
    assert_instance_agrees(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_differential_sweep(seed):
    assert_instance_agrees(seed)
