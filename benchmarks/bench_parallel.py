"""Multiprocessing shard-backend benchmark: one exact call vs process pool.

Measures :func:`repro.parallel.solve_partitioned` on the Section 6.5
scalability construction (Gaussian points, seeded SumFunction weights) at
paper scale — 200k objects by default, scaled down on boxes without the
cores to exercise a pool.  `python benchmarks/run_all.py --json` runs the
same comparison through the registered ``parallel`` experiment and shape
check (identical scores always; >= 1.5x speedup with 4 workers on a
>= 4-core machine, which is expected to fail: on 2 cores one exact call
beat the pool at every size measured).
"""

import os
from random import Random

import pytest

from repro.datasets.registry import query_size, scalability_dataset
from repro.functions.weighted_sum import SumFunction
from repro.parallel import solve_partitioned

#: Full paper-scale size on multi-core machines; a size the serial solve
#: finishes in seconds where a pool could not win anyway.
BENCH_N = 200_000 if (os.cpu_count() or 1) >= 4 else 20_000


def _instance(n_objects: int):
    ds = scalability_dataset(n_objects, seed=7)
    rng = Random(99)
    fn = SumFunction(n_objects, [rng.random() for _ in range(n_objects)])
    a, b = query_size(ds.space, n_objects, k=10)
    return ds.points, fn, a, b


@pytest.mark.parametrize("workers", [0, 2, 4])
def test_parallel_runtime(benchmark, workers):
    points, fn, a, b = _instance(BENCH_N)
    benchmark.pedantic(
        lambda: solve_partitioned(
            points, fn, a, b, n_parts=8, workers=workers
        ),
        rounds=1,
        iterations=1,
    )


def test_parallel_matches_serial():
    points, fn, a, b = _instance(BENCH_N)
    serial = solve_partitioned(points, fn, a, b, n_parts=8)
    pool = solve_partitioned(points, fn, a, b, n_parts=8, workers=4)
    assert pool.score == pytest.approx(serial.score)
