"""Partitioned solver benchmark: the external-memory window decomposition
solved on a process pool (without one it is a single exact call)."""

import pytest

from repro.core.slicebrs import SliceBRS
from repro.parallel import solve_partitioned


@pytest.mark.parametrize("workers", [2, 4])
def test_partitioned_parallel_runtime(benchmark, gowalla, workers):
    ds, fn = gowalla
    a, b = ds.query(10)
    benchmark.pedantic(
        lambda: solve_partitioned(
            ds.points, fn, a, b, n_parts=workers * 2, workers=workers
        ),
        rounds=1,
        iterations=1,
    )


@pytest.mark.parametrize("dataset", ["gowalla", "yelp"])
def test_partitioned_matches_monolithic(request, dataset):
    ds, fn = request.getfixturevalue(dataset)
    a, b = ds.query(10)
    whole = SliceBRS().solve(ds.points, fn, a, b)
    split = solve_partitioned(ds.points, fn, a, b, n_parts=6, workers=2)
    assert split.score == pytest.approx(whole.score)
