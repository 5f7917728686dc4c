"""Ingest-churn benchmark: durable append latency and serving under mutation.

Two measurements around the `repro.ingest` pipeline:

* the cost of one durable append (WAL fsync + apply +
  snapshot flip + regional cache invalidation) on a live served dataset;
* the registered ``ingest`` experiment (`python benchmarks/run_all.py
  --json --only ingest` runs the same code through the shape check:
  churn hit-rate > 0 with > 0 regional evictions).
"""

import pathlib
import tempfile
from random import Random

import pytest

from repro.datasets.registry import scalability_dataset
from repro.ingest import IngestLog, IngestPipeline, live_from_diversity
from repro.ingest.events import Insert

BENCH_N = 2_000


@pytest.mark.parametrize("sync", [True, False], ids=["fsync", "nosync"])
def test_durable_append_latency(benchmark, sync, tmp_path):
    ds = scalability_dataset(BENCH_N, seed=7)
    live = live_from_diversity(ds)
    rng = Random(41)
    space = ds.space
    pipe = IngestPipeline(
        live, IngestLog(tmp_path / f"wal-{sync}.jsonl", sync=sync)
    )

    def one_batch():
        pipe.append(
            [
                Insert(
                    rng.uniform(space.x_min, space.x_max),
                    rng.uniform(space.y_min, space.y_max),
                    payload=[1],
                )
                for _ in range(4)
            ]
        )

    benchmark.pedantic(one_batch, rounds=20, iterations=1)
    pipe.close()
    assert pipe.live.n_alive == BENCH_N + 20 * 4


def test_churn_experiment_shape():
    from repro.bench.experiments import _check_ingest, ingest_churn

    tables = ingest_churn(n_objects=400, n_rounds=4)
    assert _check_ingest(tables) == []
