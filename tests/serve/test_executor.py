"""Request-path tests on a one-worker engine: exactness, caching,
invalidation, coalescing across submitting threads, close and stats.

test_aio_engine.py runs the same request path on two workers, and covers
dispatch, tenancy, backpressure, pressure, deadlines and latency.
"""

import math
import threading

import pytest

from repro.core.slicebrs import SliceBRS
from repro.datasets.registry import scalability_dataset
from repro.serve.aio import AsyncServeEngine
from repro.serve.model import QueryRequest
from repro.serve.store import DatasetStore
from tests.helpers import GatedFunction


@pytest.fixture()
def data():
    return scalability_dataset(120, seed=5)


@pytest.fixture()
def store(data):
    s = DatasetStore()
    s.add_dataset("demo", data)
    return s


@pytest.fixture()
def engine(store):
    with AsyncServeEngine(store, workers=1) as eng:
        yield eng


class TestExactness:
    @pytest.mark.parametrize("a,b", [(4.0, 6.0), (10.0, 15.0), (25.0, 40.0)])
    def test_served_equals_direct_slicebrs(self, engine, data, a, b):
        resp = engine.query(QueryRequest(dataset="demo", a=a, b=b), timeout=60)
        assert resp.status == "ok"
        direct = SliceBRS().solve(data.points, data.score_function(), a, b)
        assert resp.score == pytest.approx(direct.score, abs=1e-9)


class TestCaching:
    def test_second_identical_query_is_a_byte_identical_hit(self, engine):
        req = QueryRequest(dataset="demo", a=5.0, b=7.0)
        first = engine.query(req, timeout=60)
        second = engine.query(req, timeout=60)
        assert not first.cached and second.cached
        assert first.canonical_bytes() == second.canonical_bytes()
        assert engine.cache.stats.hits == 1

    def test_invalidate_bumps_version_and_misses(self, engine):
        req = QueryRequest(dataset="demo", a=5.0, b=7.0)
        first = engine.query(req, timeout=60)
        new_version = engine.invalidate("demo")
        again = engine.query(req, timeout=60)
        assert not again.cached
        assert again.version == new_version == first.version + 1
        assert len(engine.cache) == 1  # old entry purged, new one written


class TestDedupAndBatching:
    def test_identical_inflight_queries_solved_once(self, store, data):
        # Eight threads submit the same query at once while the gate holds
        # the first solve in its worker, so the other seven all join it.
        gate = GatedFunction(data.score_function())
        store.add_points("gated", data.points, gate)
        request = QueryRequest(dataset="gated", a=5.0, b=8.0)
        submitters = 8
        futures = [None] * submitters
        together = threading.Barrier(submitters)

        with AsyncServeEngine(store, workers=1) as eng:

            def submit(slot):
                together.wait(timeout=10)
                futures[slot] = eng.submit_threadsafe(request)

            threads = [
                threading.Thread(target=submit, args=(slot,))
                for slot in range(submitters)
            ]
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
            finally:
                gate.release()
            responses = [f.result(timeout=60) for f in futures]
        assert all(r.status == "ok" for r in responses)
        assert len({r.canonical_bytes() for r in responses}) == 1
        snap = eng.registry.snapshot()
        assert snap["brs_serve_requests_total"]["value"] == submitters
        assert snap["brs_serve_spec_solves_total"]["value"] == 1
        assert snap["brs_serve_dedup_joins_total"]["value"] == submitters - 1


class TestFailures:
    def test_closed_engine_refuses_work(self, store):
        eng = AsyncServeEngine(store).start_background()
        eng.close()
        with pytest.raises(RuntimeError):
            eng.submit_threadsafe(QueryRequest(dataset="demo", a=1.0, b=1.0))

    def test_stats_shape(self, engine):
        engine.query(QueryRequest(dataset="demo", a=5.0, b=8.0), timeout=60)
        stats = engine.stats()
        assert stats["cache"]["misses"] >= 1
        assert stats["queue"]["capacity"] == 64
        assert stats["latency"]["count"] >= 1
        assert math.isfinite(stats["latency"]["p50_seconds"])
        assert stats["datasets"][0]["id"] == "demo"
