"""Engine request-path tests: exactness, caching, dedup, deadlines,
backpressure (tenancy, pressure and lifecycle are in test_aio_engine)."""

import math

import pytest

from repro.core.naive import NaiveBRS
from repro.core.slicebrs import SliceBRS
from repro.datasets.registry import scalability_dataset
from repro.functions.reduced import reduce_over_cover
from repro.runtime.errors import InvalidQueryError
from repro.serve.aio import AsyncServeEngine
from repro.serve.model import QueryRequest
from repro.serve.store import DatasetStore


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
    with AsyncServeEngine(store, workers=2, batch_window=0.002) as eng:
        yield eng


class TestExactness:
    @pytest.mark.parametrize("a,b", [(4.0, 6.0), (10.0, 15.0), (25.0, 40.0)])
    def test_served_equals_direct_slicebrs(self, engine, data, a, b):
        resp = engine.query(QueryRequest(dataset="demo", a=a, b=b), timeout=60)
        assert resp.status == "ok"
        direct = SliceBRS().solve(data.points, data.score_function(), a, b)
        assert resp.score == pytest.approx(direct.score, abs=1e-9)

    def test_focus_query_equals_oracle_on_the_subset(self, engine, data):
        focus = (1500.0, 8200.0, 900.0, 8700.0)
        resp = engine.query(
            QueryRequest(dataset="demo", a=900.0, b=1200.0, focus=focus),
            timeout=60,
        )
        assert resp.status == "ok"
        x_min, x_max, y_min, y_max = focus
        ids = [
            i for i, p in enumerate(data.points)
            if x_min < p.x < x_max and y_min < p.y < y_max
        ]
        sub_points = [data.points[i] for i in ids]
        sub_fn = reduce_over_cover(data.score_function(), [[i] for i in ids])
        oracle = NaiveBRS().solve(sub_points, sub_fn, 900.0, 1200.0)
        assert resp.score == pytest.approx(oracle.score, abs=1e-9)
        assert set(resp.object_ids) <= set(ids)

    def test_k_sizing_resolves_against_the_dataset(self, engine):
        resp = engine.query(QueryRequest(dataset="demo", k=0.5), timeout=60)
        assert resp.status == "ok"
        assert resp.a > 0 and resp.b > 0

    def test_response_ids_match_reported_score(self, engine, data):
        resp = engine.query(QueryRequest(dataset="demo", a=8.0, b=12.0),
                            timeout=60)
        fn = data.score_function()
        assert resp.score == pytest.approx(fn.value(resp.object_ids))


class TestCaching:
    def test_second_identical_query_is_a_byte_identical_hit(self, engine):
        req = QueryRequest(dataset="demo", a=5.0, b=7.0)
        first = engine.query(req, timeout=60)
        second = engine.query(req, timeout=60)
        assert not first.cached and second.cached
        assert first.canonical_bytes() == second.canonical_bytes()
        assert engine.cache.stats.hits == 1

    def test_float_noise_hits_the_same_entry(self, engine):
        engine.query(QueryRequest(dataset="demo", a=0.3, b=7.0), timeout=60)
        noisy = engine.query(
            QueryRequest(dataset="demo", a=0.1 + 0.2, b=7.0), timeout=60
        )
        assert noisy.cached

    def test_invalidate_bumps_version_and_misses(self, engine):
        req = QueryRequest(dataset="demo", a=5.0, b=7.0)
        first = engine.query(req, timeout=60)
        new_version = engine.invalidate("demo")
        again = engine.query(req, timeout=60)
        assert not again.cached
        assert again.version == new_version == first.version + 1
        assert len(engine.cache) == 1  # old entry purged, new one written

    def test_degraded_answers_are_never_cached(self, engine):
        req = QueryRequest(dataset="demo", a=6.0, b=9.0, timeout=1e-6)
        first = engine.query(req, timeout=60)
        second = engine.query(req, timeout=60)
        assert first.status == "degraded"
        assert second.status == "degraded"
        assert not second.cached
        assert len(engine.cache) == 0


class TestDedupAndBatching:
    def test_identical_inflight_queries_solved_once(self, store):
        # A wide batch window keeps the dispatcher asleep while all the
        # duplicates arrive, making the dedup count deterministic.
        eng = AsyncServeEngine(store, workers=1, batch_window=0.2)
        with eng:
            req = QueryRequest(dataset="demo", a=5.0, b=8.0)
            futures = [eng.submit_threadsafe(req) for _ in range(8)]
            responses = [f.result(timeout=60) for f in futures]
            assert all(r.status == "ok" for r in responses)
            assert len({r.canonical_bytes() for r in responses}) == 1
            snap = eng.registry.snapshot()
            assert snap["brs_serve_spec_solves_total"]["value"] == 1
            assert snap["brs_serve_dedup_joins_total"]["value"] == 7

    def test_compatible_queries_share_a_batch(self, store):
        eng = AsyncServeEngine(store, workers=1, batch_window=0.2)
        with eng:
            plain = QueryRequest(dataset="demo", a=5.0, b=8.0)
            focused = QueryRequest(
                dataset="demo", a=5.0, b=8.0, focus=(0.0, 5000.0, 0.0, 5000.0)
            )
            futures = [
                eng.submit_threadsafe(plain), eng.submit_threadsafe(focused)
            ]
            responses = [f.result(timeout=60) for f in futures]
            assert all(r.status == "ok" for r in responses)
            assert [r.batch_size for r in responses] == [2, 2]
            assert eng.registry.snapshot()["brs_serve_batches_total"]["value"] == 1


class TestBackpressure:
    def test_overflow_is_rejected_not_queued(self, store):
        eng = AsyncServeEngine(
            store, workers=1, queue_capacity=1, batch_window=0.3
        )
        with eng:
            held = eng.submit_threadsafe(
                QueryRequest(dataset="demo", a=5.0, b=8.0)
            )
            overflow = eng.submit_threadsafe(
                QueryRequest(dataset="demo", a=6.0, b=9.0)
            )
            rejected = overflow.result(timeout=5)
            assert rejected.status == "rejected"
            assert "serve capacity exhausted" in (rejected.error or "")
            assert held.result(timeout=60).status == "ok"
            snap = eng.registry.snapshot()
            assert snap["brs_tenant_rejected_total"]["value"] == 1

    def test_cache_hits_bypass_admission(self, store):
        eng = AsyncServeEngine(
            store, workers=1, queue_capacity=1, batch_window=0.3
        )
        with eng:
            warm = QueryRequest(dataset="demo", a=4.0, b=6.0)
            eng.query(warm, timeout=60)
            held = eng.submit_threadsafe(
                QueryRequest(dataset="demo", a=5.0, b=8.0)
            )
            hit = eng.query(warm, timeout=5)  # full capacity must not matter
            assert hit.cached and hit.status == "ok"
            assert held.result(timeout=60).status == "ok"


class TestDeadlines:
    def test_expired_deadline_returns_degraded_answer(self, engine, data):
        resp = engine.query(
            QueryRequest(dataset="demo", a=6.0, b=9.0, timeout=1e-6),
            timeout=60,
        )
        assert resp.status == "degraded"
        assert resp.solver_status in ("timeout", "degraded")
        assert resp.center is not None and resp.score is not None
        # Degraded answers still report honest scores.
        fn = data.score_function()
        assert resp.score == pytest.approx(fn.value(resp.object_ids))

    def test_generous_deadline_stays_exact(self, engine, data):
        resp = engine.query(
            QueryRequest(dataset="demo", a=6.0, b=9.0, timeout=120.0),
            timeout=60,
        )
        assert resp.status == "ok"
        direct = SliceBRS().solve(data.points, data.score_function(), 6.0, 9.0)
        assert resp.score == pytest.approx(direct.score, abs=1e-9)


class TestFailures:
    def test_unknown_dataset_raises_synchronously(self, engine):
        with pytest.raises(InvalidQueryError, match="unknown dataset"):
            engine.submit_threadsafe(QueryRequest(dataset="nope", a=1.0, b=1.0))

    def test_empty_focus_is_a_client_error(self, engine):
        """A focus window holding no objects is rejected at submit."""
        with pytest.raises(InvalidQueryError, match="no objects"):
            engine.submit_threadsafe(
                QueryRequest(
                    dataset="demo", a=5.0, b=8.0,
                    focus=(-10.0, -9.0, -10.0, -9.0),
                )
            )

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
