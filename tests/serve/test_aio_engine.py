"""Serve engine tests: exactness, caching, dedup, dispatch, tenancy,
backpressure, pressure, deadlines, failures, lifecycle and latency.

Tests that need work to stay queued or in flight serve a dataset whose
score function is a :class:`~tests.helpers.GatedFunction`: every
dispatched solve blocks inside its worker until the test opens the gate.
"""

import math

import pytest

from repro.core.naive import NaiveBRS
from repro.core.slicebrs import SliceBRS
from repro.datasets.registry import scalability_dataset
from repro.functions.reduced import reduce_over_cover
from repro.obs.metrics import Histogram, histogram_quantile
from repro.obs.slo import percentile
from repro.runtime.errors import InvalidQueryError
from repro.serve.aio.engine import _LATENCY_BUCKETS, AsyncServeEngine
from repro.serve.model import QueryRequest
from repro.serve.pressure import PressurePolicy
from repro.serve.store import DatasetStore
from repro.serve.tenancy import TenantRegistry, TenantSpec
from tests.helpers import GatedFunction


@pytest.fixture()
def data():
    return scalability_dataset(120, seed=5)


def make_store(data):
    s = DatasetStore()
    s.add_dataset("demo", data)
    return s


def add_gated(store, data):
    """Serve ``data`` as ``gated``, scored through a closed gate."""
    gate = GatedFunction(data.score_function())
    store.add_points("gated", data.points, gate)
    return gate


@pytest.fixture()
def store(data):
    return make_store(data)


@pytest.fixture()
def engine(store):
    with AsyncServeEngine(store, workers=2) as eng:
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


class TestCacheAndCoalescing:
    def test_warm_hit_is_byte_identical_and_instant(self, engine):
        request = QueryRequest(dataset="demo", a=6.0, b=9.0)
        cold = engine.query(request, timeout=60)
        warm = engine.query(request, timeout=60)
        assert warm.cached and not cold.cached
        assert warm.canonical_bytes() == cold.canonical_bytes()
        assert engine.cache.stats.hits == 1

    def test_float_noise_hits_the_same_entry(self, engine):
        engine.query(QueryRequest(dataset="demo", a=0.3, b=7.0), timeout=60)
        noisy = engine.query(
            QueryRequest(dataset="demo", a=0.1 + 0.2, b=7.0), timeout=60
        )
        assert noisy.cached

    def test_degraded_answers_are_never_cached(self, engine):
        req = QueryRequest(dataset="demo", a=6.0, b=9.0, timeout=1e-6)
        first = engine.query(req, timeout=60)
        second = engine.query(req, timeout=60)
        assert first.status == "degraded"
        assert second.status == "degraded"
        assert not second.cached
        assert len(engine.cache) == 0

    def test_identical_inflight_queries_coalesce(self, store, data):
        # The gate holds the first solve in flight while its duplicates
        # arrive, so every one of them joins it.
        gate = add_gated(store, data)
        with AsyncServeEngine(store, workers=1) as eng:
            request = QueryRequest(dataset="gated", a=5.0, b=8.0)
            try:
                futures = [eng.submit_threadsafe(request) for _ in range(8)]
            finally:
                gate.release()
            responses = [f.result(timeout=60) for f in futures]
        assert all(r.status == "ok" for r in responses)
        assert len({r.canonical_bytes() for r in responses}) == 1
        snap = eng.registry.snapshot()
        assert snap["brs_serve_spec_solves_total"]["value"] == 1
        assert snap["brs_serve_dedup_joins_total"]["value"] == 7


class TestDispatch:
    def test_compatible_queries_solve_concurrently(self, store, data):
        # Same dataset, version, function and size, one of them focused:
        # each is its own dispatch, so both enter the gated score
        # function, on two workers, before either may finish.
        gate = add_gated(store, data)
        plain = QueryRequest(dataset="gated", a=5.0, b=8.0)
        focused = QueryRequest(
            dataset="gated", a=5.0, b=8.0, focus=(0.0, 5000.0, 0.0, 5000.0)
        )
        with AsyncServeEngine(store, workers=2) as eng:
            try:
                futures = [
                    eng.submit_threadsafe(plain),
                    eng.submit_threadsafe(focused),
                ]
                assert gate.wait_entered(2, timeout=10.0)
            finally:
                gate.release()
            responses = [f.result(timeout=60) for f in futures]
        assert [r.status for r in responses] == ["ok", "ok"]

    @pytest.mark.parametrize("option", ["batch_window", "max_dispatch"])
    def test_removed_scheduler_options_are_rejected(self, store, option):
        with pytest.raises(TypeError):
            AsyncServeEngine(store, **{option: 1})


class TestTenancy:
    def test_quota_rejection_and_release(self, store, data):
        tenants = TenantRegistry()
        tenants.register(TenantSpec(id="small", quota=1))
        gate = add_gated(store, data)
        with AsyncServeEngine(store, tenants=tenants, workers=1) as eng:
            try:
                first = eng.submit_threadsafe(
                    QueryRequest(dataset="gated", a=5.0, b=7.0),
                    tenant="small",
                )
                second = eng.submit_threadsafe(
                    QueryRequest(dataset="gated", a=6.0, b=8.0),
                    tenant="small",
                )
                assert second.result(timeout=60).status == "rejected"
            finally:
                gate.release()
            assert first.result(timeout=60).status == "ok"
            # The slot freed: the same tenant is admitted again.
            third = eng.query(
                QueryRequest(dataset="gated", a=7.0, b=9.0),
                tenant="small", timeout=60,
            )
            assert third.status == "ok"
        assert eng.registry.counter("brs_tenant_rejected_total").value == 1

    def test_dataset_allow_list_enforced(self, engine, store):
        engine.tenants.register(
            TenantSpec(id="walled", datasets=frozenset({"other"}))
        )
        with pytest.raises(InvalidQueryError):
            engine.query(
                QueryRequest(dataset="demo", a=5.0, b=7.0),
                tenant="walled", timeout=60,
            )

    def test_unknown_tenant_gets_permissive_default(self, engine):
        resp = engine.query(
            QueryRequest(dataset="demo", a=5.0, b=7.0),
            tenant="never-registered", timeout=60,
        )
        assert resp.status == "ok"


class TestBackpressure:
    def test_overflow_is_rejected_not_queued(self, store, data):
        gate = add_gated(store, data)
        with AsyncServeEngine(store, workers=1, queue_capacity=1) as eng:
            try:
                held = eng.submit_threadsafe(
                    QueryRequest(dataset="gated", a=5.0, b=8.0)
                )
                overflow = eng.submit_threadsafe(
                    QueryRequest(dataset="gated", a=6.0, b=9.0)
                )
                rejected = overflow.result(timeout=5)
                assert rejected.status == "rejected"
                assert "serve capacity exhausted" in (rejected.error or "")
            finally:
                gate.release()
            assert held.result(timeout=60).status == "ok"
            snap = eng.registry.snapshot()
            assert snap["brs_tenant_rejected_total"]["value"] == 1

    def test_cache_hits_bypass_admission(self, store, data):
        gate = add_gated(store, data)
        with AsyncServeEngine(store, workers=1, queue_capacity=1) as eng:
            warm = QueryRequest(dataset="demo", a=4.0, b=6.0)
            eng.query(warm, timeout=60)
            try:
                held = eng.submit_threadsafe(
                    QueryRequest(dataset="gated", a=5.0, b=8.0)
                )
                hit = eng.query(warm, timeout=5)  # full capacity must not matter
                assert hit.cached and hit.status == "ok"
            finally:
                gate.release()
            assert held.result(timeout=60).status == "ok"


class TestPressureShedding:
    def test_shed_answers_carry_sound_upper_bounds(self, store, data):
        # Near-zero thresholds: one query left queued (backlog ratio
        # 1/64) already counts as overload.  The gate holds the queries
        # dispatched first, filling the throttle (workers + 2), so the
        # rest of the burst queues behind them and the cycles that
        # later pop it run at the grid rung.
        policy = PressurePolicy(
            enter_shedding=0.001, exit_shedding=0.0005,
            enter_overload=0.002, exit_overload=0.0015,
        )
        sizes = [(8.0 + i, 12.0 + i) for i in range(8)]
        gate = add_gated(store, data)
        with AsyncServeEngine(store, pressure=policy, workers=2) as eng:
            try:
                futures = [
                    eng.submit_threadsafe(
                        QueryRequest(dataset="gated", a=a, b=b)
                    )
                    for a, b in sizes
                ]
                assert gate.wait_entered(2, timeout=10.0)
            finally:
                gate.release()
            responses = [f.result(timeout=60) for f in futures]
        shed = [
            (size, resp) for size, resp in zip(sizes, responses)
            if resp.status == "degraded"
        ]
        assert shed
        for (a, b), resp in shed:
            assert resp.solver_status == "gridscan"
            assert resp.upper_bound is not None
            direct = SliceBRS().solve(
                data.points, data.score_function(), a, b
            )
            assert resp.upper_bound >= direct.score - 1e-9
            assert resp.score <= direct.score + 1e-9

    def test_lone_query_at_capacity_one_is_exact(self, store):
        # A query handed to an idle worker is not backlog: pressure sees
        # only what a scheduling cycle leaves queued.
        with AsyncServeEngine(store, workers=2, queue_capacity=1) as eng:
            resp = eng.query(
                QueryRequest(dataset="demo", a=8.0, b=12.0), timeout=60
            )
        assert resp.status == "ok"
        assert eng.pressure_snapshot()["level"] == 0

    def test_burst_within_capacity_is_all_exact(self, store):
        requests = [
            QueryRequest(dataset="demo", a=4.0 + i, b=6.0 + i)
            for i in range(6)
        ]
        with AsyncServeEngine(store, workers=2, queue_capacity=6) as eng:
            futures = [eng.submit_threadsafe(req) for req in requests]
            responses = [f.result(timeout=60) for f in futures]
        assert [r.status for r in responses] == ["ok"] * 6


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


class TestLifecycleAndStats:
    def test_stats_shape(self, engine):
        engine.query(QueryRequest(dataset="demo", a=5.0, b=7.0), timeout=60)
        stats = engine.stats()
        assert stats["cache"]["misses"] >= 1
        assert stats["queue"]["capacity"] == 64
        assert "fair_depth" in stats["queue"]
        assert stats["latency"]["count"] >= 1
        assert math.isfinite(stats["latency"]["p50_seconds"])
        assert stats["datasets"][0]["id"] == "demo"
        assert "pressure" in stats and stats["pressure"]["level"] == 0
        assert "tenants" in stats and "slo" in stats
        snap = engine.tenants_snapshot()
        assert "admission" in snap and "tenants" in snap

    def test_close_is_idempotent_and_rejects_after(self, store):
        eng = AsyncServeEngine(store, workers=1)
        eng.start_background()
        assert eng.query(
            QueryRequest(dataset="demo", a=5.0, b=7.0), timeout=60
        ).status == "ok"
        eng.close()
        eng.close()
        with pytest.raises(RuntimeError):
            eng.submit_threadsafe(QueryRequest(dataset="demo", a=5.0, b=7.0))

    def test_invalidate_bumps_version_and_drops_cache(self, engine):
        request = QueryRequest(dataset="demo", a=5.0, b=7.0)
        first = engine.query(request, timeout=60)
        new_version = engine.invalidate("demo")
        resp = engine.query(request, timeout=60)
        assert not resp.cached
        assert resp.version == new_version == first.version + 1
        assert len(engine.cache) == 1  # old entry purged, new one written

    def test_native_async_embedding(self, store):
        import asyncio

        async def scenario():
            async with AsyncServeEngine(store, workers=1) as eng:
                return await eng.submit(
                    QueryRequest(dataset="demo", a=5.0, b=7.0)
                )

        resp = asyncio.run(scenario())
        assert resp.status == "ok"
        assert math.isfinite(resp.score)


class TestLatencyHistogram:
    def test_p99_stays_near_the_raw_percentile(self):
        # A serve run's shape: solves of 10-45 ms and two slow outliers
        # near 1.5 s.  Linear interpolation inside one wide bucket once
        # read this p99 as about 4.5 s.
        samples = [0.010 + 0.035 * i / 23 for i in range(24)]
        samples += [1.51, 1.537]
        hist = Histogram("latency", buckets=_LATENCY_BUCKETS)
        for sample in samples:
            hist.observe(sample)
        raw = percentile(samples, 0.99)
        estimate = histogram_quantile(hist, 0.99)
        assert raw == pytest.approx(1.53, abs=0.005)
        assert raw / 1.5 <= estimate <= raw * 1.5
