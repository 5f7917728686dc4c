"""Async engine tests: exactness, tenancy, coalescing, pressure, lifecycle."""

import math

import pytest

from repro.core.slicebrs import SliceBRS
from repro.datasets.registry import scalability_dataset
from repro.runtime.errors import InvalidQueryError
from repro.serve.aio.engine import AsyncServeEngine
from repro.serve.cache import ResultCache
from repro.serve.model import QueryRequest
from repro.serve.pressure import PressurePolicy
from repro.serve.store import DatasetStore
from repro.serve.tenancy import TenantRegistry, TenantSpec


@pytest.fixture()
def data():
    return scalability_dataset(120, seed=5)


def make_store(data):
    s = DatasetStore()
    s.add_dataset("demo", data)
    return s


@pytest.fixture()
def store(data):
    return make_store(data)


@pytest.fixture()
def engine(store):
    eng = AsyncServeEngine(store, workers=2, batch_window=0.002)
    eng.start_background()
    yield eng
    eng.close()


class TestExactness:
    @pytest.mark.parametrize("a,b", [(4.0, 6.0), (10.0, 15.0), (25.0, 40.0)])
    def test_served_equals_direct_slicebrs(self, engine, data, a, b):
        resp = engine.query(QueryRequest(dataset="demo", a=a, b=b), timeout=60)
        assert resp.status == "ok"
        direct = SliceBRS().solve(data.points, data.score_function(), a, b)
        assert resp.score == pytest.approx(direct.score, abs=1e-9)


class TestCacheAndCoalescing:
    def test_warm_hit_is_byte_identical_and_instant(self, engine):
        request = QueryRequest(dataset="demo", a=6.0, b=9.0)
        cold = engine.query(request, timeout=60)
        warm = engine.query(request, timeout=60)
        assert warm.cached and not cold.cached
        assert warm.canonical_bytes() == cold.canonical_bytes()

    def test_identical_inflight_queries_coalesce(self, store):
        eng = AsyncServeEngine(
            store, cache=ResultCache(8), workers=1, batch_window=0.02
        )
        with eng:
            request = QueryRequest(dataset="demo", a=5.0, b=7.0)
            futures = [eng.submit_threadsafe(request) for _ in range(6)]
            responses = [f.result(timeout=60) for f in futures]
        assert len({r.canonical_bytes() for r in responses}) == 1
        solves = eng.registry.counter("brs_serve_spec_solves_total").value
        assert solves == 1


class TestTenancy:
    def test_quota_rejection_and_release(self, data):
        tenants = TenantRegistry()
        tenants.register(TenantSpec(id="small", quota=1))
        # One worker + a wide batch window: the first query is still
        # queued when the second arrives, so the quota is provably hit.
        eng = AsyncServeEngine(
            make_store(data), tenants=tenants, workers=1, batch_window=0.2
        )
        with eng:
            first = eng.submit_threadsafe(
                QueryRequest(dataset="demo", a=5.0, b=7.0), tenant="small"
            )
            second = eng.submit_threadsafe(
                QueryRequest(dataset="demo", a=6.0, b=8.0), tenant="small"
            )
            assert second.result(timeout=60).status == "rejected"
            assert first.result(timeout=60).status == "ok"
            # The slot freed: the same tenant is admitted again.
            third = eng.query(
                QueryRequest(dataset="demo", a=7.0, b=9.0),
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


class TestPressureShedding:
    def test_shed_answers_carry_sound_upper_bounds(self, data):
        # Near-zero thresholds: one query left queued (backlog ratio
        # 1/64) already counts as overload.  A burst of distinct
        # rectangles wider than the dispatch throttle (workers + 2
        # batches) inside one batch window leaves a backlog behind the
        # first cycle, so that cycle's batches run at the grid rung.
        policy = PressurePolicy(
            enter_shedding=0.001, exit_shedding=0.0005,
            enter_overload=0.002, exit_overload=0.0015,
        )
        sizes = [(8.0 + i, 12.0 + i) for i in range(8)]
        eng = AsyncServeEngine(
            make_store(data), pressure=policy, workers=2, batch_window=0.2
        )
        with eng:
            futures = [
                eng.submit_threadsafe(QueryRequest(dataset="demo", a=a, b=b))
                for a, b in sizes
            ]
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


class TestLifecycleAndStats:
    def test_stats_shape(self, engine):
        engine.query(QueryRequest(dataset="demo", a=5.0, b=7.0), timeout=60)
        stats = engine.stats()
        assert stats["queue"]["capacity"] == 64
        assert "fair_depth" in stats["queue"]
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
        engine.invalidate("demo")
        resp = engine.query(request, timeout=60)
        assert not resp.cached
        assert resp.version == first.version + 1

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
