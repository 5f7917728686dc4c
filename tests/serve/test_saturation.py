"""In-process saturation sweep: the pressure ladder under a real burst.

Drives :class:`AsyncServeEngine` open-loop through a short
healthy → overload → recovery arc and asserts the observable contract:

* the pressure verdict flips ``healthy → shedding → recovered`` (the
  transitions counter proves both edges, not just the peak);
* every shed answer produced on the way is *certified*: its
  ``upper_bound`` dominates the true optimum (spot-checked against the
  exhaustive :class:`NaiveBRS` oracle) while its reported score never
  exceeds it.

Kept deliberately small (a few hundred objects, a one-worker pool) so
the whole arc fits in tier-1 runtime.
"""

import time

import pytest

from repro.core.naive import NaiveBRS
from repro.datasets.registry import scalability_dataset
from repro.serve.aio.engine import AsyncServeEngine
from repro.serve.model import QueryRequest
from repro.serve.tenancy import TenantRegistry, TenantSpec


@pytest.fixture(scope="module")
def data():
    return scalability_dataset(160, seed=7)


def burst_requests(count):
    """Distinct (a, b) pairs: distinct cache keys, so backlog is real.

    Identical rectangles would coalesce onto one in-flight solve and the
    queue would never fill — the sweep must defeat its own dedup.
    """
    return [
        QueryRequest(dataset="demo", a=4.0 + 0.5 * i, b=6.0 + 0.7 * i)
        for i in range(count)
    ]


def make_engine(data, **kwargs):
    from repro.serve.store import DatasetStore

    store = DatasetStore()
    store.add_dataset("demo", data)
    tenants = TenantRegistry()
    tenants.register(TenantSpec(id="load", quota=64))
    defaults = dict(tenants=tenants, cache=None, workers=1, queue_capacity=24)
    defaults.update(kwargs)
    return AsyncServeEngine(store, **defaults)


class TestSaturationArc:
    def test_verdict_flips_healthy_shedding_recovered(self, data):
        eng = make_engine(data)
        with eng:
            # -- healthy: light sequential load keeps the ladder at exact.
            for req in burst_requests(3):
                assert eng.query(req, tenant="load", timeout=60).status == "ok"
            assert eng.pressure_snapshot()["level"] == 0
            assert eng.slo_snapshot()["healthy"]

            # -- overload: an open-loop burst of distinct rectangles.  One
            # worker plus the dispatch throttle keeps the backlog in the
            # fair queue where the monitor can see it.
            futures = [
                eng.submit_threadsafe(req, tenant="load")
                for req in burst_requests(22)
            ]
            peak = 0
            deadline = time.perf_counter() + 10.0
            while time.perf_counter() < deadline:
                peak = max(peak, eng.pressure_snapshot()["level"])
                if peak >= 1 or all(f.done() for f in futures):
                    break
                time.sleep(0.001)
            responses = [f.result(timeout=60) for f in futures]
            assert peak >= 1, "burst never registered as pressure"

            shed = [r for r in responses if r.status == "degraded"]
            assert shed, "overload produced no shed answers"
            assert all(
                r.solver_status in ("cover", "gridscan") for r in shed
            )
            assert all(r.upper_bound is not None for r in shed)

            # -- certified bounds: oracle spot-check on two shed answers.
            fn = data.score_function()
            for resp in shed[:2]:
                oracle = NaiveBRS().solve(data.points, fn, resp.a, resp.b)
                assert resp.upper_bound >= oracle.score - 1e-9
                assert resp.score <= oracle.score + 1e-9

            # -- recovered: light load drains the queue and the hysteresis
            # walks the ladder back down to healthy.
            deadline = time.perf_counter() + 15.0
            while time.perf_counter() < deadline:
                eng.query(
                    QueryRequest(dataset="demo", a=3.0, b=4.5),
                    tenant="load", timeout=60,
                )
                if eng.pressure_snapshot()["level"] == 0:
                    break
                time.sleep(0.01)
            snap = eng.pressure_snapshot()
            assert snap["level"] == 0, "pressure never recovered"
            # Both edges happened: up into shedding and back down.
            assert snap["transitions"] >= 2
            assert eng.slo_snapshot()["healthy"]

    def test_capacity_rejections_are_explicit_and_counted(self, data):
        # A deliberately tiny queue: overflow must be refused loudly
        # (status "rejected" with a reason), never silently dropped.
        eng = make_engine(data, queue_capacity=4)
        with eng:
            futures = [
                eng.submit_threadsafe(req, tenant="load")
                for req in burst_requests(16)
            ]
            responses = [f.result(timeout=60) for f in futures]
        rejected = [r for r in responses if r.status == "rejected"]
        served = [r for r in responses if r.status in ("ok", "degraded")]
        assert rejected and served
        assert all(r.error for r in rejected)
        assert eng.slo_snapshot()["shed_ratio"] > 0.0
