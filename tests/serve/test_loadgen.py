"""Load generator: schedule determinism, summary math, and the
coordinated-omission regression.

The headline test injects a stall into the submit path and pins the two
latency views apart: the honest intended-time percentiles must surface
the stall while the closed-loop (service-time) view claims everything
was fast.  That asymmetry *is* the coordinated-omission fix — if the
loadgen ever reverts to timestamping from the actual send, this test
fails.
"""

import time
from concurrent.futures import Future

import pytest

from repro.datasets.registry import scalability_dataset
from repro.serve.aio.engine import AsyncServeEngine
from repro.serve.loadgen import (
    LoadSample,
    ScheduledQuery,
    WorkloadMix,
    fire_schedule,
    poisson_schedule,
    run_load,
    summarize,
)
from repro.serve.model import QueryRequest, QueryResponse
from repro.serve.store import DatasetStore

MIXES = (
    WorkloadMix(tenant="alpha", share=3.0, k_choices=(1.0, 2.0)),
    WorkloadMix(tenant="beta", share=1.0, k_choices=(5.0,)),
)


def ok_response(request):
    return QueryResponse(
        status="ok", dataset=request.dataset, version=1,
        a=1.0, b=1.0, center=(0.0, 0.0), score=1.0,
    )


def instant_submit(request, tenant):
    fut = Future()
    fut.set_result(ok_response(request))
    return fut


class TestPoissonSchedule:
    def test_deterministic_given_seed(self):
        first = poisson_schedule(MIXES, target_qps=200.0, duration=1.0, seed=4)
        second = poisson_schedule(MIXES, target_qps=200.0, duration=1.0, seed=4)
        assert first == second
        other = poisson_schedule(MIXES, target_qps=200.0, duration=1.0, seed=5)
        assert first != other

    def test_arrivals_respect_mixes(self):
        schedule = poisson_schedule(
            MIXES, target_qps=400.0, duration=1.0, seed=1
        )
        assert len(schedule) > 200
        times = [s.intended for s in schedule]
        assert times == sorted(times)
        assert all(0.0 <= t < 1.0 for t in times)
        by_tenant = {t: 0 for t in ("alpha", "beta")}
        for s in schedule:
            by_tenant[s.tenant] += 1
            mix = MIXES[0] if s.tenant == "alpha" else MIXES[1]
            assert s.request.k in mix.k_choices
            assert s.request.dataset == mix.dataset
        # 3:1 shares: alpha should clearly dominate.
        assert by_tenant["alpha"] > 2 * by_tenant["beta"]

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_schedule(MIXES, target_qps=0.0, duration=1.0)
        with pytest.raises(ValueError):
            poisson_schedule(MIXES, target_qps=10.0, duration=-1.0)
        with pytest.raises(ValueError):
            poisson_schedule((), target_qps=10.0, duration=1.0)
        with pytest.raises(ValueError):
            WorkloadMix(tenant="x", share=0.0)
        with pytest.raises(ValueError):
            WorkloadMix(tenant="x", k_choices=())


class TestCoordinatedOmission:
    def test_injected_stall_shows_up_in_intended_time_percentiles(self):
        # Ten arrivals 10 ms apart; the *driver* stalls 0.4 s before the
        # third send (a GC pause, a slow accept loop — anything between
        # schedule and wire).  Every query served after the stall
        # completes instantly once sent, so the closed-loop view claims
        # the run was fast; open-loop accounting must charge the stall
        # to every arrival whose intended time passed while the driver
        # was stuck.
        schedule = [
            ScheduledQuery(
                intended=i * 0.01, tenant="alpha",
                request=QueryRequest(dataset="demo", k=1.0),
            )
            for i in range(10)
        ]
        calls = {"n": 0}

        def stalling_sleep(seconds):
            calls["n"] += 1
            time.sleep(seconds + (0.4 if calls["n"] == 3 else 0.0))

        samples = fire_schedule(
            instant_submit, schedule, sleep=stalling_sleep, wait_timeout=10.0
        )
        assert len(samples) == len(schedule)
        report = summarize(samples, target_qps=100.0, offered=len(schedule))

        # The honest view sees the stall; the closed-loop view hides it.
        assert report.p99_seconds > 0.25
        assert report.naive_p99_seconds < 0.1
        # Post-stall arrivals were sent late and the samples say so.
        late = [s for s in samples if s.actual > s.intended + 0.2]
        assert len(late) >= 5
        assert all(s.latency >= s.service_latency - 1e-9 for s in samples)

    def test_driver_sleeps_only_forward(self):
        # A schedule the driver can keep up with: actual tracks intended
        # closely and never precedes it.
        schedule = [
            ScheduledQuery(
                intended=i * 0.005, tenant="alpha",
                request=QueryRequest(dataset="demo", k=1.0),
            )
            for i in range(8)
        ]
        samples = fire_schedule(instant_submit, schedule, wait_timeout=5.0)
        assert all(s.actual >= s.intended - 1e-6 for s in samples)
        assert max(s.latency for s in samples) < 0.2


class TestFireSchedule:
    def test_submit_exception_becomes_error_sample(self):
        schedule = [
            ScheduledQuery(
                intended=0.0, tenant="alpha",
                request=QueryRequest(dataset="demo", k=float(i + 1)),
            )
            for i in range(4)
        ]
        calls = {"n": 0}

        def flaky_submit(request, tenant):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("engine closed")
            return instant_submit(request, tenant)

        samples = fire_schedule(flaky_submit, schedule, wait_timeout=5.0)
        assert len(samples) == 4
        assert sum(1 for s in samples if s.status == "error") == 1
        assert sum(1 for s in samples if s.status == "ok") == 3


class TestSummarize:
    def test_rate_and_goodput_math(self):
        def sample(status, tenant="alpha", intended=0.0, latency=0.1):
            return LoadSample(
                tenant=tenant, intended=intended, actual=intended,
                latency=latency, service_latency=latency, status=status,
            )

        samples = [
            sample("ok", latency=0.1),
            sample("ok", tenant="beta", intended=0.5, latency=0.3),
            sample("degraded", intended=1.0, latency=0.2),
            sample("rejected", intended=1.5, latency=0.0),
        ]
        report = summarize(samples, target_qps=10.0, offered=5)
        assert report.completed == 4
        assert report.shed_rate == pytest.approx(0.25)
        assert report.error_rate == 0.0
        assert report.degraded_rate == pytest.approx(0.25)
        # Wall clock: first intended 0.0 to last completion (the
        # rejected arrival at 1.5, served instantly).
        assert report.duration_seconds == pytest.approx(1.5)
        assert report.goodput_qps == pytest.approx(3 / 1.5)
        assert set(report.per_tenant) == {"alpha", "beta"}
        assert report.per_tenant["beta"]["count"] == 1.0
        row = report.row()
        assert row["offered"] == 5 and row["p99_ms"] >= row["p50_ms"]
        assert isinstance(row["slo_healthy"], bool)

    def test_goodput_is_computed_over_the_offered_window(self):
        # Three arrivals bunched into the first 0.11 s of a 0.6 s window
        # at 5 q/s offered: goodput is 3 / 0.6, not 3 / 0.11.
        samples = [
            LoadSample(
                tenant="alpha", intended=t, actual=t, latency=0.01,
                service_latency=0.01, status="ok",
            )
            for t in (0.0, 0.05, 0.1)
        ]
        report = summarize(samples, target_qps=5.0, offered=3, duration=0.6)
        assert report.duration_seconds == pytest.approx(0.6)
        assert report.goodput_qps == pytest.approx(5.0)
        # A span longer than the window (a slow tail) still wins.
        slow = summarize(samples, target_qps=5.0, offered=3, duration=0.05)
        assert slow.duration_seconds == pytest.approx(0.11)

    def test_empty_run_is_well_defined(self):
        report = summarize([], target_qps=10.0, offered=0)
        assert report.completed == 0
        assert report.goodput_qps == 0.0
        assert report.shed_rate == 0.0


class TestEndToEnd:
    def test_run_load_against_live_async_engine(self):
        store = DatasetStore()
        store.add_dataset("demo", scalability_dataset(80, seed=2))
        eng = AsyncServeEngine(store, workers=2)
        with eng:
            report = run_load(
                lambda req, tenant: eng.submit_threadsafe(req, tenant=tenant),
                (WorkloadMix(tenant="alpha", k_choices=(1.0, 2.0, 3.0)),),
                target_qps=60.0,
                duration=0.3,
                seed=3,
            )
        assert report.completed == report.offered > 0
        assert report.error_rate == 0.0
        assert report.slo["window_requests"] == report.completed
