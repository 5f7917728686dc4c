"""Open-loop load generation with coordinated-omission-safe latency.

The selfcheck's original burst harness was *closed-loop*: a thread pool
fired a query, waited for the answer, then fired the next.  Under
saturation that measurement lies — when the server stalls, the client
politely stops sending, so the stalled interval contributes *one* slow
sample instead of the many a real open-loop population would have
suffered.  That is coordinated omission, and it systematically
under-reports p99 exactly when p99 matters.

This module does it properly:

* **Open loop.**  Arrivals follow a seeded Poisson process at a target
  QPS (:func:`poisson_schedule`); the driver submits at each *intended*
  send time whether or not earlier queries have answered.  Engine
  ``submit`` APIs are non-blocking (they return a future), so a slow
  server cannot push back on the arrival process.
* **Intended-time latency.**  Every sample's latency is measured from
  its intended send time, not the moment the submit call actually
  happened — a stalled driver or a slow accept loop shows up *in the
  percentiles* instead of silently shifting the schedule.  The
  closed-loop view (``service_latency``, completion minus actual send)
  is kept alongside for comparison; the regression suite pins the two
  apart with an injected stall.
* **Per-tenant mixes.**  Traffic splits across
  :class:`WorkloadMix` entries (tenant id, share, dataset, sizes), so
  fairness claims are measured per tenant, from the client side.
* **SLO wiring.**  Outcomes stream into an
  :class:`~repro.obs.slo.SLOTracker` against a chosen objective, and
  :class:`LoadReport` carries the tracker's verdicts next to the raw
  percentile curves (p50/p99/shed-rate/goodput) the saturation
  experiment and the perf ledger record.

Everything is deterministic given the seed (modulo true service times):
the schedule is precomputed, the driver is a single thread, and clocks
are injectable for the stall-injection tests.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.slo import SLOTracker, objective_for, percentile
from repro.runtime.errors import BRSError
from repro.serve.model import QueryRequest, QueryResponse

#: A non-blocking submit: (request, tenant id) -> future of the response.
SubmitFn = Callable[[QueryRequest, Optional[str]], "Future[QueryResponse]"]

#: Clock and sleep signatures (injectable for stall-injection tests).
ClockFn = Callable[[], float]
SleepFn = Callable[[float], None]


@dataclass(frozen=True)
class WorkloadMix:
    """One tenant's slice of the offered load.

    Attributes:
        tenant: tenant id stamped on this slice's requests.
        share: relative traffic share (normalized across the mixes).
        dataset: dataset id the slice queries.
        k_choices: ``k*q`` scale factors sampled uniformly per request.
        timeout: optional per-request deadline forwarded to the server.
    """

    tenant: str
    share: float = 1.0
    dataset: str = "demo"
    k_choices: Tuple[float, ...] = (1.0, 5.0, 10.0)
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        """Validate the mix.

        Raises:
            ValueError: on a non-positive share or empty k choices.
        """
        if not (self.share > 0):
            raise ValueError(f"share must be positive, got {self.share!r}")
        if not self.k_choices:
            raise ValueError("k_choices must be non-empty")


@dataclass(frozen=True)
class ScheduledQuery:
    """One arrival of the precomputed open-loop schedule.

    Attributes:
        intended: intended send time, seconds from run start.
        tenant: tenant id to submit as.
        request: the query to send.
    """

    intended: float
    tenant: str
    request: QueryRequest


@dataclass
class LoadSample:
    """One completed (or failed) scheduled query.

    Attributes:
        tenant: tenant id the query was submitted as.
        intended: intended send offset (seconds from run start).
        actual: actual submit offset (>= intended when the driver fell
            behind — the gap the coordinated-omission fix accounts for).
        latency: completion minus *intended* send (the honest number).
        service_latency: completion minus *actual* send (the closed-loop
            view; under-reports at saturation).
        status: response status (``ok``/``degraded``/``rejected``/``error``).
        response: the response, when one was produced.
    """

    tenant: str
    intended: float
    actual: float
    latency: float
    service_latency: float
    status: str
    response: Optional[QueryResponse] = None


@dataclass
class LoadReport:
    """Aggregated outcome of one open-loop run.

    Attributes:
        target_qps: offered arrival rate.
        offered: scheduled arrivals.
        completed: samples with any terminal status.
        duration_seconds: the offered window (the schedule's duration)
            or, when longer, the wall time from first intended send to
            last completion.
        p50_seconds / p99_seconds: intended-time latency percentiles
            over served (ok/degraded) samples.
        naive_p50_seconds / naive_p99_seconds: the closed-loop
            (service-time) percentiles, kept to quantify the omission
            gap.
        shed_rate: rejected fraction of completed samples.
        error_rate: errored fraction of completed samples.
        degraded_rate: degraded fraction of completed samples.
        goodput_qps: served (ok + degraded) samples per second of
            ``duration_seconds``.
        per_tenant: per-tenant sample counts and percentiles.
        slo: the SLO tracker's closing snapshot (verdicts included).
        samples: every sample, in completion-record order.
    """

    target_qps: float
    offered: int
    completed: int
    duration_seconds: float
    p50_seconds: float
    p99_seconds: float
    naive_p50_seconds: float
    naive_p99_seconds: float
    shed_rate: float
    error_rate: float
    degraded_rate: float
    goodput_qps: float
    per_tenant: Dict[str, Dict[str, float]]
    slo: Dict[str, Any]
    samples: List[LoadSample] = field(default_factory=list)

    def row(self) -> Dict[str, Any]:
        """The compact JSON row the sweep and the ledger record."""
        return {
            "target_qps": self.target_qps,
            "offered": self.offered,
            "completed": self.completed,
            "duration_seconds": round(self.duration_seconds, 4),
            "p50_ms": round(self.p50_seconds * 1000, 3),
            "p99_ms": round(self.p99_seconds * 1000, 3),
            "naive_p50_ms": round(self.naive_p50_seconds * 1000, 3),
            "naive_p99_ms": round(self.naive_p99_seconds * 1000, 3),
            "shed_rate": round(self.shed_rate, 4),
            "error_rate": round(self.error_rate, 4),
            "degraded_rate": round(self.degraded_rate, 4),
            "goodput_qps": round(self.goodput_qps, 3),
            "per_tenant": self.per_tenant,
            "slo_healthy": bool(self.slo.get("healthy", False)),
        }


def poisson_schedule(
    mixes: Sequence[WorkloadMix],
    target_qps: float,
    duration: float,
    seed: int = 0,
) -> List[ScheduledQuery]:
    """Precompute a Poisson arrival schedule over the workload mixes.

    Deterministic given ``seed``: interarrival gaps are exponential at
    ``target_qps``, each arrival draws its mix proportionally to
    ``share`` and its ``k`` uniformly from the mix's choices.

    Raises:
        ValueError: on a non-positive rate/duration or empty mixes.
    """
    if target_qps <= 0:
        raise ValueError(f"target_qps must be positive, got {target_qps}")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if not mixes:
        raise ValueError("at least one WorkloadMix is required")
    rng = random.Random(seed)
    shares = [m.share for m in mixes]
    schedule: List[ScheduledQuery] = []
    t = rng.expovariate(target_qps)
    while t < duration:
        mix = rng.choices(list(mixes), weights=shares, k=1)[0]
        k = rng.choice(mix.k_choices)
        schedule.append(
            ScheduledQuery(
                intended=t,
                tenant=mix.tenant,
                request=QueryRequest(
                    dataset=mix.dataset, k=k, timeout=mix.timeout
                ),
            )
        )
        t += rng.expovariate(target_qps)
    return schedule


def fire_schedule(
    submit: SubmitFn,
    schedule: Sequence[ScheduledQuery],
    clock: ClockFn = time.perf_counter,
    sleep: SleepFn = time.sleep,
    wait_timeout: float = 60.0,
) -> List[LoadSample]:
    """Drive a precomputed schedule open-loop; returns all samples.

    The driver submits each query at its intended offset (sleeping only
    *forward* — when it falls behind it submits immediately and the
    samples record the slip), then waits up to ``wait_timeout`` seconds
    for stragglers.  Latencies are measured from the intended send time.

    A query whose submit raises (closed engine, policy violation) yields
    an ``"error"`` sample immediately rather than aborting the run.
    """
    samples: List[LoadSample] = []
    lock = threading.Lock()
    outstanding = threading.Semaphore(0)
    submitted = 0
    t0 = clock()

    def _record(
        scheduled: ScheduledQuery, actual: float, fut: "Future[QueryResponse]"
    ) -> None:
        done = clock() - t0
        try:
            response: Optional[QueryResponse] = fut.result()
            status = response.status if response is not None else "error"
        except (BRSError, RuntimeError) as exc:
            response = None
            status = "error"
            del exc
        sample = LoadSample(
            tenant=scheduled.tenant,
            intended=scheduled.intended,
            actual=actual,
            latency=max(0.0, done - scheduled.intended),
            service_latency=max(0.0, done - actual),
            status=status,
            response=response,
        )
        with lock:
            samples.append(sample)
        outstanding.release()

    for scheduled in schedule:
        now = clock() - t0
        if scheduled.intended > now:
            sleep(scheduled.intended - now)
        actual = clock() - t0
        try:
            future = submit(scheduled.request, scheduled.tenant)
        except (BRSError, RuntimeError) as exc:
            done = clock() - t0
            with lock:
                samples.append(
                    LoadSample(
                        tenant=scheduled.tenant,
                        intended=scheduled.intended,
                        actual=actual,
                        latency=max(0.0, done - scheduled.intended),
                        service_latency=max(0.0, done - actual),
                        status="error",
                        response=None,
                    )
                )
            del exc
            continue
        submitted += 1
        future.add_done_callback(
            lambda fut, s=scheduled, a=actual: _record(s, a, fut)
        )

    deadline = clock() + wait_timeout
    for _ in range(submitted):
        remaining = deadline - clock()
        if remaining <= 0 or not outstanding.acquire(timeout=remaining):
            break
    with lock:
        return list(samples)


def summarize(
    samples: Sequence[LoadSample],
    target_qps: float,
    offered: int,
    slo_tier: str = "interactive",
    duration: float = 0.0,
) -> LoadReport:
    """Aggregate samples into a :class:`LoadReport` (SLO verdict included).

    ``duration`` is the offered window the samples were scheduled over;
    goodput divides by it, or by the measured span when that is longer,
    so a run whose arrivals bunch early cannot report more than it was
    offered.
    """
    tracker = SLOTracker(
        objective_for(slo_tier), window=max(1, len(samples))
    )
    for sample in samples:
        tracker.record(sample.status, sample.latency)
    served = [s for s in samples if s.status in ("ok", "degraded")]
    latencies = [s.latency for s in served]
    naive = [s.service_latency for s in served]
    completed = len(samples)
    end = max((s.intended + s.latency for s in samples), default=0.0)
    start = min((s.intended for s in samples), default=0.0)
    wall = max(end - start, duration, 1e-9)
    per_tenant: Dict[str, Dict[str, float]] = {}
    for tenant in sorted({s.tenant for s in samples}):
        mine = [s for s in samples if s.tenant == tenant]
        mine_served = [s.latency for s in mine if s.status in ("ok", "degraded")]
        per_tenant[tenant] = {
            "count": float(len(mine)),
            "p50_ms": round(percentile(mine_served, 0.50) * 1000, 3),
            "p99_ms": round(percentile(mine_served, 0.99) * 1000, 3),
            "shed_rate": round(
                sum(1 for s in mine if s.status == "rejected") / len(mine), 4
            )
            if mine
            else 0.0,
        }
    return LoadReport(
        target_qps=target_qps,
        offered=offered,
        completed=completed,
        duration_seconds=wall,
        p50_seconds=percentile(latencies, 0.50),
        p99_seconds=percentile(latencies, 0.99),
        naive_p50_seconds=percentile(naive, 0.50),
        naive_p99_seconds=percentile(naive, 0.99),
        shed_rate=(
            sum(1 for s in samples if s.status == "rejected") / completed
            if completed
            else 0.0
        ),
        error_rate=(
            sum(1 for s in samples if s.status == "error") / completed
            if completed
            else 0.0
        ),
        degraded_rate=(
            sum(1 for s in samples if s.status == "degraded") / completed
            if completed
            else 0.0
        ),
        goodput_qps=len(served) / wall,
        per_tenant=per_tenant,
        slo=tracker.snapshot(),
        samples=list(samples),
    )


def run_load(
    submit: SubmitFn,
    mixes: Sequence[WorkloadMix],
    target_qps: float,
    duration: float,
    seed: int = 0,
    slo_tier: str = "interactive",
    clock: ClockFn = time.perf_counter,
    sleep: SleepFn = time.sleep,
    wait_timeout: float = 60.0,
) -> LoadReport:
    """One open-loop run: schedule, fire, summarize.

    See :func:`poisson_schedule` and :func:`fire_schedule` for the
    pieces; this is the composition the sweep and the tests call.
    """
    schedule = poisson_schedule(mixes, target_qps, duration, seed=seed)
    samples = fire_schedule(
        submit, schedule, clock=clock, sleep=sleep, wait_timeout=wait_timeout
    )
    return summarize(
        samples, target_qps=target_qps, offered=len(schedule),
        slo_tier=slo_tier, duration=duration,
    )


def saturation_sweep(
    make_submit: Callable[[], Tuple[SubmitFn, Callable[[], None]]],
    mixes: Sequence[WorkloadMix],
    qps_points: Sequence[float],
    duration: float,
    seed: int = 0,
    slo_tier: str = "interactive",
) -> List[LoadReport]:
    """Run one open-loop load point per target QPS, coldest first.

    ``make_submit`` builds a fresh target per point — ``(submit fn,
    close fn)`` — so points do not share caches, SLO windows, or queue
    backlog and the curve is a function of offered load alone.
    """
    reports: List[LoadReport] = []
    for i, qps in enumerate(qps_points):
        submit, close = make_submit()
        try:
            reports.append(
                run_load(
                    submit,
                    mixes,
                    target_qps=qps,
                    duration=duration,
                    seed=seed + i,
                    slo_tier=slo_tier,
                )
            )
        finally:
            close()
    return reports
