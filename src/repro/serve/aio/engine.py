"""The serving engine: admission, cache, dedup, fair queueing, solve.

:class:`AsyncServeEngine` is the in-process core every front end wraps
(the HTTP server, the load generator, the self-check).  A submitted
request flows through these stages in order:

1. **Resolve + normalize.**  The dataset id is resolved against the
   :class:`~repro.serve.store.DatasetStore`, ``k*q`` sizing is applied,
   and the request becomes a :class:`~repro.serve.model.CacheKey`.
2. **Cache.**  A hit returns at once (envelope marked ``cached``).
3. **Dedup.**  An identical in-flight query absorbs the request
   (:class:`~repro.serve.planner.BatchPlanner`); N concurrent identical
   queries cost one solve.
4. **Tenancy.**  Requests carry a tenant id (the ``X-BRS-Tenant``
   header); a :class:`~repro.serve.tenancy.TenantRegistry` resolves it
   to a weight, an admission quota, and a dataset allow list, and
   :class:`~repro.serve.tenancy.TenantAdmission` enforces the quota and
   the engine's open-query capacity *before* any queueing — overflow is
   an explicit ``"rejected"`` response, never an unbounded queue.
5. **Weighted-fair scheduling.**  Admitted queries enter a
   :class:`~repro.serve.fairqueue.WeightedFairQueue`; the scheduler task
   pops it in finish-tag order, one query per free worker slot, so a
   flooding tenant delays a polite one by at most the bounded bypass of
   start-time fair queueing.
6. **Pressure-driven shedding.**  A :class:`~repro.serve.pressure.PressureMonitor`
   watches what each scheduling cycle leaves queued and the SLO
   error-budget burn, and selects the runtime-ladder rung (exact →
   cover → grid) for the cycle's queries — answers get cheaper before
   deadlines start missing, and every shed answer still carries a
   certified quality bound (see :mod:`repro.serve.solvecore`).
7. **Execution.**  Each dispatched query is one call to the shared
   degradation ladder (:class:`~repro.serve.solvecore.QuerySolver`) under
   its :class:`~repro.runtime.budget.Budget` deadline; on expiry the
   answer falls to the cover and grid rungs instead of overrunning.
   Exact answers are written back to the
   :class:`~repro.serve.cache.ResultCache`; degraded ones never are.

Solves are CPU-bound, so they run on a worker thread pool via
``run_in_executor``; the event loop only routes, queues, and awaits.
The engine can be embedded two ways: natively (``await engine.start()``
on a running loop) or from synchronous code via
:meth:`AsyncServeEngine.start_background` (or the ``with`` statement),
which runs a private loop on a daemon thread and exposes the
thread-safe :meth:`submit_threadsafe` / :meth:`query`.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.export import to_prometheus_text
from repro.obs.metrics import MetricsRegistry, histogram_quantile, metrics_scope
from repro.obs.slo import SLOTracker, objective_for
from repro.obs.trace import TraceContext, Tracer, active_tracer, trace_scope
from repro.runtime.budget import Budget
from repro.runtime.errors import (
    AdmissionRejectedError,
    BRSError,
    InvalidQueryError,
)
from repro.serve.cache import ResultCache
from repro.serve.model import QueryRequest, QueryResponse
from repro.serve.planner import BatchPlanner, PlannedQuery
from repro.serve.fairqueue import WeightedFairQueue
from repro.serve.pressure import PressureMonitor, PressurePolicy
from repro.serve.solvecore import QuerySolver, error_response
from repro.serve.store import DatasetStore
from repro.serve.tenancy import TenantAdmission, TenantRegistry

#: Request latency buckets, a 1-2-5 series from 10 µs (cache hits) to
#: 30 s.  Adjacent bounds differ by at most 2.5x, which caps how far
#: ``histogram_quantile``'s linear interpolation inside one bucket can
#: stray from the true quantile.
_LATENCY_BUCKETS = (
    0.00001, 0.00002, 0.00005,
    0.0001, 0.0002, 0.0005,
    0.001, 0.002, 0.005,
    0.01, 0.02, 0.05,
    0.1, 0.2, 0.5,
    1.0, 2.0, 5.0,
    10.0, 20.0, 30.0,
)


class AsyncServeEngine:
    """Tenant-aware, pressure-shedding query execution on an event loop.

    Args:
        store: the datasets this engine answers queries for.
        cache: result cache to consult and fill; fresh LRU when omitted.
        tenants: tenant policy registry; a permissive default registry
            (every id gets default weight/quota) when omitted.
        workers: solver threads (solves are CPU-bound and leave the loop).
        queue_capacity: global open-query ceiling; per-tenant quotas
            apply underneath it.
        theta: slice-width multiple handed to the exact solver.
        default_timeout: per-request deadline when none is given.
        pressure: shedding policy thresholds; defaults apply when omitted.
        registry: metrics registry; private one when omitted.
        tracer: span tracer; ambient tracer at construction when omitted.
        slo_tier / slo_window: SLO objective and sliding-window size.

    Raises:
        ValueError: on non-positive workers or capacity.
    """

    def __init__(
        self,
        store: DatasetStore,
        cache: Optional[ResultCache] = None,
        tenants: Optional[TenantRegistry] = None,
        workers: int = 2,
        queue_capacity: int = 64,
        theta: float = 1.0,
        default_timeout: Optional[float] = None,
        pressure: Optional[PressurePolicy] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        slo_tier: str = "interactive",
        slo_window: int = 1024,
    ) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.store = store
        self.cache = cache if cache is not None else ResultCache()
        self.tenants = tenants if tenants is not None else TenantRegistry()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._tracer = tracer if tracer is not None else active_tracer()
        self._slo = SLOTracker(objective_for(slo_tier), window=slo_window)
        self._planner = BatchPlanner()
        self._admission = TenantAdmission(self.tenants, capacity=queue_capacity)
        self._queue = WeightedFairQueue(self.tenants.weights())
        self._pressure = PressureMonitor(pressure)
        self._solver = QuerySolver(theta=theta)
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="brs-aio-serve"
        )
        self._capacity = queue_capacity
        # Dispatch throttle: once this many queries are in the worker
        # pool, further arrivals stay in the fair queue — where the
        # pressure monitor can see them.  Without it the scheduler would
        # shovel the backlog into the pool's invisible work queue and
        # pressure (hence the shedding ladder) would never engage.
        self._max_inflight = workers + 2
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._default_timeout = default_timeout
        self._closed = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake: Optional[asyncio.Event] = None
        self._scheduler_task: Optional["asyncio.Task[None]"] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> "AsyncServeEngine":
        """Bind to the running event loop and start the scheduler task."""
        if self._loop is not None:
            return self
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._scheduler_task = self._loop.create_task(self._scheduler())
        self._ready.set()
        return self

    def start_background(self) -> "AsyncServeEngine":
        """Run a private event loop on a daemon thread; returns self.

        The synchronous embedding path: callers then use
        :meth:`submit_threadsafe` / :meth:`query` from any thread.
        """
        if self._thread is not None or self._loop is not None:
            return self
        self._thread = threading.Thread(
            target=self._thread_main, name="brs-aio-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=5.0):  # pragma: no cover - defensive
            raise RuntimeError("async engine event loop failed to start")
        return self

    def _thread_main(self) -> None:
        loop = asyncio.new_event_loop()
        try:
            asyncio.set_event_loop(loop)
            loop.run_until_complete(self.start())
            loop.run_forever()
            # Drain callbacks scheduled during shutdown.
            loop.run_until_complete(asyncio.sleep(0))
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    def close(self) -> None:
        """Stop the scheduler, fail queued work, shut the pool down.

        Callable from any thread (including the loop's own shutdown
        path); idempotent.
        """
        if self._closed:
            return
        self._closed = True
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._stop_on_loop)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        while True:
            popped = self._queue.pop()
            if popped is None:
                break
            tenant, planned = popped
            self._fail(tenant, planned, "server shutting down")
        self._pool.shutdown(wait=True)

    async def aclose(self) -> None:
        """Async :meth:`close` for natively embedded engines."""
        self._closed = True
        if self._wake is not None:
            self._wake.set()
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
            try:
                await self._scheduler_task
            except asyncio.CancelledError:
                pass
            self._scheduler_task = None
        while True:
            popped = self._queue.pop()
            if popped is None:
                break
            tenant, planned = popped
            self._fail(tenant, planned, "server shutting down")
        self._pool.shutdown(wait=False)

    def _stop_on_loop(self) -> None:
        """Scheduled on the loop by :meth:`close`: cancel, await, stop."""
        assert self._loop is not None
        self._loop.create_task(self._shutdown_on_loop())

    async def _shutdown_on_loop(self) -> None:
        """Let the scheduler observe its cancellation, then stop the loop."""
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
            try:
                await self._scheduler_task
            except asyncio.CancelledError:
                pass
            self._scheduler_task = None
        assert self._loop is not None
        self._loop.stop()

    def __enter__(self) -> "AsyncServeEngine":
        """Context-manager entry: start the background loop."""
        return self.start_background()

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()

    async def __aenter__(self) -> "AsyncServeEngine":
        """Async context-manager entry: bind to the running loop."""
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        """Async context-manager exit: :meth:`aclose`."""
        await self.aclose()

    # -- public API ------------------------------------------------------

    async def submit(
        self,
        request: QueryRequest,
        tenant: Optional[str] = None,
        trace: Optional[TraceContext] = None,
    ) -> QueryResponse:
        """Admit, schedule, and await one query on the event loop.

        Args:
            request: the query.
            tenant: tenant id (the ``X-BRS-Tenant`` header value); the
                default tenant when omitted.
            trace: optional caller trace context; the solve's
                ``serve.query`` span is parented under it.

        Raises:
            InvalidQueryError: malformed request, unknown dataset, or a
                tenant allow-list violation (synchronous failures —
                nothing was admitted).
            RuntimeError: when the engine is closed.
        """
        return await asyncio.wrap_future(
            self.submit_threadsafe(request, tenant=tenant, trace=trace)
        )

    def submit_threadsafe(
        self,
        request: QueryRequest,
        tenant: Optional[str] = None,
        trace: Optional[TraceContext] = None,
    ) -> "Future[QueryResponse]":
        """Thread-safe :meth:`submit`: returns a concurrent future.

        The load generator and the differential harness call this from
        plain threads; the future resolves when the scheduled solve (or
        rejection) completes.

        Raises:
            InvalidQueryError: see :meth:`submit`.
            RuntimeError: when the engine is closed or never started.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        if self._loop is None:
            raise RuntimeError(
                "engine not started; call start() or start_background()"
            )
        request = request.validated()
        start = time.perf_counter()
        with metrics_scope(self.registry):
            self.registry.counter(
                "brs_serve_requests_total", help="queries received"
            ).inc()
            spec = self.tenants.authorize(tenant, request.dataset)
            entry = self.store.resolve(request.dataset)
            key = QuerySolver.resolve_key(request, entry)

            cached = self.cache.get(key)
            if cached is not None:
                future: "Future[QueryResponse]" = Future()
                future.set_result(cached.with_envelope(cached=True, seconds=0.0))
                self._observe_latency(start)
                self._slo.record("ok", time.perf_counter() - start)
                return future

            timeout = (
                request.timeout
                if request.timeout is not None
                else self._default_timeout
            )
            budget = Budget.of(timeout=timeout)
            planned, is_new = self._planner.submit(key, budget, trace=trace)
            planned.future.add_done_callback(
                lambda f: self._finish_request(start, f)
            )
            self._publish_inflight()
            if not is_new:
                self.registry.counter(
                    "brs_serve_dedup_joins_total",
                    help="requests absorbed by an identical in-flight query",
                ).inc()
                return planned.future

            try:
                self._admission.admit(spec.id)
            except AdmissionRejectedError as exc:
                self._planner.finish(planned)
                self._publish_inflight()
                if not planned.future.done():
                    planned.future.set_result(
                        QueryResponse(
                            status="rejected",
                            dataset=key.dataset,
                            version=key.version,
                            a=key.a,
                            b=key.b,
                            error=str(exc),
                        )
                    )
                return planned.future
            planned.admitted = True
            self._queue.push(spec.id, planned)
            self._publish_queue_depth()
            self._wake_scheduler()
            return planned.future

    def query(
        self,
        request: QueryRequest,
        tenant: Optional[str] = None,
        timeout: Optional[float] = None,
        trace: Optional[TraceContext] = None,
    ) -> QueryResponse:
        """Blocking :meth:`submit_threadsafe` (synchronous callers).

        Args:
            request: the query.
            tenant: tenant id; default tenant when omitted.
            timeout: seconds to wait for the *future* (safety net around
                the pipeline, distinct from the request's deadline).
            trace: optional caller trace context.
        """
        return self.submit_threadsafe(request, tenant=tenant, trace=trace).result(
            timeout=timeout
        )

    def invalidate(self, dataset_id: str) -> int:
        """Bump a dataset's version and purge its cache entries."""
        version = self.store.bump_version(dataset_id)
        self.cache.purge_dataset(dataset_id)
        return version

    def stats(self) -> Dict[str, Any]:
        """JSON-serializable operational snapshot (the stats endpoint)."""
        latency: Dict[str, float] = {}
        metric = self.registry.metrics().get("brs_serve_request_seconds")
        if metric is not None and getattr(metric, "count", 0):
            latency = {
                "count": metric.count,
                "p50_seconds": histogram_quantile(metric, 0.5),
                "p99_seconds": histogram_quantile(metric, 0.99),
            }
        fair = self._queue.stats()
        return {
            "cache": self.cache.stats.to_json(),
            "queue": {
                "open": self._admission.open_total,
                "capacity": self._capacity,
                "inflight": self._planner.inflight_count(),
                "fair_depth": fair.depth,
                "per_tenant_depth": fair.per_tenant,
                "virtual_time": fair.virtual_time,
            },
            "tenants": self._admission.stats(),
            "pressure": self._pressure.snapshot(),
            "latency": latency,
            "slo": self._slo.snapshot(),
            "datasets": self.store.describe(),
        }

    def slo_snapshot(self) -> Dict[str, Any]:
        """Live SLO state, with the SLO gauges freshly published."""
        return self._slo.publish(self.registry)

    def tenants_snapshot(self) -> Dict[str, Any]:
        """Registered tenant policies plus live admission counters."""
        return {
            "tenants": self.tenants.describe(),
            "admission": self._admission.stats(),
        }

    def pressure_snapshot(self) -> Dict[str, Any]:
        """The pressure monitor's state (level, rung, score, policy)."""
        return self._pressure.snapshot()

    def prometheus_text(self) -> str:
        """The registry's Prometheus exposition, SLO gauges included."""
        self._slo.publish(self.registry)
        return to_prometheus_text(self.registry)

    @property
    def tracer(self) -> Tracer:
        """The tracer this engine records spans into."""
        return self._tracer

    # -- scheduler -------------------------------------------------------

    def _wake_scheduler(self) -> None:
        """Wake the scheduler task: at once on the loop thread (the HTTP
        front end's submits and every completion), else through the
        loop's self-pipe."""
        loop, wake = self._loop, self._wake
        if loop is None or wake is None or not loop.is_running():
            return
        try:
            on_loop = asyncio.get_running_loop() is loop
        except RuntimeError:
            on_loop = False
        if on_loop:
            wake.set()
        else:
            loop.call_soon_threadsafe(wake.set)

    async def _scheduler(self) -> None:
        """Dispatch fair-queue arrivals as worker slots free up."""
        assert self._wake is not None
        while not self._closed:
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=0.1)
            except asyncio.TimeoutError:
                if len(self._queue) == 0:
                    continue
            if self._closed:
                break
            self._wake.clear()
            self._dispatch_cycle()

    def _dispatch_cycle(self) -> None:
        """One scheduling cycle: pop fairly, observe pressure, dispatch."""
        assert self._loop is not None
        with metrics_scope(self.registry):
            with self._inflight_lock:
                available = self._max_inflight - self._inflight
            taken: List[Tuple[str, PlannedQuery]] = []
            while len(taken) < available:
                popped = self._queue.pop()
                if popped is None:
                    break
                taken.append(popped)
            self._publish_queue_depth()
            # Backlog is what this cycle leaves queued: the queries just
            # popped go to idle workers, so they are not overload.
            backlog = len(self._queue)
            ratio = backlog / self._capacity if self._capacity else 0.0
            self._pressure.observe(ratio, self._slo.snapshot())
            rung = self._pressure.rung()
            for tenant, planned in taken:
                with self._inflight_lock:
                    self._inflight += 1
                future = self._loop.run_in_executor(
                    self._pool, self._run_spec, tenant, planned, rung
                )
                future.add_done_callback(self._query_done)

    def _query_done(self, _future: "asyncio.Future[None]") -> None:
        """A query left the pool: free its slot and re-run the scheduler."""
        with self._inflight_lock:
            self._inflight -= 1
        self._wake_scheduler()

    # -- execution (worker threads) --------------------------------------

    def _run_spec(self, tenant: str, planned: PlannedQuery, rung: str) -> None:
        """Solve one distinct query at ``rung``; resolve every request on it."""
        key = planned.key
        start = time.perf_counter()
        with metrics_scope(self.registry), trace_scope(self._tracer):
            try:
                entry = self.store.resolve(key.dataset)
            except InvalidQueryError as exc:
                self._fail(tenant, planned, str(exc))
                return
            self.registry.counter(
                "brs_serve_spec_solves_total",
                help="distinct normalized queries executed (after dedup)",
            ).inc()
            attrs = dict(
                dataset=key.dataset, a=key.a, b=key.b,
                focused=key.focus is not None,
            )
            if planned.trace is not None:
                # Parent the solve under the requester's span; untraced,
                # it is a root span on this worker thread.
                attrs.update(
                    parent_id=planned.trace.parent_span_id,
                    trace_id=planned.trace.trace_id,
                )
            try:
                with self._tracer.span("serve.query", **attrs):
                    response = self._solver.solve(
                        key, entry, budget=planned.budget, rung=rung
                    )
            except BRSError as exc:
                response = error_response(key, f"{type(exc).__name__}: {exc}")
            except Exception as exc:  # pragma: no cover - defensive catch-all
                response = error_response(key, f"{type(exc).__name__}: {exc}")
            response = response.with_envelope(seconds=time.perf_counter() - start)
            if response.status == "degraded":
                self.registry.counter(
                    "brs_serve_degraded_total",
                    help="queries answered with a degraded (anytime) result",
                ).inc()
            current = self.store.resolve(key.dataset)
            if (
                response.status == "ok"
                and current.version == key.version
                and current.mutation_seq == entry.mutation_seq
            ):
                self.cache.put(key, response)
            self._resolve(tenant, planned, response)

    def _fail(self, tenant: str, planned: PlannedQuery, message: str) -> None:
        self._resolve(tenant, planned, error_response(planned.key, message))

    def _resolve(
        self, tenant: str, planned: PlannedQuery, response: QueryResponse
    ) -> None:
        """Retire a query, then answer it.

        The in-flight table, its gauge and the tenant's admission slot are
        settled before the future resolves, so a client that has its
        answer never reads the query as still in flight.
        """
        self._planner.finish(planned)
        self._publish_inflight()
        if planned.admitted:
            self._admission.release(tenant)
        if not planned.future.done():
            planned.future.set_result(response)

    # -- bookkeeping -----------------------------------------------------

    def _observe_latency(self, start: float) -> None:
        self.registry.histogram(
            "brs_serve_request_seconds",
            help="request latency, admission to response (cache hits included)",
            buckets=_LATENCY_BUCKETS,
        ).observe(time.perf_counter() - start)

    def _finish_request(self, start: float, future: "Future[QueryResponse]") -> None:
        """Done-callback bookkeeping: latency histogram + SLO outcome."""
        self._observe_latency(start)
        try:
            status = future.result().status
        except Exception:  # pragma: no cover - futures resolve to responses
            status = "error"
        self._slo.record(status, time.perf_counter() - start)

    def _publish_inflight(self) -> None:
        self.registry.gauge(
            "brs_serve_inflight",
            help="distinct queries between submission and resolution",
        ).set(float(self._planner.inflight_count()))

    def _publish_queue_depth(self) -> None:
        self.registry.gauge(
            "brs_tenant_queue_depth",
            help="queries waiting in the weighted-fair queue",
        ).set(float(len(self._queue)))
