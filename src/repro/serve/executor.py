"""The serving engine: admission → cache → dedup → batch → exact solve.

:class:`ServeEngine` is the in-process core the HTTP front end wraps.  A
submitted request flows through the pipeline stages in order:

1. **Resolve + normalize** — the dataset id is resolved against the
   :class:`~repro.serve.store.DatasetStore`, ``k*q`` sizing is applied,
   and the request becomes a :class:`~repro.serve.model.CacheKey`.
2. **Cache** — a hit returns immediately (envelope marked ``cached``).
3. **Dedup** — an identical in-flight query absorbs the request; N
   concurrent identical queries cost one solve.
4. **Admission** — a bounded count of open queries; overload yields an
   explicit ``"rejected"`` response instead of an unbounded queue.
5. **Batching** — a dispatcher thread collects queries admitted within
   one batch window and groups compatible ones (same dataset, version,
   function, rectangle size); each group shares one dataset resolve and
   one worker dispatch.
6. **Execution** — a worker pool runs each query of a group as one exact
   solve (:class:`~repro.serve.solvecore.QuerySolver`) under its
   :class:`~repro.runtime.budget.Budget` deadline; on expiry the answer
   degrades (anytime best-so-far, then a coarse grid scan) instead of
   overrunning.

Results that honored the exact contract are written back to the
:class:`~repro.serve.cache.ResultCache`; degraded answers never are.
Everything is instrumented through ``repro.obs`` (request latency
histogram, queue-depth gauge, batch-size histogram, solver-invocation
counters, per-query spans).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Dict, List, Optional

from repro.obs.metrics import (
    MetricsRegistry,
    histogram_quantile,
    metrics_scope,
)
from repro.obs.export import to_prometheus_text
from repro.obs.slo import SLOTracker, objective_for
from repro.obs.trace import TraceContext, Tracer, active_tracer, trace_scope
from repro.runtime.budget import Budget
from repro.runtime.errors import AdmissionRejectedError, BRSError, InvalidQueryError
from repro.serve.admission import AdmissionController
from repro.serve.cache import ResultCache
from repro.serve.model import CacheKey, QueryRequest, QueryResponse
from repro.serve.planner import BatchPlanner, PlannedQuery
from repro.serve.solvecore import QuerySolver, error_response
from repro.serve.store import DatasetStore, ServedDataset

#: Fine-grained latency buckets for request latency (cache hits are ~µs).
_LATENCY_BUCKETS = (
    0.00001, 0.0001, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0
)


class ServeEngine:
    """Batched, cached, deadline-aware query execution over a dataset store.

    Args:
        store: the datasets this engine answers queries for.
        cache: result cache to consult and fill; a fresh bounded LRU is
            created when omitted.
        workers: worker threads executing planned batches.
        queue_capacity: maximum open (admitted, unanswered) queries;
            arrivals beyond it are rejected (backpressure).
        batch_window: seconds the dispatcher waits after a wake-up so
            concurrent arrivals can share a batch.
        theta: slice-width multiple handed to the exact solver.
        default_timeout: per-request deadline applied when a request does
            not carry its own (``None`` = unlimited).
        backend: ``"thread"`` (default) solves in the worker thread;
            ``"process"`` routes unfocused queries on datasets of
            at least ``process_threshold`` objects through the
            multiprocessing shard backend
            (:func:`repro.parallel.solve_partitioned`) — the right choice
            for large same-size batches, where the per-query solve is
            CPU-bound long enough to amortize pool bootstrap.
        process_workers: pool size for the ``"process"`` backend.
        process_threshold: minimum object count before the ``"process"``
            backend engages (smaller instances stay on the thread path,
            where pool bootstrap would dominate).
        registry: metrics registry all pipeline stages publish into; a
            private one is created when omitted (read it via
            :attr:`registry`).
        tracer: span tracer for per-request/per-batch spans; defaults to
            the ambient tracer at construction time.
        slo_tier: quality tier whose :class:`~repro.obs.slo.SLObjective`
            this engine is judged against (see
            :data:`~repro.obs.slo.DEFAULT_OBJECTIVES`).
        slo_window: sliding-window size of the SLO tracker.
    """

    def __init__(
        self,
        store: DatasetStore,
        cache: Optional[ResultCache] = None,
        workers: int = 2,
        queue_capacity: int = 64,
        batch_window: float = 0.005,
        theta: float = 1.0,
        default_timeout: Optional[float] = None,
        backend: str = "thread",
        process_workers: int = 2,
        process_threshold: int = 10_000,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        slo_tier: str = "interactive",
        slo_window: int = 1024,
    ) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if batch_window < 0:
            raise ValueError(f"batch_window cannot be negative, got {batch_window}")
        self.store = store
        self.cache = cache if cache is not None else ResultCache()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._tracer = tracer if tracer is not None else active_tracer()
        self._slo = SLOTracker(objective_for(slo_tier), window=slo_window)
        self._planner = BatchPlanner()
        self._admission = AdmissionController(queue_capacity)
        self._solver = QuerySolver(
            theta=theta,
            backend=backend,
            process_workers=process_workers,
            process_threshold=process_threshold,
        )
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="brs-serve"
        )
        self._batch_window = batch_window
        self._default_timeout = default_timeout
        self._wake = threading.Event()
        self._closed = False
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="brs-serve-dispatch", daemon=True
        )
        self._dispatcher.start()

    # -- public API ------------------------------------------------------

    def submit(
        self,
        request: QueryRequest,
        trace: Optional[TraceContext] = None,
    ) -> "Future[QueryResponse]":
        """Admit a request; the future resolves to its response.

        Cache hits resolve immediately; duplicates of an in-flight query
        share its future; overload resolves to a ``"rejected"`` response.

        Args:
            request: the query.
            trace: optional trace context of the caller (the HTTP front
                end forwards the ``X-BRS-Trace`` header here); the solve's
                ``serve.query`` span is parented under it.

        Raises:
            InvalidQueryError: on a malformed request or unknown dataset
                (synchronous failures — nothing was admitted).
            RuntimeError: when the engine is closed.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        request = request.validated()
        start = time.perf_counter()
        with metrics_scope(self.registry):
            self.registry.counter(
                "brs_serve_requests_total", help="queries received"
            ).inc()
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
                self._admission.admit()
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
            self._wake.set()
            return planned.future

    def query(
        self,
        request: QueryRequest,
        timeout: Optional[float] = None,
        trace: Optional[TraceContext] = None,
    ) -> QueryResponse:
        """Synchronous :meth:`submit`: block until the response is ready.

        Args:
            request: the query.
            timeout: seconds to wait for the *future* (a safety net around
                the whole pipeline, distinct from the request's deadline).
            trace: optional caller trace context (see :meth:`submit`).
        """
        return self.submit(request, trace=trace).result(timeout=timeout)

    def invalidate(self, dataset_id: str) -> int:
        """Bump a dataset's version and purge its cache entries.

        Returns the new version.  In-flight solves against the old version
        finish normally but are no longer cached or reachable.
        """
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
        return {
            "cache": self.cache.stats.to_json(),
            "queue": {
                "open": self._admission.open_count,
                "capacity": self._admission.capacity,
                "inflight": self._planner.inflight_count(),
            },
            "latency": latency,
            "slo": self._slo.snapshot(),
            "datasets": self.store.describe(),
        }

    def slo_snapshot(self) -> Dict[str, Any]:
        """Live SLO state, with the SLO gauges freshly published.

        Backs ``GET /debug/slo`` and the health probe's verdict.
        """
        return self._slo.publish(self.registry)

    def prometheus_text(self) -> str:
        """The registry's Prometheus exposition, SLO gauges included."""
        self._slo.publish(self.registry)
        return to_prometheus_text(self.registry)

    @property
    def tracer(self) -> Tracer:
        """The tracer this engine records spans into."""
        return self._tracer

    def close(self) -> None:
        """Stop the dispatcher and workers; fail leftover queries cleanly."""
        if self._closed:
            return
        self._closed = True
        self._wake.set()
        self._dispatcher.join(timeout=5.0)
        for group in self._planner.drain():
            for planned in group:
                self._fail(planned, "server shutting down")
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ServeEngine":
        """Context-manager entry: the engine itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()

    # -- pipeline internals ----------------------------------------------

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

    def _dispatch_loop(self) -> None:
        """Collect admitted queries into compatibility groups and dispatch."""
        while not self._closed:
            self._wake.wait(timeout=0.1)
            if self._closed:
                break
            if not self._wake.is_set():
                continue
            self._wake.clear()
            if self._batch_window > 0:
                time.sleep(self._batch_window)
            for group in self._planner.drain():
                self._pool.submit(self._run_group, group)

    def _run_group(self, group: List[PlannedQuery]) -> None:
        """Execute one compatibility group: one resolve, per-spec solves."""
        with metrics_scope(self.registry), trace_scope(self._tracer):
            key = group[0].key
            try:
                entry = self.store.resolve(key.dataset)
            except InvalidQueryError as exc:
                for planned in group:
                    self._fail(planned, str(exc))
                return
            self.registry.counter(
                "brs_serve_batches_total", help="compatibility groups executed"
            ).inc()
            self.registry.histogram(
                "brs_serve_batch_size",
                help="distinct queries per executed group",
                buckets=(1, 2, 4, 8, 16, 32, 64),
            ).observe(len(group))
            with self._tracer.span(
                "serve.batch", dataset=key.dataset, a=key.a, b=key.b, size=len(group)
            ):
                for planned in group:
                    self._run_spec(planned, entry, len(group))

    def _run_spec(
        self,
        planned: PlannedQuery,
        entry: ServedDataset,
        batch_size: int,
    ) -> None:
        """Solve one distinct query and resolve every request riding on it."""
        key = planned.key
        start = time.perf_counter()
        try:
            self.registry.counter(
                "brs_serve_spec_solves_total",
                help="distinct normalized queries executed (after dedup)",
            ).inc()
            if planned.trace is not None:
                # Parent the solve under the requester's span (the HTTP
                # front end's server.request, or any caller-held span),
                # not the ambient serve.batch — so the request's trace
                # reads client → server → query → solver in one tree.
                span = self._tracer.span(
                    "serve.query", parent_id=planned.trace.parent_span_id,
                    trace_id=planned.trace.trace_id,
                    dataset=key.dataset, a=key.a, b=key.b,
                    focused=key.focus is not None,
                )
            else:
                span = self._tracer.span(
                    "serve.query", dataset=key.dataset, a=key.a, b=key.b,
                    focused=key.focus is not None,
                )
            with span:
                response = self._solver.solve(key, entry, planned.budget)
        except BRSError as exc:
            response = self._error_response(key, f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # pragma: no cover - defensive catch-all
            response = self._error_response(key, f"{type(exc).__name__}: {exc}")
        response = response.with_envelope(
            seconds=time.perf_counter() - start, batch_size=batch_size
        )
        if response.status == "degraded":
            self.registry.counter(
                "brs_serve_degraded_total",
                help="queries answered with a degraded (anytime) result",
            ).inc()
        current = self.store.resolve(key.dataset)
        if (
            response.status == "ok"
            and current.version == key.version
            # An ingest flip mid-solve means this answer was computed
            # against an older snapshot; caching it would dodge the
            # regional invalidation that already ran.
            and current.mutation_seq == entry.mutation_seq
        ):
            self.cache.put(key, response)
        if not planned.future.done():
            planned.future.set_result(response)
        self._planner.finish(planned)
        self._publish_inflight()
        if planned.admitted:
            self._admission.release()

    def _fail(self, planned: PlannedQuery, message: str) -> None:
        if not planned.future.done():
            planned.future.set_result(self._error_response(planned.key, message))
        self._planner.finish(planned)
        self._publish_inflight()
        if planned.admitted:
            self._admission.release()

    @staticmethod
    def _error_response(key: CacheKey, message: str) -> QueryResponse:
        return error_response(key, message)
