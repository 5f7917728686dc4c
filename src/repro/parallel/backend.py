"""Process-pool shard solves for partitioned best-region search.

:func:`solve_partitioned` fans the overlapping x-windows of
:func:`repro.core.partitioned.plan_shards` out across worker *processes*
(a :class:`~concurrent.futures.ProcessPoolExecutor`).  Without a pool
(``workers`` ≤ 1, or a plan of one window) it is one call to
:func:`repro.core.brs.solve`, the entry point every solve shares: the
exact kernel walks one best-first order over all slices, which cutting
the x-axis into windows gives up.

Execution model of the pool:

* **Bootstrap once per pool.**  Workers receive the coordinate columns
  and a picklable function spec through the pool initializer
  (:class:`~repro.parallel.worker.WorkerPayload`); tasks then only carry
  shard ids and scalars, so dispatch cost is O(shard), not O(dataset).
* **Incumbent sharing.**  Shards are dispatched widest-first, at most
  ``workers`` at a time, and every completed shard's score tightens the
  incumbent handed to the *next* dispatch, so later windows prune
  against the best answer found anywhere so far.
* **Budget propagation.**  Each task carries the remaining-deadline and
  a remaining-evals slice of the caller's :class:`~repro.runtime.budget.
  Budget`; workers rebuild a local budget from them, so anytime semantics
  and sound optimality gaps survive the process boundary.  Worker eval
  counts are charged back to the caller's budget on merge.
* **Failure handling.**  A worker raising (or an injected fault) requeues
  its shard on the surviving pool; a crashed worker breaks the pool,
  which is rebuilt with the same bootstrap.  Both paths are capped by
  ``max_retries`` per shard (and pool rebuilds overall).  Shards left
  over when those run out are answered by one :func:`repro.core.brs.solve`
  call on the whole instance under the budget left, so the answer stays
  exact whenever the budget allows.  Once the caller's budget has expired
  no further search runs: each leftover window contributes ``f`` of its
  objects to the upper bound, so the answer stays *sound* (score ≤
  reported upper bound).
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Deque, Dict, List, Mapping, Optional, Sequence

import multiprocessing

from repro.columnar.dataset import as_columnar
from repro.core.brs import _validate_query, solve
from repro.core.partitioned import Shard, plan_shards
from repro.core.result import BRSResult
from repro.core.siri import objects_in_region
from repro.core.stats import SearchStats
from repro.functions.base import SetFunction
from repro.geometry.point import Point
from repro.obs.metrics import active_registry
from repro.obs.trace import active_tracer
from repro.parallel.spec import function_spec
from repro.parallel.worker import ShardOutcome, ShardTask, WorkerPayload
from repro.parallel import worker as worker_mod
from repro.runtime.budget import Budget, effective_budget
from repro.runtime.errors import (
    BudgetExceededError,
    InvalidQueryError,
    WorkerFailureError,
)

#: Environment override for the pool start method (CI runs ``spawn``).
START_METHOD_ENV = "REPRO_BRS_START_METHOD"


def default_start_method() -> str:
    """The pool start method: env override, else ``fork`` where available.

    ``fork`` bootstraps in milliseconds on Linux; ``spawn`` (the only
    option on Windows, the default on macOS) re-imports the package per
    worker and is what the CI parallel job forces via
    :data:`START_METHOD_ENV` to keep both paths honest.
    """
    env = os.environ.get(START_METHOD_ENV)
    if env:
        return env
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class _SolveState:
    """Mutable merge state shared by the dispatch loop and the leftovers."""

    def __init__(self, n_objects: int) -> None:
        self.best_score = 0.0
        self.best_point: Optional[Point] = None
        self.timed_out = False
        #: Sound caps for shards not searched to completion.
        self.bounds: List[float] = []
        self.stats = SearchStats(n_objects=n_objects)

    def improve(self, score: float, point: Optional[Point]) -> None:
        """Adopt a better achievable answer."""
        if point is not None and score > self.best_score:
            self.best_score = score
            self.best_point = point


def solve_partitioned(
    points: Sequence[Point],
    f: SetFunction,
    a: float,
    b: float,
    n_parts: int = 4,
    theta: float = 1.0,
    workers: Optional[int] = None,
    budget: Optional[Budget] = None,
    start_method: Optional[str] = None,
    max_retries: int = 2,
    inject_faults: Optional[Mapping[int, Sequence[str]]] = None,
) -> BRSResult:
    """Solve BRS exactly, by overlapping x-windows across a process pool.

    With ``workers`` ≤ 1, or when the plan holds one window, this returns
    :func:`repro.core.brs.solve` on the whole instance unchanged: its
    status can be ``"ok"``, ``"degraded"`` or ``"timeout"``, and
    ``n_parts`` is unused.  Otherwise the windows are solved by a process
    pool as described in the module docstring.

    Args:
        points: object locations (ids are positions in this sequence).
        f: submodular monotone score function over those ids.
        a: query-rectangle height.
        b: query-rectangle width.
        n_parts: requested window count.
        theta: slice-width multiple for the window solvers.
        workers: process-pool size; ``None``/``0``/``1`` solves in one
            in-process call.
        budget: optional cooperative budget (falls back to the ambient
            scope).  On expiry the best-so-far answer is returned with a
            non-ok status and a sound ``upper_bound``.
        start_method: multiprocessing start method (``"fork"`` /
            ``"spawn"`` / ``"forkserver"``); defaults to
            :func:`default_start_method`.
        max_retries: per-shard requeues after a worker failure, and pool
            rebuilds after a crash, before the leftover windows are
            answered in-process.
        inject_faults: test-only fault schedule ``{shard_index: [mode,
            ...]}``; each dispatch of that shard consumes the next mode
            (``"raise"``, ``"crash"``, or ``"stall"``).

    Raises:
        InvalidQueryError: on an empty instance, non-finite coordinates,
            bad parameters, or a function that cannot cross the process
            boundary.
    """
    _validate_query(points, a, b)
    if n_parts <= 0:
        raise InvalidQueryError("n_parts must be positive")
    if max_retries < 0:
        raise InvalidQueryError(f"max_retries must be >= 0, got {max_retries}")
    n_workers = int(workers or 0)
    shards = plan_shards(points, b, n_parts) if n_workers > 1 else []
    if len(shards) <= 1:
        return solve(points, f, a, b, budget=budget, theta=theta)
    # Fail fast, before any pool starts, on functions that cannot ship.
    spec = function_spec(f)
    budget = effective_budget(budget)
    registry = active_registry()
    tracer = active_tracer()
    started = time.perf_counter()

    state = _SolveState(n_objects=len(points))
    with tracer.span(
        "parallel.solve",
        n_objects=len(points),
        n_shards=len(shards),
        workers=n_workers,
    ):
        leftovers = _run_pool(
            points, spec, f, a, b, theta, shards, state,
            workers=n_workers,
            budget=budget,
            start_method=start_method or default_start_method(),
            max_retries=max_retries,
            inject_faults=inject_faults,
        )
        if leftovers and (budget is None or not budget.expired()):
            # One exact call answers every leftover window at once.
            answer = solve(points, f, a, b, budget=budget, theta=theta)
            state.stats.merge(answer.stats)
            state.improve(answer.score, answer.point)
            if answer.status != "ok":
                state.timed_out = True
                state.bounds.append(answer.upper_bound)
        elif leftovers:
            # No time left to search: each window keeps its own cap.
            state.timed_out = True
            state.bounds.extend(f.value(s.object_ids) for s in leftovers)

    if state.best_point is None:
        state.best_point = points[0]
    object_ids = objects_in_region(points, state.best_point, a, b)
    score = f.value(object_ids)
    if registry.enabled:
        registry.counter(
            "brs_parallel_solves_total",
            help="partitioned solves driven by repro.parallel",
        ).inc()
        registry.histogram(
            "brs_parallel_solve_seconds",
            help="end-to-end partitioned solve wall time",
        ).observe(time.perf_counter() - started)
        registry.gauge(
            "brs_parallel_workers", help="pool size of the last parallel solve"
        ).set(float(n_workers))
    return BRSResult(
        point=state.best_point,
        score=score,
        object_ids=object_ids,
        a=a,
        b=b,
        stats=state.stats,
        status="ok" if not state.timed_out else "timeout",
        upper_bound=(
            None
            if not state.timed_out
            else max([score, state.best_score] + state.bounds)
        ),
    )


def _run_pool(
    points: Sequence[Point],
    spec: object,
    f: SetFunction,
    a: float,
    b: float,
    theta: float,
    shards: Sequence[Shard],
    state: _SolveState,
    workers: int,
    budget: Optional[Budget],
    start_method: str,
    max_retries: int,
    inject_faults: Optional[Mapping[int, Sequence[str]]],
) -> List[Shard]:
    """Dispatch shards over a (rebuildable) process pool.

    Returns the shards the pool did not answer (retry budget exhausted,
    or the caller's budget broke the loop); merge state for everything
    else lands in ``state``.
    """
    registry = active_registry()
    tracer = active_tracer()
    # Two contiguous float64 buffers pickle (and fork-share) far cheaper
    # than Point objects; workers slice out only their shard's columns.
    cds = as_columnar(points)
    payload = WorkerPayload(
        coords=(cds.xs, cds.ys), spec=spec, a=a, b=b, theta=theta
    )
    ctx = multiprocessing.get_context(start_method)
    faults: Dict[int, Deque[str]] = {
        idx: deque(modes) for idx, modes in (inject_faults or {}).items()
    }
    retries: Dict[int, int] = {}
    # Widest windows first: they take longest (best makespan) and their
    # scores tighten the incumbent for everything dispatched after them.
    pending: Deque[Shard] = deque(
        sorted(shards, key=lambda s: -len(s.object_ids))
    )
    leftovers: List[Shard] = []
    pool_rebuilds = 0

    def _next_task(shard: Shard) -> ShardTask:
        deadline: Optional[float] = None
        max_evals: Optional[int] = None
        if budget is not None:
            remaining = budget.remaining_time()
            if math.isfinite(remaining):
                deadline = max(1e-9, remaining)
            remaining_evals = budget.remaining_evals()
            if math.isfinite(remaining_evals):
                outstanding = max(1, len(pending) + 1)
                boost = 1 + retries.get(shard.index, 0)
                max_evals = max(1, int(remaining_evals // outstanding) * boost)
        fault_queue = faults.get(shard.index)
        fault = fault_queue.popleft() if fault_queue else None
        return ShardTask(
            shard_index=shard.index,
            object_ids=shard.object_ids,
            incumbent=state.best_score,
            deadline=deadline,
            max_evals=max_evals,
            fault=fault,
            trace=tracer.enabled,
        )

    def _requeue(shard: Shard, reason: str) -> None:
        """Requeue a failed/expired shard, or leave it to the final call."""
        retries[shard.index] = retries.get(shard.index, 0) + 1
        if retries[shard.index] <= max_retries:
            tracer.event("parallel.retry", shard=shard.index, reason=reason)
            if registry.enabled:
                registry.counter(
                    "brs_parallel_retries_total",
                    help="shard dispatches retried after a worker failure",
                ).inc()
            pending.append(shard)
        else:
            tracer.event(
                "parallel.serial_fallback", shard=shard.index, reason=reason
            )
            if registry.enabled:
                registry.counter(
                    "brs_parallel_serial_fallbacks_total",
                    help="shards whose retries ran out, left to one "
                         "in-process solve of the whole instance",
                ).inc()
            leftovers.append(shard)

    def _merge(shard: Shard, outcome: ShardOutcome) -> None:
        state.stats.merge(outcome.stats)
        if registry.enabled:
            registry.counter(
                "brs_parallel_shards_total",
                help="shard solves completed by pool workers",
            ).inc()
            registry.histogram(
                "brs_parallel_shard_seconds",
                help="worker-side wall time per shard solve",
            ).observe(outcome.seconds)
            for name, value in outcome.metrics.items():
                registry.counter(name).inc(value)
        # Stitch the worker-side spans into this trace under one
        # parallel.shard wrapper; an outcome without events (tracing off,
        # or an old worker) still gets the wrapper so the shard is
        # visible in the tree.
        tracer.graft(
            outcome.trace_events or [],
            "parallel.shard",
            shard=shard.index,
            worker=outcome.worker_id,
            ordinal=outcome.worker_ordinal,
            status=outcome.status,
            seconds=outcome.seconds,
        )
        if outcome.score > state.best_score and not math.isnan(outcome.x):
            state.improve(outcome.score, Point(outcome.x, outcome.y))
        if budget is not None and outcome.evals:
            try:
                budget.charge(outcome.evals)
            except BudgetExceededError:
                state.timed_out = True
        if outcome.status != "ok":
            # Deadline- or eval-blown worker: requeue while the caller's
            # budget still has room (a bigger slice may finish the job),
            # otherwise keep its sound anytime bound.
            if budget is not None and not budget.expired():
                _requeue(shard, f"shard status {outcome.status}")
            else:
                state.timed_out = True
                state.bounds.append(
                    outcome.upper_bound
                    if outcome.upper_bound is not None
                    else f.value(shard.object_ids)
                )

    while pending and pool_rebuilds <= max_retries:
        if budget is not None and budget.expired():
            break
        inflight: Dict["Future[ShardOutcome]", Shard] = {}
        try:
            with ProcessPoolExecutor(
                max_workers=min(workers, max(1, len(pending))),
                mp_context=ctx,
                initializer=worker_mod.init_worker,
                initargs=(payload,),
            ) as pool:
                while pending or inflight:
                    if budget is not None and budget.expired():
                        state.timed_out = True
                        break
                    while pending and len(inflight) < workers:
                        shard = pending.popleft()
                        inflight[
                            pool.submit(worker_mod.solve_shard, _next_task(shard))
                        ] = shard
                    done, _ = wait(
                        set(inflight), return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        shard = inflight.pop(future)
                        try:
                            outcome = future.result()
                        except BrokenProcessPool:
                            # Already popped: requeue before the outer
                            # handler sweeps the rest of the in-flight set.
                            _requeue(shard, "pool broken")
                            raise
                        except WorkerFailureError as exc:
                            if registry.enabled:
                                registry.counter(
                                    "brs_parallel_worker_failures_total",
                                    help="worker failures observed "
                                         "(raises and crashes)",
                                ).inc()
                            _requeue(shard, str(exc))
                            continue
                        _merge(shard, outcome)
                # Anything still inflight when the budget broke the loop
                # is abandoned; the executor exit cancels/collects it.
                for shard in inflight.values():
                    state.timed_out = True
                    state.bounds.append(f.value(shard.object_ids))
                inflight.clear()
        except BrokenProcessPool:
            # A worker died hard (crash fault, OOM kill): the whole pool
            # is unusable.  Requeue the in-flight shards and rebuild.
            pool_rebuilds += 1
            tracer.event("parallel.pool_broken", rebuilds=pool_rebuilds)
            if registry.enabled:
                registry.counter(
                    "brs_parallel_worker_failures_total",
                    help="worker failures observed (raises and crashes)",
                ).inc()
                registry.counter(
                    "brs_parallel_pool_rebuilds_total",
                    help="process pools rebuilt after a hard worker crash",
                ).inc()
            for shard in inflight.values():
                _requeue(shard, "pool broken")
            inflight.clear()

    # Retry/rebuild budget exhausted (or caller budget expired): the
    # caller answers whatever is left.
    leftovers.extend(pending)
    return leftovers
