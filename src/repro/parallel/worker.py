"""Worker-process side of the multiprocessing shard-solve backend.

Everything here runs inside pool workers and must be importable at module
top level so both the ``fork`` and ``spawn`` start methods can find it.
A pool is bootstrapped once per solve: :func:`init_worker` receives one
:class:`WorkerPayload` (the object set, a picklable function spec, the
rectangle, and a seed base) through the executor's initializer, rebuilds
the score function locally, and parks everything in module globals.
Tasks then only carry the per-shard bits — object ids, the current
incumbent, the remaining-budget slice, and an optional injected fault —
so the per-task pickle cost stays O(shard), not O(dataset).

Each worker seeds its own :class:`random.Random` from the payload's seed
base mixed with the pool-assigned worker ordinal, so any stochastic
component stays reproducible per worker without touching the hidden
module-global RNG state.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from random import Random
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.columnar.dataset import ColumnarDataset
from repro.columnar.solvers import columnar_best_region
from repro.core.stats import SearchStats
from repro.functions.base import SetFunction
from repro.functions.reduced import reduce_over_cover
from repro.geometry.point import Point
from repro.obs.metrics import MetricsRegistry, counter_delta, metrics_scope
from repro.obs.trace import Tracer, trace_scope
from repro.parallel.spec import FunctionSpec
from repro.runtime.budget import Budget
from repro.runtime.errors import WorkerFailureError


@dataclass(frozen=True)
class WorkerPayload:
    """Everything a pool worker needs exactly once, via the initializer.

    Attributes:
        points: the full object set (shards index into it), or ``None``
            when :attr:`coords` carries the locations instead.
        spec: picklable descriptor the worker rebuilds the function from.
        a: query-rectangle height.
        b: query-rectangle width.
        theta: slice-width multiple for the shard solver.
        seed_base: mixed with the worker ordinal to seed the per-worker RNG.
        coords: optional ``(xs, ys)`` float64 array pair replacing
            :attr:`points` — two contiguous buffers pickle far cheaper
            than a tuple of Point objects under ``spawn``, and workers
            build only each shard's own columns.
    """

    points: Optional[Tuple[Point, ...]]
    spec: FunctionSpec
    a: float
    b: float
    theta: float
    seed_base: int = 0
    coords: Optional[Tuple[Any, Any]] = None


@dataclass(frozen=True)
class ShardTask:
    """One unit of work: solve a shard against the current incumbent.

    Attributes:
        shard_index: position of the shard in the plan (stable across
            retries; used for bookkeeping and fault targeting).
        object_ids: dataset-global ids of the shard's members.
        incumbent: best globally-known achievable score at dispatch time;
            the shard solver prunes against it from the first slab.
        deadline: remaining wall-clock seconds of the caller's budget at
            dispatch time (``None`` = unlimited).
        max_evals: score-evaluation slice granted to this task
            (``None`` = unlimited).
        fault: injected fault mode for this attempt (``None``, ``"raise"``,
            ``"crash"``, or ``"stall"``) — test machinery, threaded through
            the real dispatch path so the failure handling is exercised
            end to end.
        trace: when True the worker records its solve spans into a local
            buffer and ships them back on the outcome, so the parent can
            graft them under its ``parallel.shard`` span (set from the
            dispatching tracer's ``enabled`` flag).
    """

    shard_index: int
    object_ids: Tuple[int, ...]
    incumbent: float
    deadline: Optional[float] = None
    max_evals: Optional[int] = None
    fault: Optional[str] = None
    trace: bool = False


@dataclass
class ShardOutcome:
    """What a worker ships back after solving (or abandoning) a shard.

    Attributes:
        shard_index: which shard this answers.
        worker_id: OS pid of the worker process (span annotation).
        worker_ordinal: pool-assigned worker number (1-based).
        score: best score found on the shard's sub-instance (already
            compared against the dispatched incumbent; ``-inf`` means the
            shard found nothing better).
        x, y: center of the shard's best region (NaN when not improving).
        status: ``"ok"`` or ``"timeout"`` (anytime answer).
        upper_bound: sound cap on the shard's true optimum when the solve
            did not run to completion, else ``None``.
        evals: score evaluations the task charged to its budget slice.
        seconds: worker-side wall time of the solve.
        stats: the shard solve's :class:`SearchStats`.
        metrics: counter deltas from the worker-local registry, merged
            into the caller's ambient registry by the parent.
        trace_events: the worker-local trace buffer (raw event dicts,
            meta header included) when the task asked for tracing, else
            ``None``; the parent stitches it into its own trace with
            :meth:`repro.obs.trace.Tracer.graft`.
    """

    shard_index: int
    worker_id: int
    worker_ordinal: int
    score: float
    x: float
    y: float
    status: str
    upper_bound: Optional[float]
    evals: int
    seconds: float
    stats: SearchStats = field(default_factory=SearchStats)
    metrics: Dict[str, float] = field(default_factory=dict)
    trace_events: Optional[List[Dict[str, Any]]] = None


#: Per-process worker state installed by :func:`init_worker`.
_STATE: Dict[str, object] = {}


def _worker_ordinal() -> int:
    """The pool-assigned worker number (1-based; 0 when not in a pool)."""
    identity: Tuple[int, ...] = getattr(
        multiprocessing.current_process(), "_identity", ()
    )
    return identity[0] if identity else 0


def init_worker(payload: WorkerPayload) -> None:
    """Pool initializer: rebuild the instance once per worker process."""
    _STATE["points"] = payload.points
    _STATE["coords"] = payload.coords
    _STATE["fn"] = payload.spec.build()
    _STATE["a"] = payload.a
    _STATE["b"] = payload.b
    _STATE["theta"] = payload.theta
    _STATE["rng"] = Random(payload.seed_base * 100003 + _worker_ordinal())
    _STATE["ordinal"] = _worker_ordinal()


def worker_rng() -> Random:
    """The per-worker seeded RNG (for stochastic shard strategies)."""
    rng = _STATE.get("rng")
    if rng is None:
        raise WorkerFailureError("worker not initialized; no RNG available")
    return rng  # type: ignore[return-value]


def _inject(fault: Optional[str], deadline: Optional[float]) -> None:
    """Apply an injected fault before the solve starts.

    ``"raise"`` surfaces as a :class:`WorkerFailureError` through the
    future (the pool survives); ``"crash"`` hard-exits the process (the
    pool breaks, exercising the rebuild path); ``"stall"`` sleeps past
    the task deadline so the solve returns a timeout outcome.
    """
    if fault is None:
        return
    if fault == "raise":
        raise WorkerFailureError(
            f"injected worker failure in pid {os.getpid()}"
        )
    if fault == "crash":
        os._exit(17)
    if fault == "stall":
        time.sleep((deadline or 0.01) * 1.5)
        return
    raise WorkerFailureError(f"unknown injected fault mode {fault!r}")


def solve_shard(task: ShardTask) -> ShardOutcome:
    """Solve one shard in a bootstrapped worker; always returns an outcome.

    The solve runs under a worker-local metrics registry so solver
    counters can be shipped back as deltas, and under a :class:`Budget`
    rebuilt from the remaining-deadline slice the parent measured at
    dispatch time — anytime semantics survive the process boundary
    because an expiring slice yields a ``"timeout"`` outcome with a
    sound ``upper_bound`` instead of an exception.

    Raises:
        WorkerFailureError: when the worker was never initialized or an
            injected ``"raise"`` fault fires (the parent requeues the
            shard with capped retries).
    """
    if _STATE.get("points") is None and _STATE.get("coords") is None:
        raise WorkerFailureError(
            f"worker pid {os.getpid()} has no bootstrapped instance"
        )
    started = time.perf_counter()
    _inject(task.fault, task.deadline)

    fn: SetFunction = _STATE["fn"]  # type: ignore[assignment]
    a: float = _STATE["a"]  # type: ignore[assignment]
    b: float = _STATE["b"]  # type: ignore[assignment]
    theta: float = _STATE["theta"]  # type: ignore[assignment]

    coords = _STATE.get("coords")
    sub_data: Any
    if coords is not None:
        # Columnar bootstrap: the shard's own columns, no Points.
        xs, ys = coords
        ids = np.asarray(task.object_ids, dtype=np.int64)
        sub_data = ColumnarDataset(xs[ids], ys[ids])
    else:
        points: Sequence[Point] = _STATE["points"]  # type: ignore[assignment]
        sub_data = [points[i] for i in task.object_ids]
    sub_f = reduce_over_cover(fn, [[i] for i in task.object_ids])
    budget = (
        Budget(deadline=task.deadline, max_evals=task.max_evals)
        if task.deadline is not None or task.max_evals is not None
        else None
    )

    registry = MetricsRegistry()
    trace_buffer: Optional[List[Dict[str, Any]]] = (
        [] if task.trace else None
    )
    tracer = Tracer(trace_buffer) if trace_buffer is not None else None
    with metrics_scope(registry), trace_scope(tracer):
        result = columnar_best_region(
            sub_data, sub_f, a, b, theta=theta,
            initial_best=task.incumbent, budget=budget,
        )

    if result.score <= task.incumbent:
        score, x, y = -math.inf, math.nan, math.nan
    else:
        score, x, y = result.score, result.point.x, result.point.y
    return ShardOutcome(
        shard_index=task.shard_index,
        worker_id=os.getpid(),
        worker_ordinal=int(_STATE.get("ordinal", 0)),  # type: ignore[arg-type]
        score=score,
        x=x,
        y=y,
        status=result.status,
        upper_bound=result.upper_bound,
        evals=budget.evals if budget is not None else 0,
        seconds=time.perf_counter() - started,
        stats=result.stats,
        metrics=counter_delta({}, registry.snapshot()),
        trace_events=trace_buffer,
    )
