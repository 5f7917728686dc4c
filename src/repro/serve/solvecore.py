"""The solving core the serve engine executes queries through.

:class:`QuerySolver` is the part of serving that has nothing to do with
threads or event loops: given a normalized
:class:`~repro.serve.model.CacheKey`, a resolved
:class:`~repro.serve.store.ServedDataset`, and a
:class:`~repro.runtime.budget.Budget`, produce a
:class:`~repro.serve.model.QueryResponse`.  The engine
(:class:`~repro.serve.aio.engine.AsyncServeEngine`) dispatches
compatible queries (same dataset, version, function and rectangle size)
as one group; a group shares one dataset resolve and one dispatch slot,
and each of its queries is one :meth:`QuerySolver.solve` call.

The solver exposes the runtime ladder as explicit *rungs* so a serve
tier can shed load by answer quality, not just by deadline:

* :data:`RUNG_EXACT` — one exact solve of the focus-restricted candidates
  through :func:`~repro.columnar.solvers.columnar_best_region`: the
  vectorized SliceBRS kernel for SUM scores, object-path SliceBRS for
  coverage and influence.  SliceBRS's own best-first slice and slab order
  does the pruning, so no incumbent pass or x-window split precedes it.
  On budget expiry the anytime answer is merged with a grid scan and the
  tighter of the two sound upper bounds is reported.
* :data:`RUNG_COVER` — one CoverBRS(c=1/3) pass; the (1-c)-style cover
  guarantee certifies ``optimum <= score / guarantee``, so the degraded
  response still carries a sound quality bound.
* :data:`RUNG_GRID` — one coarse grid scan; ``f`` of all candidates caps
  the optimum.

Every non-exact rung returns ``status="degraded"`` with a non-``None``
``upper_bound`` — the invariant the saturation tests assert: a shed
answer is never an unbounded guess.

Metrics are published through the *ambient* registry
(:func:`repro.obs.metrics.active_registry`), so the engine that wraps
the call in its own ``metrics_scope`` owns the counters.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.columnar.solvers import columnar_best_region
from repro.core.coverbrs import CoverBRS
from repro.core.gridscan import coarse_grid_scan
from repro.core.result import BRSResult
from repro.core.siri import objects_in_region
from repro.functions.base import SetFunction
from repro.functions.reduced import reduce_over_cover
from repro.geometry.point import Point
from repro.obs.metrics import active_registry
from repro.parallel.backend import solve_partitioned
from repro.runtime.budget import Budget, BudgetExceededError
from repro.runtime.errors import InvalidQueryError
from repro.serve.model import (
    CacheKey,
    QueryRequest,
    QueryResponse,
    normalize_query,
)
from repro.serve.store import ServedDataset

#: Full-quality rung: one exact solve per query.
RUNG_EXACT = "exact"
#: First shedding rung: a certified cover approximation.
RUNG_COVER = "cover"
#: Last shedding rung: the coarse grid scan.
RUNG_GRID = "grid"

#: All rungs, best quality first (the pressure ladder walks this order).
RUNGS = (RUNG_EXACT, RUNG_COVER, RUNG_GRID)

#: Cover parameter the shedding rung uses (the paper's CoverBRS4).
_SHED_COVER_C = 1.0 / 3.0


class QuerySolver:
    """Execute normalized queries over served datasets at a chosen rung.

    Stateless apart from its configuration — safe to share between
    worker threads and engines.

    Args:
        theta: slice-width multiple handed to the exact solver.
        backend: ``"thread"`` solves in the calling thread; ``"process"``
            routes large unfocused queries through the multiprocessing
            shard backend (:func:`repro.parallel.solve_partitioned` with
            its default window count).
        process_workers: pool size for the ``"process"`` backend.
        process_threshold: minimum object count before the ``"process"``
            backend engages.

    Raises:
        ValueError: on an unknown backend or a non-positive pool size.
    """

    def __init__(
        self,
        theta: float = 1.0,
        backend: str = "thread",
        process_workers: int = 2,
        process_threshold: int = 10_000,
    ) -> None:
        if backend not in ("thread", "process"):
            raise ValueError(f"backend must be 'thread' or 'process', got {backend!r}")
        if process_workers <= 0:
            raise ValueError(
                f"process_workers must be positive, got {process_workers}"
            )
        self.theta = theta
        self.backend = backend
        self.process_workers = process_workers
        self.process_threshold = process_threshold

    # -- normalization ---------------------------------------------------

    @staticmethod
    def resolve_key(request: QueryRequest, entry: ServedDataset) -> CacheKey:
        """Normalize a validated request against its resolved entry.

        Both engines call this at submit, so a client error surfaces there
        as :class:`InvalidQueryError` (HTTP 400) before anything is queued
        or recorded against the SLO.

        Raises:
            InvalidQueryError: on a request carrying neither an explicit
                rectangle nor a ``k`` scale (``validated()`` rejects
                these, but the contract is restated here for callers
                normalizing un-validated requests), or on a focus window
                that holds no objects.
        """
        if request.a is not None and request.b is not None:
            a, b = float(request.a), float(request.b)
        elif request.k is not None:
            a, b = entry.resolve_size(request.k, request.aspect)
        else:
            raise InvalidQueryError("request needs a rectangle: a/b or k")
        key = normalize_query(
            entry.id, entry.version, entry.fn_key, a, b, request.focus
        )
        if key.focus is not None and entry.columns().count_in_rect(*key.focus) == 0:
            raise InvalidQueryError("focus region contains no objects")
        return key

    # -- solving ---------------------------------------------------------

    def solve(
        self,
        key: CacheKey,
        entry: ServedDataset,
        budget: Optional[Budget] = None,
        rung: str = RUNG_EXACT,
    ) -> QueryResponse:
        """Solve one normalized query at ``rung`` quality.

        The exact rung degrades on budget expiry (anytime answer merged
        with a grid scan); the shedding rungs return ``status="degraded"``
        answers.  Every non-exact answer carries an ``upper_bound`` that
        soundly caps the optimum.

        Raises:
            InvalidQueryError: on an unknown rung.
            BRSError: solver-level failures propagate to the engine's
                error envelope.
        """
        if rung not in RUNGS:
            raise InvalidQueryError(f"unknown ladder rung {rung!r}")
        points, fn = entry.points, entry.fn

        if (
            rung == RUNG_EXACT
            and self.backend == "process"
            and key.focus is None
            and len(points) >= self.process_threshold
        ):
            routed = self._process_solve(key, entry, budget)
            if routed is not None:
                return routed
            # Unshippable function: fall through to the thread path.

        # Apply the focus restriction once, remapping to a local id space.
        if key.focus is None:
            cand_ids: Optional[List[int]] = None
            cand_points: Sequence[Point] = points
            cand_fn: SetFunction = fn
        else:
            cand_ids = list(_in_focus(points, key.focus))
            if not cand_ids:
                # Submit rejects an empty window; an ingest flip emptied
                # this one since.  Nothing scores above f of no objects.
                return _empty_response(key, fn)
            cand_points = [points[i] for i in cand_ids]
            cand_fn = reduce_over_cover(fn, [[i] for i in cand_ids])

        a, b = key.a, key.b
        if rung == RUNG_COVER:
            return self._cover_shed(
                key, entry, cand_points, cand_fn, cand_ids, a, b, budget
            )
        if rung == RUNG_GRID:
            grid = self._grid_fallback(cand_points, cand_fn, a, b, budget, 0.0)
            active_registry().counter(
                "brs_serve_shed_grid_total",
                help="queries answered on the grid shedding rung",
            ).inc()
            return self._response(
                key, grid.point, grid.score, cand_points, cand_fn, cand_ids,
                solver_status="gridscan",
                upper_bound=grid.upper_bound
                if grid.upper_bound is not None
                else cand_fn.value(range(len(cand_points))),
                external_ids=entry.external_ids,
            )

        if budget is not None and budget.expired():
            # Past-deadline on arrival (or the queue ate the deadline):
            # skip the exact solve and return the cheapest anytime answer
            # immediately.
            grid = self._grid_fallback(cand_points, cand_fn, a, b, budget, 0.0)
            return self._response(
                key, grid.point, grid.score, cand_points, cand_fn, cand_ids,
                solver_status=grid.status, upper_bound=grid.upper_bound,
                external_ids=entry.external_ids,
            )

        active_registry().counter(
            "brs_serve_exact_solves_total",
            help="exact-rung solves, one per query",
        ).inc()
        # Unfocused, the entry itself goes in, so a SUM score sweeps its
        # cached columns instead of transposing the points per query.
        exact = columnar_best_region(
            entry if cand_ids is None else cand_points, cand_fn, a, b,
            theta=self.theta, budget=budget,
        )
        if exact.status == "ok":
            return self._response(
                key, exact.point, exact.score, cand_points, cand_fn, cand_ids,
                solver_status="ok", upper_bound=None,
                external_ids=entry.external_ids,
            )

        grid = self._grid_fallback(cand_points, cand_fn, a, b, budget, exact.score)
        best = grid if grid.score > exact.score else exact
        # Both bounds cap the same optimum; keep the tighter one.
        upper = exact.upper_bound
        if upper is None:
            upper = cand_fn.value(range(len(cand_points)))
        if grid.upper_bound is not None:
            upper = min(upper, grid.upper_bound)
        return self._response(
            key, best.point, best.score, cand_points, cand_fn, cand_ids,
            solver_status="degraded" if grid.status == "degraded" else "timeout",
            upper_bound=max(upper, best.score),
            external_ids=entry.external_ids,
        )

    # -- rungs -----------------------------------------------------------

    def _cover_shed(
        self,
        key: CacheKey,
        entry: ServedDataset,
        cand_points: Sequence[Point],
        cand_fn: SetFunction,
        cand_ids: Optional[List[int]],
        a: float,
        b: float,
        budget: Optional[Budget],
    ) -> QueryResponse:
        """The cover rung: one certified approximate pass, never exact."""
        solver = CoverBRS(c=_SHED_COVER_C, theta=self.theta)
        try:
            res = solver.solve(cand_points, cand_fn, a, b, budget=budget)
        except BudgetExceededError:
            grid = self._grid_fallback(cand_points, cand_fn, a, b, budget, 0.0)
            return self._response(
                key, grid.point, grid.score, cand_points, cand_fn, cand_ids,
                solver_status="gridscan",
                upper_bound=grid.upper_bound
                if grid.upper_bound is not None
                else cand_fn.value(range(len(cand_points))),
                external_ids=entry.external_ids,
            )
        upper = res.upper_bound
        if upper is None:
            # A zero-score cover answer carries no multiplicative bound;
            # f over every candidate still soundly caps the optimum.
            upper = cand_fn.value(range(len(cand_points)))
        active_registry().counter(
            "brs_serve_shed_cover_total",
            help="queries answered on the cover shedding rung",
        ).inc()
        return self._response(
            key, res.point, res.score, cand_points, cand_fn, cand_ids,
            solver_status="cover", upper_bound=upper,
            external_ids=entry.external_ids,
        )

    def _process_solve(
        self,
        key: CacheKey,
        entry: ServedDataset,
        budget: Optional[Budget],
    ) -> Optional[QueryResponse]:
        """Route one unfocused query through the multiprocessing backend.

        Returns ``None`` when the dataset's function cannot cross a
        process boundary, so the caller falls back to the in-thread exact
        solve instead of failing the query.
        """
        try:
            result = solve_partitioned(
                entry.points, entry.fn, key.a, key.b, theta=self.theta,
                workers=self.process_workers, budget=budget,
            )
        except InvalidQueryError:
            return None
        active_registry().counter(
            "brs_serve_process_solves_total",
            help="queries executed on the multiprocessing shard backend",
        ).inc()
        return self._response(
            key, result.point, result.score, entry.points, entry.fn, None,
            solver_status=result.status, upper_bound=result.upper_bound,
            external_ids=entry.external_ids,
        )

    @staticmethod
    def _grid_fallback(
        cand_points: Sequence[Point],
        cand_fn: SetFunction,
        a: float,
        b: float,
        budget: Optional[Budget],
        initial_best: float,
    ) -> BRSResult:
        """Last-rung anytime answer; never raises on an expired budget."""
        try:
            return coarse_grid_scan(
                cand_points, cand_fn, a, b,
                budget=budget.sub() if budget is not None else None,
                initial_best=initial_best,
            )
        except BudgetExceededError:  # pragma: no cover - defensive
            return coarse_grid_scan(cand_points, cand_fn, a, b, budget=None,
                                    initial_best=initial_best)

    def _response(
        self,
        key: CacheKey,
        best_point: Optional[Point],
        best_score: float,
        cand_points: Sequence[Point],
        cand_fn: SetFunction,
        cand_ids: Optional[List[int]],
        solver_status: str,
        upper_bound: Optional[float],
        external_ids: Optional[Sequence[int]] = None,
    ) -> QueryResponse:
        """Assemble the response, re-evaluating the region globally.

        ``external_ids`` (present on ingest snapshots) maps dataset
        positions to stable object ids, so reported ids stay comparable
        across the compaction every mutation flip performs.
        """
        if best_point is None:
            best_point = cand_points[0]
        member_local = objects_in_region(cand_points, best_point, key.a, key.b)
        score = cand_fn.value(member_local)
        if upper_bound is not None:
            upper_bound = max(upper_bound, score)
        if cand_ids is None:
            global_ids = sorted(member_local)
        else:
            global_ids = sorted(cand_ids[l] for l in member_local)
        if external_ids is not None:
            global_ids = sorted(external_ids[g] for g in global_ids)
        return QueryResponse(
            status="ok" if solver_status == "ok" else "degraded",
            dataset=key.dataset,
            version=key.version,
            a=key.a,
            b=key.b,
            center=(best_point.x, best_point.y),
            score=score,
            object_ids=tuple(global_ids),
            solver_status=solver_status,
            upper_bound=upper_bound,
        )


def error_response(key: CacheKey, message: str) -> QueryResponse:
    """The shared error envelope for a normalized query."""
    return QueryResponse(
        status="error",
        dataset=key.dataset,
        version=key.version,
        a=key.a,
        b=key.b,
        error=message,
    )


def _in_focus(
    points: Sequence[Point], focus: Tuple[float, float, float, float]
) -> Iterator[int]:
    """Positions of the objects strictly inside ``focus``, in order."""
    x_min, x_max, y_min, y_max = focus
    return (
        i for i, p in enumerate(points)
        if x_min < p.x < x_max and y_min < p.y < y_max
    )


def _empty_response(key: CacheKey, fn: SetFunction) -> QueryResponse:
    """The exact answer over a focus window that holds no objects."""
    assert key.focus is not None
    x_min, x_max, y_min, y_max = key.focus
    return QueryResponse(
        status="ok",
        dataset=key.dataset,
        version=key.version,
        a=key.a,
        b=key.b,
        center=((x_min + x_max) / 2.0, (y_min + y_max) / 2.0),
        score=fn.value(()),
        solver_status="ok",
    )
