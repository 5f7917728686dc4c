"""The solving core the serve engine executes queries through.

:class:`QuerySolver` is the part of serving that has nothing to do with
threads or event loops: given a normalized
:class:`~repro.serve.model.CacheKey`, a resolved
:class:`~repro.serve.store.ServedDataset`, and a
:class:`~repro.runtime.budget.Budget`, produce a
:class:`~repro.serve.model.QueryResponse`.  The engine
(:class:`~repro.serve.aio.engine.AsyncServeEngine`) dispatches each
distinct query on its own worker slot as one :meth:`QuerySolver.solve`
call.

Each query is one call to the shared degradation ladder
(:func:`repro.core.brs.solve`) over the focus-restricted candidates,
starting at a *rung* the serve tier picks, so it can shed load by answer
quality, not just by deadline:

* :data:`RUNG_EXACT` — one exact solve through
  :func:`~repro.columnar.solvers.columnar_best_region`: the vectorized
  SliceBRS kernel for SUM, coverage and influence scores (on the entry's
  cached columns when unfocused), object-path SliceBRS for any other
  score function.  Under a
  deadline it gets the ladder's share of the budget and falls to the
  cover and grid rungs with the remainder.
* :data:`RUNG_COVER` — CoverBRS(c=1/3); the paper's 1/4 guarantee
  certifies ``optimum <= score / guarantee``, so the degraded response
  still carries a sound quality bound.
* :data:`RUNG_GRID` — the coarse grid scan; ``f`` of all candidates caps
  the optimum.

Every non-exact answer returns ``status="degraded"`` with a non-``None``
``upper_bound`` — the invariant the saturation tests assert: a shed
answer is never an unbounded guess.

Metrics are published through the *ambient* registry
(:func:`repro.obs.metrics.active_registry`), so the engine that wraps
the call in its own ``metrics_scope`` owns the counters.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core import brs
from repro.core.brs import RUNG_COVER, RUNG_EXACT, RUNG_GRID, RUNGS
from repro.core.siri import objects_in_region
from repro.functions.base import SetFunction
from repro.functions.reduced import reduce_over_cover
from repro.geometry.point import Point
from repro.obs.metrics import active_registry
from repro.runtime.budget import Budget
from repro.runtime.errors import InvalidQueryError
from repro.serve.model import (
    CacheKey,
    QueryRequest,
    QueryResponse,
    normalize_query,
)
from repro.serve.store import ServedDataset

#: ``QueryResponse.solver_status`` of an answer shed to each rung.
_SHED_STATUS = {RUNG_COVER: "cover", RUNG_GRID: "gridscan"}


class QuerySolver:
    """Execute normalized queries over served datasets at a chosen rung.

    Stateless apart from its configuration — safe to share between
    worker threads and engines.

    Args:
        theta: slice-width multiple handed to the exact solver.
    """

    def __init__(self, theta: float = 1.0) -> None:
        self.theta = theta

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
        """Solve one normalized query, starting the ladder at ``rung``.

        The exact rung answers ``status="ok"`` unless its budget runs
        out; the shedding rungs answer ``status="degraded"``.  Every
        non-exact answer carries an ``upper_bound`` that soundly caps the
        optimum.

        Raises:
            InvalidQueryError: on an unknown rung.
            BRSError: solver-level failures propagate to the engine's
                error envelope.
        """
        if rung not in RUNGS:
            raise InvalidQueryError(f"unknown ladder rung {rung!r}")
        points, fn = entry.points, entry.fn

        # Apply the focus restriction once, remapping to a local id space.
        if key.focus is None:
            cand_ids: Optional[List[int]] = None
            cand_points: Sequence[Point] = points
            cand_fn: SetFunction = fn
        else:
            cand_ids = entry.columns().ids_in_rect(*key.focus).tolist()
            if not cand_ids:
                # Submit rejects an empty window; an ingest flip emptied
                # this one since.  Nothing scores above f of no objects.
                return _empty_response(key, fn)
            cand_points = [points[i] for i in cand_ids]
            cand_fn = reduce_over_cover(fn, [[i] for i in cand_ids])

        registry = active_registry()
        if rung == RUNG_EXACT:
            registry.counter(
                "brs_serve_exact_solves_total",
                help="queries dispatched at the exact rung, one ladder call each",
            ).inc()
        elif rung == RUNG_COVER:
            registry.counter(
                "brs_serve_shed_cover_total",
                help="queries answered on the cover shedding rung",
            ).inc()
        else:
            registry.counter(
                "brs_serve_shed_grid_total",
                help="queries answered on the grid shedding rung",
            ).inc()
        # Unfocused, the entry itself goes in as the exact rung's columns,
        # so the kernel sweeps its cached columns instead of transposing
        # the points per query.
        result = brs.solve(
            cand_points, cand_fn, key.a, key.b, rung=rung, budget=budget,
            theta=self.theta,
            columns=entry if cand_ids is None else cand_points,
        )
        if rung == RUNG_EXACT:
            solver_status = result.status
        else:
            solver_status = _SHED_STATUS[result.rung]
        return self._response(
            key, result.point, result.score, cand_points, cand_fn, cand_ids,
            solver_status=solver_status, upper_bound=result.upper_bound,
            external_ids=entry.external_ids,
        )

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
