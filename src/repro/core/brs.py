"""High-level entry points for best-region search.

:func:`solve` is the one degradation ladder every caller shares —
:func:`best_region`, :class:`~repro.core.session.ExplorationSession` and
the serve tier's :class:`~repro.serve.solvecore.QuerySolver`.  It starts
at the requested rung of exact → cover → grid:

* **exact** — SliceBRS through
  :func:`~repro.columnar.solvers.columnar_best_region`: the vectorized
  kernel for SUM and coverage scores (influence included), a counted
  object-path fallback for every other score function;
* **cover** — CoverBRS, a certified constant-factor approximation
  (Theorem 4 for ``c = 1/3``);
* **grid** — :func:`~repro.core.gridscan.coarse_grid_scan`, near-linear
  and anytime.

Under an execution budget each non-final rung gets
:data:`LADDER_FRACTION` of what is left, and each later rung inherits the
remainder, so a deadline yields the best answer *some* rung could finish,
never an exception.

:func:`best_region` also owns input validation: malformed queries fail
fast with :class:`~repro.runtime.errors.InvalidQueryError` before any
search work.
"""

from __future__ import annotations

import math
from typing import Any, Optional, Sequence

from repro.core.coverbrs import CoverBRS
from repro.core.gridscan import coarse_grid_scan
from repro.core.naive import NaiveBRS
from repro.core.result import BRSResult, merge_anytime
from repro.functions.base import SetFunction
from repro.geometry.point import Point
from repro.index.quadtree import Quadtree
from repro.obs.metrics import active_registry
from repro.obs.trace import active_tracer
from repro.runtime.budget import Budget, effective_budget
from repro.runtime.errors import InvalidQueryError

#: ``"columnar"`` is kept as another name for ``"slice"``: both select the
#: one exact rung.
_METHODS = ("slice", "cover", "naive", "columnar")

#: Full-quality rung: one exact solve.
RUNG_EXACT = "exact"
#: First fallback rung: a certified cover approximation.
RUNG_COVER = "cover"
#: Last rung: the coarse grid scan.
RUNG_GRID = "grid"
#: All rungs, best quality first (the order the ladder walks).
RUNGS = (RUNG_EXACT, RUNG_COVER, RUNG_GRID)

#: Fraction of the remaining budget each non-final ladder rung may spend.
LADDER_FRACTION = 0.6


def _validate_query(points: Sequence[Point], a: float, b: float) -> None:
    """Reject malformed instances before any search work starts.

    Raises:
        InvalidQueryError: on an empty dataset, a non-positive or
            non-finite rectangle, or non-finite coordinates.
    """
    if not points:
        raise InvalidQueryError("BRS requires at least one spatial object")
    if not (a > 0 and b > 0 and math.isfinite(a) and math.isfinite(b)):
        raise InvalidQueryError(
            f"query rectangle must have positive finite size, got {a} x {b}"
        )
    for obj_id, p in enumerate(points):
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            raise InvalidQueryError(
                f"object {obj_id} has non-finite coordinates {p}"
            )


def solve(
    points: Sequence[Point],
    f: SetFunction,
    a: float,
    b: float,
    *,
    rung: str = RUNG_EXACT,
    budget: Optional[Budget] = None,
    theta: float = 1.0,
    c: float = 1.0 / 3.0,
    quadtree: Optional[Quadtree] = None,
    columns: Any = None,
) -> BRSResult:
    """Answer one query on the ladder, starting at ``rung``.

    Without a budget (or with an unlimited one) the starting rung runs to
    completion and its answer comes back as is.  Under a budget each
    non-final rung gets :data:`LADDER_FRACTION` of what is left, a
    non-final rung is skipped when the budget has already expired, and
    the answers are folded with
    :func:`~repro.core.result.merge_anytime`.  The walk stops at the first
    rung that completes.

    Args:
        points: object locations; object ids are positions here.
        f: submodular monotone score over those ids.
        a: query-rectangle height.
        b: query-rectangle width.
        rung: where to start: :data:`RUNG_EXACT`, :data:`RUNG_COVER` or
            :data:`RUNG_GRID`.
        budget: optional execution budget (falls back to the ambient
            :func:`~repro.runtime.budget.budget_scope`).
        theta: slice width as a multiple of ``b``.
        c: cover parameter of the cover rung.
        quadtree: a pre-built index over ``points`` the cover rung reuses.
        columns: pre-built columns of the same objects, in a form
            :func:`~repro.columnar.dataset.as_columnar` accepts (a served
            entry with cached columns); the exact rung sweeps them instead
            of transposing ``points``.

    Returns:
        The merged answer.  ``rung`` names the rung whose region it is.
        ``status`` is ``"ok"`` when the starting rung completed,
        ``"degraded"`` when a later rung did, ``"timeout"`` otherwise.
        Every answer but a completed exact one carries an
        ``upper_bound`` (``f`` of all objects when no rung supplied one).

    Raises:
        InvalidQueryError: on an unknown rung, or an invalid instance or
            parameter (raised by the rung that meets it).
    """
    if rung not in RUNGS:
        raise InvalidQueryError(f"unknown ladder rung {rung!r}")
    budget = effective_budget(budget)
    tracer = active_tracer()
    registry = active_registry()
    result: Optional[BRSResult] = None
    with tracer.span("ladder.solve", rung=rung, n_objects=len(points)):
        for step in RUNGS[RUNGS.index(rung):]:
            final = step == RUNG_GRID
            if budget is not None and not final and budget.expired():
                tracer.event("ladder.skip", rung=step)
                continue
            best = result.score if result is not None else 0.0
            tracer.event("ladder.rung", rung=step, best_so_far=best)
            if step != rung and registry.enabled:
                registry.counter(
                    "brs_ladder_fallbacks_total",
                    help="degradation-ladder fallbacks taken (rungs after the first)",
                ).inc()
            sub = None
            if budget is not None:
                share = 1.0 if final else LADDER_FRACTION
                sub = budget.sub(time_fraction=share, eval_fraction=share)
            if step == RUNG_EXACT:
                # Resolved per call: repro.columnar imports repro.core at
                # load time.
                from repro.columnar.solvers import columnar_best_region

                answer = columnar_best_region(
                    points if columns is None else columns, f, a, b,
                    theta=theta, budget=sub,
                )
            elif step == RUNG_COVER:
                answer = CoverBRS(c=c, theta=theta).solve(
                    points, f, a, b, quadtree=quadtree, budget=sub
                )
            else:
                answer = coarse_grid_scan(
                    points, f, a, b, budget=sub, initial_best=best
                )
            answer.rung = step
            # The grid scan's complete answer is "degraded" by contract.
            done = answer.status == ("degraded" if final else "ok")
            if result is None:
                result = answer
            else:
                result = merge_anytime(
                    result, answer, status="degraded" if done else "timeout"
                )
            if done:
                break
    assert result is not None  # the grid rung always runs
    if result.upper_bound is None and not (
        result.rung == RUNG_EXACT and result.status == "ok"
    ):
        result.upper_bound = max(result.score, f.value(range(len(points))))
    if registry.enabled and result.status != "ok":
        registry.counter(
            "brs_degraded_results_total",
            help="ladder answers returned with a non-ok status",
        ).inc()
    return result


def best_region(
    points: Sequence[Point],
    f: SetFunction,
    a: float,
    b: float,
    method: str = "slice",
    theta: float = 1.0,
    c: Optional[float] = None,
    budget: Optional[Budget] = None,
) -> BRSResult:
    """Find the best ``a x b`` region for the score function ``f``.

    This is the one-call API for common use; power users instantiate
    :class:`~repro.core.slicebrs.SliceBRS` or
    :class:`~repro.core.coverbrs.CoverBRS` directly (e.g. to reuse a
    quadtree across exploratory queries).

    Args:
        points: object locations; object ids are positions in this sequence.
        f: submodular monotone aggregate score function.
        a: query-rectangle height.
        b: query-rectangle width.
        method: ``"slice"`` (exact SliceBRS: the vectorized kernel of
            :mod:`repro.columnar` for SUM and coverage scores, object-path
            SliceBRS for any other function), ``"cover"`` (approximate
            CoverBRS), or ``"naive"`` (brute force; tiny instances only).
            ``"columnar"`` is accepted as another name for ``"slice"``.
        theta: slice width as a multiple of ``b`` (ignored by ``"naive"``).
        c: cover parameter of the cover rung; defaults to 1/3 (the
            paper's CoverBRS4, a 1/4-approximation).
        budget: optional execution budget (falls back to the ambient
            :func:`~repro.runtime.budget.budget_scope`).  With a budget the
            call *never runs unbounded*: every method but ``"naive"`` walks
            the :func:`solve` ladder from its rung, and on expiry an anytime
            result with ``status`` ``"degraded"``/``"timeout"`` and a sound
            optimality gap comes back instead of an exception.

    Raises:
        InvalidQueryError: on an unknown method or an invalid instance
            (empty dataset, non-finite coordinates, bad rectangle or
            parameters).
    """
    if method not in _METHODS:
        raise InvalidQueryError(
            f"unknown method {method!r}; expected one of {_METHODS}"
        )
    _validate_query(points, a, b)
    if method == "naive":
        return NaiveBRS().solve(points, f, a, b, budget=budget)
    return solve(
        points, f, a, b,
        rung=RUNG_COVER if method == "cover" else RUNG_EXACT,
        budget=budget, theta=theta, c=1.0 / 3.0 if c is None else c,
    )
