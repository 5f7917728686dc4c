"""Columnar SliceBRS and MaxRS solvers built on the vectorized kernels.

Both solvers answer the same queries as their object-path counterparts
(:class:`repro.core.slicebrs.SliceBRS`, :func:`repro.core.maxrs.oe_maxrs`)
and return the same :class:`~repro.core.result.BRSResult` type, but spend
their inner loops inside NumPy instead of per-event Python:

* :func:`columnar_slicebrs` — slicing, ScanSlab, and SearchMR as array
  sweeps, with the same best-first bound pruning (processed in descending
  bound order, which visits exactly the entries a shared heap would).
* :func:`columnar_oe_maxrs` — the OE pass as one global ScanSlab followed
  by bound-descending per-slab prefix-sum sweeps (the "prefix-max sweep"
  replacement for the segment tree).

Modular (SUM) scores only: a sweep's active weight is then a plain running
sum, which is what vectorizes.  General submodular functions stay on the
object path — :func:`columnar_best_region` dispatches and falls back.

Every *reported* score (incumbent updates included) is recomputed from
the candidate's exact member-id set with ``f.value``, never read off the
kernel's cumulative sums, so columnar and object answers agree exactly
whenever the weights' partial sums are exactly representable and to float
rounding otherwise.
"""

from __future__ import annotations

import time
from collections import abc
from typing import Any, Optional, Sequence

import numpy as np

from repro.columnar.dataset import ColumnarDataset, as_columnar
from repro.columnar.kernels import (
    assign_slices,
    maximal_intervals,
    siri_intervals,
    spanning_mask,
    validate_extent,
)
from repro.core.result import BRSResult
from repro.core.siri import cell_center
from repro.core.stats import SearchStats
from repro.functions.base import SetFunction
from repro.functions.weighted_sum import SumFunction
from repro.geometry.point import Point
from repro.obs.metrics import active_registry
from repro.obs.trace import active_tracer
from repro.runtime.budget import Budget, effective_budget
from repro.runtime.errors import BudgetExceededError, InvalidQueryError


def _weights_array(f: SumFunction, n: int) -> np.ndarray:
    """The SUM function's weights as a float64 array."""
    weights = np.ascontiguousarray(f.weights, dtype=np.float64)
    if weights.size != n:
        raise InvalidQueryError(
            f"score function covers {weights.size} objects but the dataset "
            f"has {n}"
        )
    return weights


def _exact_value(f: SetFunction, ids: np.ndarray) -> float:
    """Recompute a candidate's score from its exact member-id set."""
    return float(f.value([int(i) for i in np.sort(ids)]))


def _finish(
    ds: ColumnarDataset,
    f: SetFunction,
    a: float,
    b: float,
    best_point: Optional[Point],
    best_value: float,
    stats: SearchStats,
    status: str,
    remaining_upper: float,
) -> BRSResult:
    """Fallback handling and result assembly shared by both solvers."""
    if best_point is None:
        # Every candidate scored f(emptyset) (or nothing beat the caller's
        # initial_best); any object's own location is then a valid answer
        # reported with its true score, as on the object path.
        best_point = Point(float(ds.xs[0]), float(ds.ys[0]))
        best_value = f.value(ds.ids_in_region(best_point.x, best_point.y, a, b))
    object_ids = ds.ids_in_region(best_point.x, best_point.y, a, b)
    return BRSResult(
        point=best_point,
        score=best_value,
        object_ids=object_ids,
        a=a,
        b=b,
        stats=stats,
        status=status,
        upper_bound=(
            None if status == "ok" else max(best_value, remaining_upper)
        ),
    )


def columnar_slicebrs(
    data: Any,
    f: SumFunction,
    a: float,
    b: float,
    theta: float = 1.0,
    initial_best: float = 0.0,
    budget: Optional[Budget] = None,
) -> BRSResult:
    """Exact SliceBRS for modular scores, vectorized end to end.

    The search is the paper's: slice the space (width ``theta * b``),
    bound each slice by its total weight, scan surviving slices into
    maximal slabs (*ScanSlab*), and sweep surviving slabs (*SearchMR*) —
    but each stage is one array kernel, and entries are processed in
    descending bound order, which prunes exactly where the object path's
    shared best-first heap does.

    Args:
        data: a :class:`ColumnarDataset`, an object with a ``columns()``
            accessor, or a plain point sequence.
        f: the modular score; must be a :class:`SumFunction`.
        a: query-rectangle height.
        b: query-rectangle width.
        theta: slice width as a multiple of ``b``.
        initial_best: known-achievable lower bound on the optimum.
        budget: optional cooperative budget (falls back to the ambient
            scope); charged per slice bound, slab found, and candidate
            batch, like the object solver.  On expiry the best-so-far
            answer is returned with ``status="timeout"`` and a sound
            ``upper_bound``.

    Raises:
        InvalidQueryError: on an empty instance, a bad rectangle or theta,
            or a non-SUM score function (use :func:`columnar_best_region`
            to fall back to the object path instead).
    """
    if not isinstance(f, SumFunction):
        raise InvalidQueryError(
            "columnar_slicebrs vectorizes modular (SumFunction) scores only; "
            "use columnar_best_region to dispatch other functions to the "
            "object path"
        )
    validate_extent(a, b)
    if not (theta > 0 and np.isfinite(theta)):
        raise InvalidQueryError(f"theta must be positive and finite, got {theta}")
    ds = as_columnar(data)
    weights = _weights_array(f, ds.n)
    budget = effective_budget(budget)
    registry = active_registry()
    tracer = active_tracer()
    start_time = time.perf_counter()
    evals_before = budget.evals if budget is not None else 0

    stats = SearchStats(n_objects=ds.n)
    best_value = max(0.0, initial_best)
    best_point: Optional[Point] = None
    status = "ok"
    remaining_upper = 0.0

    with tracer.span(
        "columnar.slicebrs", n_objects=ds.n, theta=theta
    ):
        x_min, x_max = siri_intervals(ds.xs, b)
        y_min, y_max = siri_intervals(ds.ys, a)
        sl = assign_slices(x_min, x_max, theta * b)
        n_occupied = int(sl.slice_starts.size)
        stats.n_slices = n_occupied

        bounds = np.empty(0, dtype=np.float64)
        try:
            if budget is not None:
                budget.charge(n_occupied)
            if sl.row_ids.size:
                ends = np.append(sl.slice_starts[1:], sl.row_ids.size)
                bounds = np.add.reduceat(weights[sl.row_ids], sl.slice_starts)
        except BudgetExceededError:
            # No slice bound was paid for; f of everything soundly covers
            # all unexplored work (monotonicity).
            status = "timeout"
            remaining_upper = f.value(range(ds.n))

        if status == "ok":
            order = np.argsort(-bounds, kind="stable")
            try:
                for j in order:
                    slice_bound = float(bounds[j])
                    remaining_upper = slice_bound
                    # Descending order: once a bound is prunable (or zero)
                    # every remaining one is too.
                    if slice_bound <= 0.0 or slice_bound < best_value:
                        tracer.event(
                            "columnar.prune_stop",
                            bound=slice_bound,
                            best=best_value,
                        )
                        break
                    lo = int(sl.slice_starts[j])
                    hi = int(ends[j])
                    rid = sl.row_ids[lo:hi]
                    ymin_s = y_min[rid]
                    ymax_s = y_max[rid]
                    w_s = weights[rid]
                    stats.n_slices_scanned += 1
                    stats.n_pushes += int(rid.size)

                    slabs = maximal_intervals(ymin_s, ymax_s, w_s)
                    n_slabs = int(slabs.lo.size)
                    stats.n_slabs += n_slabs
                    if budget is not None:
                        budget.charge(n_slabs)
                    slab_order = np.argsort(-slabs.bound, kind="stable")
                    for k in slab_order:
                        slab_bound = float(slabs.bound[k])
                        remaining_upper = max(slab_bound, slice_bound)
                        if slab_bound <= 0.0 or slab_bound < best_value:
                            break
                        slab_lo = float(slabs.lo[k])
                        slab_hi = float(slabs.hi[k])
                        span = spanning_mask(ymin_s, ymax_s, slab_lo, slab_hi)
                        gx_lo = sl.clipped_lo[lo:hi][span]
                        gx_hi = sl.clipped_hi[lo:hi][span]
                        gw = w_s[span]
                        stats.n_slabs_searched += 1
                        stats.n_pushes += int(gw.size)

                        gaps = maximal_intervals(gx_lo, gx_hi, gw)
                        n_gaps = int(gaps.lo.size)
                        stats.n_candidates += n_gaps
                        if budget is not None:
                            budget.charge(n_gaps)
                        if n_gaps == 0:
                            continue
                        top = int(np.argmax(gaps.bound))
                        g_lo = float(gaps.lo[top])
                        g_hi = float(gaps.hi[top])
                        member_ids = rid[span][
                            spanning_mask(gx_lo, gx_hi, g_lo, g_hi)
                        ]
                        exact = _exact_value(f, member_ids)
                        if exact > best_value:
                            best_value = exact
                            best_point = Point(
                                cell_center(g_lo, g_hi),
                                cell_center(slab_lo, slab_hi),
                            )
                else:
                    # Exhausted without a prune stop: nothing unexplored.
                    remaining_upper = 0.0
            except BudgetExceededError:
                # Bound-descending processing: the entry in flight caps
                # everything still unprocessed.
                status = "timeout"

    stats.publish(registry, "columnar_slicebrs")
    if registry.enabled:
        registry.histogram(
            "brs_columnar_solve_seconds", help="columnar solve wall time"
        ).observe(time.perf_counter() - start_time)
        if budget is not None:
            registry.counter(
                "brs_budget_evals_total",
                help="score evaluations charged to budgets",
            ).inc(budget.evals - evals_before)
        if status != "ok":
            registry.counter(
                "brs_timeout_results_total",
                help="solves that returned a non-ok anytime answer",
            ).inc()
    return _finish(
        ds, f, a, b, best_point, best_value, stats, status, remaining_upper
    )


def columnar_oe_maxrs(
    data: Any,
    a: float,
    b: float,
    weights: Optional[Sequence[float]] = None,
) -> BRSResult:
    """Exact MaxRS as a global ScanSlab plus per-slab prefix-sum sweeps.

    The Optimal Enclosure baseline maintains a lazy segment tree along one
    bottom-up sweep; here the same optimum comes from the maximal-slab
    decomposition: one vectorized y-sweep finds every maximal slab with
    its weight bound, and slabs are swept in x (best bound first) until
    the incumbent beats every remaining bound — usually after a handful
    of slabs.

    Without slicing, dense instances defeat slab pruning — almost every
    maximal slab's weight bound beats the incumbent and the search goes
    quadratic — so the sweep runs inside the sliced engine of
    :func:`columnar_slicebrs` with ``theta = 1`` (the Appendix C.2
    structure, which :func:`repro.core.maxrs.slicebrs_maxrs` also uses):
    slice bounds amortize the pruning and each surviving slab is still
    one prefix-sum sweep.  The optimum is identical either way; only the
    work changes.

    Args:
        data: a :class:`ColumnarDataset`, an object with a ``columns()``
            accessor, or a plain point sequence.
        a: query-rectangle height.
        b: query-rectangle width.
        weights: non-negative per-object weights; when omitted, the
            dataset's own weight column (all ones if it has none).

    Raises:
        InvalidQueryError: on an empty instance or bad rectangle.
        ValueError: on a weight-count mismatch or negative weight.
    """
    validate_extent(a, b)
    ds = as_columnar(data)
    if weights is None and ds.weights is not None:
        weights = ds.weights
    f = SumFunction(ds.n, None if weights is None else list(weights))
    with active_tracer().span("columnar.oe_maxrs", n_objects=ds.n):
        return columnar_slicebrs(ds, f, a, b, theta=1.0)


def columnar_best_region(
    data: Any,
    f: SetFunction,
    a: float,
    b: float,
    theta: float = 1.0,
    initial_best: float = 0.0,
    budget: Optional[Budget] = None,
) -> BRSResult:
    """Solve BRS on the columnar plane when possible, object path otherwise.

    Modular (:class:`SumFunction`) scores run :func:`columnar_slicebrs`;
    any other score function falls back to the object-path
    :class:`~repro.core.slicebrs.SliceBRS` (counted by
    ``brs_columnar_fallbacks_total``), so callers can use this entry
    point unconditionally.  The fallback solves the caller's own point
    list when there is one (a point sequence, or a dataset's ``points``
    list); other inputs are solved on their columns' points.
    """
    if isinstance(f, SumFunction):
        return columnar_slicebrs(
            data, f, a, b, theta=theta, initial_best=initial_best, budget=budget
        )
    registry = active_registry()
    if registry.enabled:
        registry.counter(
            "brs_columnar_fallbacks_total",
            help="columnar dispatches that fell back to the object path",
        ).inc()
    from repro.core.slicebrs import SliceBRS

    return SliceBRS(theta=theta).solve(
        _object_points(data), f, a, b,
        initial_best=initial_best, budget=budget,
    )


def _object_points(data: Any) -> Sequence[Point]:
    """The points behind solver input, materialized only when it has none."""
    if isinstance(data, abc.Sequence):
        return data
    points = getattr(data, "points", None)
    if isinstance(points, abc.Sequence):
        return points
    return as_columnar(data).points()
