"""Columnar SliceBRS and MaxRS solvers built on the vectorized kernels.

Both solvers answer the same queries as their object-path counterparts
(:class:`repro.core.slicebrs.SliceBRS`, :func:`repro.core.maxrs.oe_maxrs`)
and return the same :class:`~repro.core.result.BRSResult` type, but spend
their inner loops inside NumPy instead of per-event Python:

* :func:`columnar_slicebrs` — SliceBRS for SUM and coverage scores
  (influence, and every coverage reduced with ``merged``, included):
  slicing, *ScanSlab* and *SearchMR* as array sweeps, visiting slices and
  slabs in exactly the order SliceBRS pops them from its heap.
* :func:`columnar_oe_maxrs` — the OE pass as one global ScanSlab followed
  by bound-descending per-slab prefix-sum sweeps (the "prefix-max sweep"
  replacement for the segment tree).
* :func:`columnar_best_region` — the exact entry every solve calls: the
  kernel where it covers the score function, object-path SliceBRS (a
  counted fallback) everywhere else.

Bounds.  A SUM sweep's bound is its running weight sum; a coverage
sweep's is the covered label weight of a label-union sweep
(:func:`~repro.columnar.kernels.covered_intervals`) times ``f.scale``; slice
bounds come from one ``batch_value`` pass over every slice.

Order.  Slices enter one heap as ``(-bound, seq)`` with ``seq`` in x
order.  Scanning a slice keeps the slabs whose bound ties or beats the
best score (SliceBRS's non-strict keep), gives them consecutive ``seq``
numbers in sweep order and sorts them by ``(-bound, seq)`` into one
run; only a run's head sits on the heap, and popping it pushes the
run's next slab.  That k-way merge pops exactly the sequence SliceBRS's
one-entry-per-slab heap pops, so both planes stop at the same entry and
pick the same center among tied ones: within a slab the leftmost
candidate with the largest value, if it beats the best score.

Every *reported* score (incumbent updates included) is recomputed from
the candidate's exact member-id set with ``f.value``, never read off the
kernel's running sums, so columnar and object answers agree exactly
whenever partial sums are exactly representable (unit, integer or
dyadic weights, any ``scale``) and to float rounding otherwise.
"""

from __future__ import annotations

import heapq
import time
from collections import abc
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.columnar.dataset import ColumnarDataset, as_columnar
from repro.columnar.kernels import (
    SlabSet,
    assign_slices,
    covered_intervals,
    maximal_intervals,
    siri_intervals,
    spanning_mask,
    validate_extent,
)
from repro.core.result import BRSResult
from repro.core.siri import cell_center
from repro.core.slicebrs import SliceBRS, publish_solve
from repro.core.stats import SearchStats
from repro.functions.base import SetFunction
from repro.functions.coverage import CoverageFunction
from repro.functions.weighted_sum import SumFunction
from repro.geometry.point import Point
from repro.obs.metrics import active_registry
from repro.obs.trace import active_tracer
from repro.runtime.budget import Budget, effective_budget
from repro.runtime.errors import BudgetExceededError, InvalidQueryError


class _SumScore:
    """SUM bounds: running weight sums."""

    def __init__(self, f: SumFunction, n: int) -> None:
        self.weights = f.weight_array()
        if self.weights.size != n:
            raise InvalidQueryError(
                f"score function covers {self.weights.size} objects but the "
                f"dataset has {n}"
            )

    def slice_bounds(self, objects: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Each slice's total weight."""
        return np.add.reduceat(self.weights[objects], starts)

    def intervals(
        self, lo: np.ndarray, hi: np.ndarray, objects: np.ndarray
    ) -> SlabSet:
        """Trigger intervals with the active weight as bound."""
        return maximal_intervals(lo, hi, self.weights[objects])


class _CoverageScore:
    """Coverage bounds: covered label weight, by a label-union sweep."""

    def __init__(self, f: CoverageFunction, n: int) -> None:
        self.f = f
        self.csr = f._code_csr()
        if self.csr[1].size - 1 != n:
            raise InvalidQueryError(
                f"score function covers {self.csr[1].size - 1} objects but "
                f"the dataset has {n}"
            )

    def slice_bounds(self, objects: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """``f`` of each slice's objects, in one ``batch_value`` call."""
        return self.f.batch_value(objects, np.append(starts, objects.size))

    def intervals(
        self, lo: np.ndarray, hi: np.ndarray, objects: np.ndarray
    ) -> SlabSet:
        """Trigger intervals with ``f`` of the rows active in each."""
        gaps = covered_intervals(lo, hi, objects, self.csr)
        return SlabSet(gaps.lo, gaps.hi, self.f.scale * gaps.bound)


_Score = Union[_SumScore, _CoverageScore]

#: The score functions the kernel has bounds for.
_KERNEL_SCORES = (SumFunction, CoverageFunction)


def _score_of(f: SetFunction, n: int) -> _Score:
    """The kernel's bound arithmetic for ``f`` (one of :data:`_KERNEL_SCORES`)."""
    if isinstance(f, SumFunction):
        return _SumScore(f, n)
    if isinstance(f, CoverageFunction):
        return _CoverageScore(f, n)
    raise InvalidQueryError(
        f"columnar_slicebrs runs SUM and coverage scores, not "
        f"{type(f).__name__}; columnar_best_region sends other "
        "functions to the object path"
    )


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
    """Fallback handling and result assembly."""
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


class _Run:
    """One scanned slice's kept slabs, in heap order."""

    __slots__ = ("slice", "lo", "hi", "bound", "seq", "next")

    def __init__(
        self, slice_index: int, slabs: SlabSet, order: np.ndarray, seq: np.ndarray
    ) -> None:
        self.slice = slice_index
        self.lo = slabs.lo[order]
        self.hi = slabs.hi[order]
        self.bound = slabs.bound[order]
        self.seq = seq
        self.next = 0

    def head(self, run_id: int) -> Tuple[float, int, int]:
        """The heap entry of the run's next slab."""
        k = self.next
        return (-float(self.bound[k]), int(self.seq[k]), run_id)


def columnar_slicebrs(
    data: Any,
    f: SetFunction,
    a: float,
    b: float,
    theta: float = 1.0,
    initial_best: float = 0.0,
    budget: Optional[Budget] = None,
) -> BRSResult:
    """Exact SliceBRS for SUM and coverage scores, vectorized end to end.

    The search is the paper's, in SliceBRS's own heap order (module
    note): slice the space (width ``theta * b``), bound each slice by
    ``f`` of its objects, scan slices into maximal slabs (*ScanSlab*) and
    sweep slabs (*SearchMR*), best bound first, until a bound is zero or
    below the best score.  The answer, the center among tied optima and
    the search counters are SliceBRS's wherever partial sums are exact.

    Args:
        data: a :class:`ColumnarDataset`, an object with a ``columns()``
            accessor, or a plain point sequence.
        f: a :class:`SumFunction` or :class:`CoverageFunction` (influence
            and ``merged`` reductions included).
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
            or a score function the kernel has no bounds for (use
            :func:`columnar_best_region` to send those to the object
            path).
    """
    validate_extent(a, b)
    if not (theta > 0 and np.isfinite(theta)):
        raise InvalidQueryError(f"theta must be positive and finite, got {theta}")
    ds = as_columnar(data)
    score = _score_of(f, ds.n)
    budget = effective_budget(budget)
    tracer = active_tracer()
    start_time = time.perf_counter()
    evals_before = budget.evals if budget is not None else 0
    with tracer.span(
        "slicebrs.solve", n_objects=ds.n, theta=theta, slicing=True,
        path="columnar",
    ):
        result = _search(ds, f, score, a, b, theta, initial_best, budget)
    publish_solve(result, time.perf_counter() - start_time, budget, evals_before)
    return result


def _search(
    ds: ColumnarDataset,
    f: SetFunction,
    score: _Score,
    a: float,
    b: float,
    theta: float,
    initial_best: float,
    budget: Optional[Budget],
) -> BRSResult:
    """The best-first search itself, inside the ``slicebrs.solve`` span."""
    tracer = active_tracer()
    stats = SearchStats(n_objects=ds.n)
    best_value = max(0.0, initial_best)
    best_point: Optional[Point] = None

    # The slice-ordered replicas; slice j is [starts[j], ends[j]).  Only
    # they stay alive through the search.
    y_min, y_max = siri_intervals(ds.ys, a)
    sl = assign_slices(*siri_intervals(ds.xs, b), theta * b)
    rows, row_xlo, row_xhi = sl.row_ids, sl.clipped_lo, sl.clipped_hi
    starts = sl.slice_starts
    ends = np.append(starts[1:], rows.size)
    row_ylo, row_yhi = y_min[rows], y_max[rows]
    del sl, y_min, y_max

    stats.n_slices = int(starts.size)
    try:
        if budget is not None:
            budget.charge(stats.n_slices)
        bounds = score.slice_bounds(rows, starts)
    except BudgetExceededError:
        # No slice bound was paid for; f of everything soundly covers
        # all unexplored work (monotonicity).
        return _finish(
            ds, f, a, b, None, best_value, stats, "timeout",
            f.value(range(ds.n)),
        )

    # Slice entries carry run id -1; a slab entry names its run.
    heap: List[Tuple[float, int, int]] = [
        (-bound, seq, -1) for seq, bound in enumerate(bounds.tolist())
    ]
    heapq.heapify(heap)
    runs: List[Optional[_Run]] = []
    next_seq = len(heap)
    status = "ok"
    bound = 0.0
    try:
        while heap:
            neg_bound, seq, run_id = heapq.heappop(heap)
            bound = -neg_bound
            if budget is not None:
                budget.check()
            if bound <= 0.0:
                tracer.event(
                    "slicebrs.prune_stop", reason="zero_bound", best=best_value
                )
                break
            if bound < best_value:
                tracer.event(
                    "slicebrs.prune_stop", reason="bound", bound=bound,
                    best=best_value,
                )
                break
            if run_id < 0:
                lo, hi = int(starts[seq]), int(ends[seq])
                stats.n_slices_scanned += 1
                with tracer.span("slicebrs.slice", upper=bound):
                    with tracer.span("sweep.scan_slab", n_rows=hi - lo):
                        slabs = score.intervals(
                            row_ylo[lo:hi], row_yhi[lo:hi], rows[lo:hi]
                        )
                    n_slabs = int(slabs.lo.size)
                    stats.n_slabs += n_slabs
                    stats.n_pushes += hi - lo
                    if budget is not None:
                        budget.charge(n_slabs)
                    kept = np.flatnonzero(slabs.bound >= best_value)
                    if kept.size:
                        rank = np.argsort(-slabs.bound[kept], kind="stable")
                        run = _Run(seq, slabs, kept[rank], next_seq + rank)
                        next_seq += int(kept.size)
                        runs.append(run)
                        heapq.heappush(heap, run.head(len(runs) - 1))
                continue

            run = runs[run_id]
            assert run is not None
            k = run.next
            run.next += 1
            if run.next < run.seq.size:
                heapq.heappush(heap, run.head(run_id))
            else:
                runs[run_id] = None
            slab_lo, slab_hi = float(run.lo[k]), float(run.hi[k])
            lo, hi = int(starts[run.slice]), int(ends[run.slice])
            stats.n_slabs_searched += 1
            with tracer.span("slicebrs.slab", upper=bound):
                span = spanning_mask(
                    row_ylo[lo:hi], row_yhi[lo:hi], slab_lo, slab_hi
                )
                members = rows[lo:hi][span]
                gx_lo = row_xlo[lo:hi][span]
                gx_hi = row_xhi[lo:hi][span]
                with tracer.span("sweep.search_mr", n_rows=int(members.size)):
                    gaps = score.intervals(gx_lo, gx_hi, members)
                n_gaps = int(gaps.lo.size)
                stats.n_candidates += n_gaps
                stats.n_pushes += int(members.size)
                if budget is not None:
                    budget.charge(n_gaps)
                if n_gaps == 0:
                    continue
                top = int(np.argmax(gaps.bound))
                if not gaps.bound[top] > best_value:
                    continue
                g_lo = float(gaps.lo[top])
                g_hi = float(gaps.hi[top])
                exact = _exact_value(
                    f, members[spanning_mask(gx_lo, gx_hi, g_lo, g_hi)]
                )
                if exact > best_value:
                    best_value = exact
                    best_point = Point(
                        cell_center(g_lo, g_hi), cell_center(slab_lo, slab_hi)
                    )
        else:
            # Exhausted without a prune stop: nothing is left unexplored.
            bound = 0.0
    except BudgetExceededError:
        # Bound-descending processing: the entry in flight caps
        # everything still unprocessed.
        status = "timeout"
    return _finish(
        ds, f, a, b, best_point, best_value, stats, status, bound
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
    """The exact rung: SliceBRS on the columnar plane wherever it can run.

    SUM and coverage scores (influence and ``merged`` reductions
    included) run :func:`columnar_slicebrs`.  Any other score function
    falls back to the object-path :class:`~repro.core.slicebrs.SliceBRS`:
    the fallback is counted by ``brs_columnar_fallbacks_total`` and
    traced as a ``columnar.fallback`` event naming the function's class
    (``fallback_reason``) just before the object path's
    ``slicebrs.solve`` span (``path="object"``).  The fallback solves the
    caller's own point list when there is one (a point sequence, or a
    dataset's ``points`` list); other inputs are solved on their columns'
    points.
    """
    if isinstance(f, _KERNEL_SCORES):
        return columnar_slicebrs(
            data, f, a, b, theta=theta, initial_best=initial_best, budget=budget
        )
    reason = type(f).__name__
    active_tracer().event("columnar.fallback", fallback_reason=reason)
    registry = active_registry()
    if registry.enabled:
        registry.counter(
            "brs_columnar_fallbacks_total",
            help="exact solves the columnar kernel could not run (object path)",
        ).inc()
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
