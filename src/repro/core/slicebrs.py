"""SliceBRS — the exact BRS algorithm (Section 4).

The solver composes the paper's three ideas:

1. **SIRI reduction** (Section 4.1): objects become ``a x b`` rectangles and
   the search moves from infinitely many points to O(n^2) disjoint regions.
2. **Maximal slabs** (Section 4.4): a bottom-up sweep (*ScanSlab*) finds
   O(n) horizontal slabs, each with a submodularity-derived upper bound
   (Lemma 7); only slabs whose bound beats the best known score are searched
   (*SearchMR*).
3. **Slicing** (Section 4.5): the space is first cut into vertical slices of
   width ``theta * b``; each rectangle lands in at most ``ceil(1/theta) + 1``
   slices (Lemma 8), slices carry their own upper bound, and whole slices
   are pruned without ever scanning them.

Slice and slab processing share one best-first priority queue: an entry is
expanded only when its upper bound still exceeds the best score found, which
realizes both pruning rules of the paper with a single stopping test.

This class is the *object path*: it runs every score function through
its incremental evaluator.  The exact rung every solve calls
(:func:`repro.columnar.solvers.columnar_best_region`) runs SUM and
coverage scores on the columnar kernel instead, which pops the same heap
order; this class stays the fallback for other score functions, the
reference the differential suites compare against, and the home of the
ablation options the paper's experiments use.

Observability: a solve emits a ``slicebrs.solve`` span (``path="object"``;
the kernel opens the same tree with ``path="columnar"``) enclosing one
``slicebrs.slice`` span per slice scanned and one ``slicebrs.slab`` span
per slab searched (which in turn encloses the ``sweep.search_mr`` span),
plus a ``slicebrs.prune_stop`` event when the best-first loop terminates
on a bound.  Work counters go to the per-run :class:`SearchStats` as ever
and are published into the ambient metrics registry at the end
(:func:`publish_solve`, shared by both planes).
"""

from __future__ import annotations

import heapq
import math
import time
from typing import List, Optional, Sequence, Tuple

from repro.core.result import BRSResult
from repro.core.siri import RectRow, build_sweep_rows, objects_in_region
from repro.core.stats import SearchStats
from repro.core.sweep import (
    cut_into_slices,
    rows_spanning_slab,
    scan_slabs,
    search_slab,
)
from repro.functions.base import SetFunction
from repro.functions.validate import check_submodular_monotone
from repro.geometry.point import Point
from repro.obs.metrics import active_registry
from repro.obs.trace import active_tracer
from repro.runtime.budget import Budget, effective_budget
from repro.runtime.errors import BudgetExceededError, InvalidQueryError

#: Priority-queue entry kinds.
_SLICE = 0
_SLAB = 1


class SliceBRS:
    """Exact best-region search.

    Args:
        theta: slice width as a multiple of the query width ``b``
            (Section 4.5; the paper's experiments use ``theta = 1``).
        slicing: disable to reproduce the *SliceBRS-NSlice* ablation of
            Figure 14 — the whole space is one slice.
        prune_slices: disable to scan every slice (slabs are still pruned);
            used when the full maximal-slab census (#MS) must be exact, as in
            Table 5.
        strict_pruning: the paper stops "once the upper bound of any
            remaining maximal slab is *smaller* than the best known result",
            so entries whose bound merely ties the best are still processed
            — ties are pervasive on plateau-scoring data (Meetup) and this
            is what its Table 5 numbers reflect.  Set True to also skip
            tied entries; the answer is identical either way (a tied bound
            cannot improve the result), only the work counters change.
        validate: spot-check that ``f`` is submodular monotone before
            solving; costs a few dozen evaluations of ``f``.

    Raises:
        InvalidQueryError: if ``theta`` is not positive or non-finite.
    """

    def __init__(
        self,
        theta: float = 1.0,
        slicing: bool = True,
        prune_slices: bool = True,
        strict_pruning: bool = False,
        validate: bool = False,
    ) -> None:
        if not (theta > 0 and math.isfinite(theta)):
            raise InvalidQueryError(f"theta must be positive and finite, got {theta}")
        self.theta = theta
        self.slicing = slicing
        self.prune_slices = prune_slices
        self.strict_pruning = strict_pruning
        self.validate = validate

    def solve(
        self,
        points: Sequence[Point],
        f: SetFunction,
        a: float,
        b: float,
        initial_best: float = 0.0,
        budget: Optional[Budget] = None,
    ) -> BRSResult:
        """Return the best ``a x b`` region for score function ``f``.

        Args:
            points: object locations; object ids are positions here.
            f: submodular monotone aggregate score function over those ids.
            a: query-rectangle height.
            b: query-rectangle width.
            initial_best: a known-achievable lower bound on the optimum
                (e.g. from a prior CoverBRS pass or another partition);
                pruning starts from it immediately.  When no candidate
                beats it, the fallback answer is returned with its true
                score — callers comparing against the bound should keep
                their incumbent in that case.
            budget: optional cooperative execution budget (falls back to
                the ambient :func:`~repro.runtime.budget.budget_scope`).
                On expiry the search stops and the best-so-far answer is
                returned with ``status="timeout"`` and a sound
                ``upper_bound`` — the largest upper bound of any slice or
                slab not fully searched — instead of raising.

        Raises:
            InvalidQueryError: on an empty instance, a non-positive
                rectangle, or non-finite coordinates.
            ValueError: with ``validate=True``, when ``f`` fails the
                submodular monotone spot-check.
            EvaluationError: when ``f`` raises or produces NaN (after any
                retry wrapper has given up).
        """
        budget = effective_budget(budget)
        tracer = active_tracer()
        start_time = time.perf_counter()
        evals_before = budget.evals if budget is not None else 0
        with tracer.span(
            "slicebrs.solve",
            n_objects=len(points),
            theta=self.theta,
            slicing=self.slicing,
            path="object",
        ):
            result = self._solve(points, f, a, b, initial_best, budget, tracer)
        publish_solve(
            result, time.perf_counter() - start_time, budget, evals_before
        )
        return result

    def _solve(
        self,
        points: Sequence[Point],
        f: SetFunction,
        a: float,
        b: float,
        initial_best: float,
        budget: Optional[Budget],
        tracer,
    ) -> BRSResult:
        """The search itself, inside the ``slicebrs.solve`` span."""
        rows = build_sweep_rows(points, a, b)
        if self.validate:
            sample = list(range(0, len(points), max(1, len(points) // 16)))
            check_submodular_monotone(f, sample)

        stats = SearchStats(n_objects=len(points))
        slices = self._cut_into_slices(rows, b)
        stats.n_slices = len(slices)

        status = "ok"
        #: Sound upper bound on every piece of work not fully searched;
        #: only meaningful when the budget expired.
        remaining_upper = 0.0

        # Upper bound of a slice: f of everything intersecting it (the same
        # submodularity argument as Lemma 7, applied to the whole slice).
        heap: List[Tuple[float, int, int, object]] = []
        seq = 0
        try:
            for slice_rows in slices:
                if budget is not None:
                    budget.charge()
                upper = f.value({row[4] for row in slice_rows})
                heap.append((-upper, seq, _SLICE, slice_rows))
                seq += 1
        except BudgetExceededError:
            # Slices without a computed bound get one collective bound:
            # f of their union (monotonicity makes it sound); bounded
            # slices are still on the heap and are folded in below.
            status = "timeout"
            pending_ids = {
                row[4] for slice_rows in slices[len(heap):] for row in slice_rows
            }
            remaining_upper = f.value(pending_ids) if pending_ids else 0.0
            if heap:
                remaining_upper = max(remaining_upper, max(-h[0] for h in heap))
        heapq.heapify(heap)

        evaluator = f.evaluator()
        best_value = max(0.0, initial_best)
        best_point: Optional[Point] = None

        if status == "ok" and not self.prune_slices:
            # Exhaustive slab census: scan every slice up front, then fall
            # through to best-first slab processing only.
            pending = heap
            heap = []
            try:
                for i, (neg_upper, _, _, slice_rows) in enumerate(pending):
                    stats.n_slices_scanned += 1
                    with tracer.span("slicebrs.slice", upper=-neg_upper):
                        for slab in scan_slabs(
                            slice_rows, evaluator, stats, budget=budget
                        ):
                            heap.append((-slab[2], seq, _SLAB, (slab, slice_rows)))
                            seq += 1
            except BudgetExceededError:
                # Unscanned slices (including the interrupted one) are
                # covered by their slice bounds; scanned slabs on the heap
                # are covered by their own bounds.
                status = "timeout"
                remaining_upper = max(
                    (-entry[0] for entry in pending[i:]), default=0.0
                )
                if heap:
                    remaining_upper = max(
                        remaining_upper, max(-h[0] for h in heap)
                    )
            heapq.heapify(heap)

        neg_upper = 0.0
        try:
            while status == "ok" and heap:
                neg_upper, _, kind, payload = heapq.heappop(heap)
                if budget is not None:
                    budget.check()
                if -neg_upper <= 0.0:
                    # A zero bound can never beat the implicit empty-region
                    # score; skipping it regardless of the tie rule avoids
                    # degenerate full scans when f is identically zero.
                    tracer.event(
                        "slicebrs.prune_stop", reason="zero_bound",
                        best=best_value,
                    )
                    break
                pruned = (
                    -neg_upper <= best_value
                    if self.strict_pruning
                    else -neg_upper < best_value
                )
                if pruned:
                    # Every remaining bound is at least as small.
                    tracer.event(
                        "slicebrs.prune_stop", reason="bound",
                        bound=-neg_upper, best=best_value,
                    )
                    break
                if kind == _SLICE:
                    stats.n_slices_scanned += 1
                    with tracer.span("slicebrs.slice", upper=-neg_upper):
                        for slab in scan_slabs(payload, evaluator, stats, budget=budget):  # type: ignore[arg-type]
                            keep = (
                                slab[2] > best_value
                                if self.strict_pruning
                                else slab[2] >= best_value
                            )
                            if keep:
                                heapq.heappush(
                                    heap, (-slab[2], seq, _SLAB, (slab, payload))
                                )
                                seq += 1
                else:
                    slab, slice_rows = payload  # type: ignore[misc]
                    stats.n_slabs_searched += 1
                    with tracer.span("slicebrs.slab", upper=-neg_upper):
                        spanning = rows_spanning_slab(slice_rows, slab)
                        best_value, candidate = search_slab(
                            spanning, slab, evaluator, best_value, stats,
                            budget=budget,
                        )
                    if candidate is not None:
                        best_point = candidate
        except BudgetExceededError:
            # The heap is popped best-bound-first, so the entry being
            # processed dominates everything still queued — its bound is
            # a sound cap on all unexplored work.
            status = "timeout"
            remaining_upper = -neg_upper

        if best_point is None:
            # Every candidate scored f(emptyset); any object's own location
            # is then an optimal center (its region contains the object).
            best_point = points[0]
            best_value = f.value(objects_in_region(points, best_point, a, b))

        object_ids = objects_in_region(points, best_point, a, b)
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

    def _cut_into_slices(
        self, rows: Sequence[RectRow], b: float
    ) -> List[List[RectRow]]:
        """Assign each rectangle to the slices it intersects, clipped in x.

        With slicing disabled the whole space is a single slice and rows are
        passed through unclipped.
        """
        if not self.slicing:
            return [list(rows)]
        return cut_into_slices(rows, self.theta * b)


def publish_solve(
    result: BRSResult,
    seconds: float,
    budget: Optional[Budget],
    evals_before: int,
) -> None:
    """Publish one finished SliceBRS solve into the ambient registry.

    Both planes — this object path and the columnar kernel
    (:func:`repro.columnar.solvers.columnar_slicebrs`) — publish the same
    family: ``brs_slicebrs_solves_total``, ``brs_slicebrs_solve_seconds``
    and the :class:`SearchStats` counters.
    """
    registry = active_registry()
    result.stats.publish(registry, "slicebrs")
    if not registry.enabled:
        return
    registry.histogram(
        "brs_slicebrs_solve_seconds", help="SliceBRS solve wall time"
    ).observe(seconds)
    if budget is not None:
        registry.counter(
            "brs_budget_evals_total",
            help="score evaluations charged to budgets",
        ).inc(budget.evals - evals_before)
    if result.status != "ok":
        registry.counter(
            "brs_timeout_results_total",
            help="solves that returned a non-ok anytime answer",
        ).inc()
