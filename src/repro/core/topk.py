"""Top-k region search (the paper's stated future work, Section 7).

The paper leaves "top-k regions in the context of the BRS problem" as future
work.  We implement the natural greedy semantics: repeatedly solve BRS, then
remove the objects inside the chosen region before the next round.  Each
returned region is optimal for the objects not already claimed by a better
region, the regions never share objects, and for modular ``f`` this is the
classic greedy MaxRS top-k.  (Regions may still geometrically overlap on
empty space; claimed objects, not area, are what scores are made of.)
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.brs import solve
from repro.core.result import BRSResult
from repro.functions.base import SetFunction
from repro.functions.reduced import reduce_over_cover
from repro.geometry.point import Point
from repro.obs.metrics import active_registry
from repro.obs.trace import active_tracer
from repro.runtime.budget import Budget, effective_budget
from repro.runtime.errors import InvalidQueryError


def topk_regions(
    points: Sequence[Point],
    f: SetFunction,
    a: float,
    b: float,
    k: int,
    theta: float = 1.0,
    budget: Optional[Budget] = None,
) -> List[BRSResult]:
    """Return up to ``k`` object-disjoint regions, best first.

    Args:
        points: object locations.
        f: submodular monotone aggregate score over object ids.
        a: query-rectangle height.
        b: query-rectangle width.
        k: number of regions requested; fewer are returned when the objects
            run out.
        theta: slice-width multiple for each round's exact solve.
        budget: optional execution budget shared by all ``k`` rounds (falls
            back to the ambient scope).  Each round is one
            :func:`repro.core.brs.solve` call, so its exact rung may spend
            :data:`~repro.core.brs.LADDER_FRACTION` of what the budget has
            left and the cover and grid rungs the rest.  On expiry the
            rounds completed so far are returned; a round the budget cuts
            short contributes its ladder answer (``status``
            ``"degraded"`` or ``"timeout"``) and ends the list.

    Raises:
        InvalidQueryError: if ``k`` is not positive, or on an invalid
            instance.
    """
    if k <= 0:
        raise InvalidQueryError(f"k must be positive, got {k}")
    budget = effective_budget(budget)
    tracer = active_tracer()
    registry = active_registry()

    remaining = list(range(len(points)))
    results: List[BRSResult] = []
    with tracer.span("topk.solve", n_objects=len(points), k=k):
        for round_no in range(k):
            if not remaining:
                break
            sub_points = [points[i] for i in remaining]
            # Present f with original ids: representative j stands for
            # exactly the original object remaining[j].  reduce_over_cover
            # picks the incremental fast path for coverage/modular f.
            sub_f = reduce_over_cover(f, [[i] for i in remaining])
            with tracer.span(
                "topk.round", round=round_no, n_remaining=len(remaining)
            ) as round_span:
                sub_result = solve(
                    sub_points, sub_f, a, b, budget=budget, theta=theta
                )
                round_span.annotate(
                    score=sub_result.score, status=sub_result.status
                )

            original_ids = [remaining[j] for j in sub_result.object_ids]
            results.append(
                BRSResult(
                    point=sub_result.point,
                    score=sub_result.score,
                    object_ids=original_ids,
                    a=a,
                    b=b,
                    stats=sub_result.stats,
                    status=sub_result.status,
                    upper_bound=sub_result.upper_bound,
                    rung=sub_result.rung,
                )
            )
            if sub_result.status != "ok":
                break  # the budget cut this round short; later rounds get nothing
            claimed = set(original_ids)
            remaining = [i for i in remaining if i not in claimed]
            if not claimed:
                break  # only empty regions remain; further rounds repeat
    if registry.enabled:
        registry.counter(
            "brs_topk_rounds_total", help="completed top-k greedy rounds"
        ).inc(len(results))
    return results
