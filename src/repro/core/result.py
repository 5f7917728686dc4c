"""Result type shared by all BRS solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.stats import CoverStats, SearchStats
from repro.geometry.point import Point
from repro.geometry.rect import Rect


#: Valid values of :attr:`BRSResult.status`.
RESULT_STATUSES = ("ok", "degraded", "timeout", "error")


@dataclass
class BRSResult:
    """The answer to one best-region-search query.

    Attributes:
        point: center of the best region found.
        score: aggregate score ``f`` of the objects inside the region.  For
            exact solvers this is the optimum; for CoverBRS it is the score
            of the returned region *on the original instance*, which is the
            paper's quality measure.
        object_ids: the objects strictly inside the returned region.
        a: query-rectangle height the query was asked with.
        b: query-rectangle width the query was asked with.
        stats: search-effort counters of the run.
        cover_stats: present only for CoverBRS runs (c-cover bookkeeping).
        status: ``"ok"`` when the requested contract was honored in full;
            ``"degraded"`` when a budget forced a fallback method that still
            ran to completion; ``"timeout"`` when the budget expired and
            this is the best-so-far answer; ``"error"`` is reserved for
            harness rows describing failed runs.
        upper_bound: a sound upper bound on the true optimum, when one is
            known (anytime runs always report one; approximate runs report
            one when a proved ratio exists).  ``None`` from an exact solver
            means the score *is* the optimum; ``None`` elsewhere means no
            bound was computed.
        rung: the degradation-ladder rung that produced this region
            (``"exact"``, ``"cover"`` or ``"grid"``) when the answer came
            from :func:`repro.core.brs.solve`; ``None`` from a solver
            called directly.
    """

    point: Point
    score: float
    object_ids: List[int]
    a: float
    b: float
    stats: SearchStats = field(default_factory=SearchStats)
    cover_stats: Optional[CoverStats] = None
    status: str = "ok"
    upper_bound: Optional[float] = None
    rung: Optional[str] = None

    @property
    def region(self) -> Rect:
        """The returned ``a x b`` region as a rectangle."""
        return Rect.from_center(self.point, width=self.b, height=self.a)

    @property
    def gap(self) -> float:
        """Optimality gap: how far the optimum may exceed this score.

        Zero when the result is proven optimal; otherwise
        ``upper_bound - score`` (floored at zero).  Sound whenever
        :attr:`upper_bound` is — the true optimum is within ``gap`` of
        :attr:`score`.
        """
        if self.upper_bound is None:
            return 0.0
        return max(0.0, self.upper_bound - self.score)


def merge_anytime(
    best: Optional[BRSResult], candidate: BRSResult, status: Optional[str] = None
) -> BRSResult:
    """Fold a later degradation-ladder rung into the running best answer.

    Keeps the higher-scoring region and the *tighter* of the sound upper
    bounds — each rung's bound caps the same global optimum, so their
    minimum does too.

    Args:
        best: the answer accumulated from earlier rungs (None on the first).
        candidate: the latest rung's answer.
        status: override for the merged result's status (e.g. ``"degraded"``
            when a fallback rung completed); defaults to the winner's.
    """
    if best is None:
        winner = candidate
        upper = candidate.upper_bound
    else:
        winner = candidate if candidate.score > best.score else best
        bounds = [
            r.upper_bound for r in (best, candidate) if r.upper_bound is not None
        ]
        upper = min(bounds) if bounds else None
        if upper is not None:
            upper = max(upper, winner.score)
    return BRSResult(
        point=winner.point,
        score=winner.score,
        object_ids=winner.object_ids,
        a=winner.a,
        b=winner.b,
        stats=winner.stats,
        cover_stats=winner.cover_stats,
        status=status if status is not None else winner.status,
        upper_bound=upper,
        rung=winner.rung,
    )
