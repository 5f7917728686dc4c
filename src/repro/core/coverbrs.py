"""CoverBRS — the constant-factor approximate BRS algorithm (Section 5).

CoverBRS trades a bounded amount of quality for speed on large or dense
instances:

1. select a c-cover ``T`` of the objects with the O(n) quadtree heuristic;
2. build the reduced instance: function ``f_T`` over the representatives
   (Definition 8) and query rectangle ``(1-c)a x (1-c)b``;
3. solve the reduced instance exactly with SliceBRS (the exact entry,
   :func:`~repro.columnar.solvers.columnar_best_region`, so a coverage or
   SUM reduction runs on the columnar kernel);
4. report the found center's score *on the original instance*.

The returned score is within a constant factor of the optimum: 1/4 for
``c = 1/3`` (Theorem 4) and 1/9 for ``c = 1/2`` (Theorem 6); both bounds are
tight (Theorems 5 and 7).
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.core.result import BRSResult
from repro.core.siri import objects_in_region
from repro.core.stats import CoverStats
from repro.cover.quadtree_cover import select_cover
from repro.functions.base import SetFunction
from repro.functions.reduced import reduce_over_cover
from repro.functions.validate import check_submodular_monotone
from repro.geometry.point import Point
from repro.index.quadtree import Quadtree
from repro.obs.metrics import active_registry
from repro.obs.trace import active_tracer
from repro.runtime.budget import Budget, effective_budget
from repro.runtime.errors import InternalInvariantError, InvalidQueryError


#: Known (c -> approximation ratio) pairs proved in the paper.
APPROXIMATION_RATIOS = {1.0 / 3.0: 0.25, 0.5: 1.0 / 9.0}


class CoverBRS:
    """Approximate best-region search over a c-cover.

    Args:
        c: cover parameter in (0, 1).  The paper's *CoverBRS4* is
            ``c = 1/3`` (1/4-approximate) and *CoverBRS9* is ``c = 1/2``
            (1/9-approximate).
        theta: slice-width multiple handed to the inner SliceBRS.
        validate: verify the selected cover's Definition-7 property and
            spot-check that the reduced function is submodular monotone
            (slow; for debugging).

    Raises:
        InvalidQueryError: if ``c`` is outside (0, 1).
    """

    def __init__(self, c: float = 1.0 / 3.0, theta: float = 1.0, validate: bool = False) -> None:
        if not 0.0 < c < 1.0:
            raise InvalidQueryError(f"c must be in (0, 1), got {c}")
        self.c = c
        self.theta = theta
        self.validate = validate

    def solve(
        self,
        points: Sequence[Point],
        f: SetFunction,
        a: float,
        b: float,
        quadtree: Optional[Quadtree] = None,
        budget: Optional[Budget] = None,
    ) -> BRSResult:
        """Return an approximately-best ``a x b`` region.

        Args:
            points: object locations.
            f: submodular monotone aggregate score over object ids.
            a: query-rectangle height.
            b: query-rectangle width.
            quadtree: optional pre-built index over ``points`` (reused
                across queries in exploratory search).
            budget: optional execution budget, inherited by the inner
                SliceBRS run over the reduced instance.  On expiry the
                result carries ``status="timeout"`` and a sound
                ``upper_bound`` (``f`` of all objects — the reduced
                instance's own bound does not cap the original optimum).

        Raises:
            InvalidQueryError: on an empty instance or non-positive
                rectangle.
        """
        budget = effective_budget(budget)
        tracer = active_tracer()
        registry = active_registry()
        start_time = time.perf_counter()
        with tracer.span(
            "coverbrs.solve", n_objects=len(points), c=self.c, theta=self.theta
        ):
            with tracer.span("coverbrs.select_cover"):
                cover = select_cover(points, self.c, a, b, quadtree=quadtree)
            if self.validate and not cover.covers(points, a, b):
                raise InternalInvariantError(
                    "quadtree selection violated the c-cover property"
                )
            tracer.event(
                "coverbrs.cover_selected", size=cover.size, level=cover.level
            )

            reduced_f = reduce_over_cover(f, cover.groups)
            if self.validate:
                n_reps = len(cover.points)
                check_submodular_monotone(
                    reduced_f, list(range(0, n_reps, max(1, n_reps // 16)))
                )
            # Resolved per call: repro.columnar imports repro.core at load
            # time.
            from repro.columnar.solvers import columnar_best_region

            reduced = columnar_best_region(
                cover.points, reduced_f, (1.0 - self.c) * a, (1.0 - self.c) * b,
                theta=self.theta, budget=budget,
            )

            # Quality is always measured on the original instance (Section
            # 6.1): the chosen center, scored with the original f over the
            # full a x b rectangle.  By Lemma 11 this can only improve on
            # the reduced score.
            object_ids = objects_in_region(points, reduced.point, a, b)
            score = f.value(object_ids)
        if registry.enabled:
            # The inner SliceBRS run already published the shared search
            # counters; only the cover-specific accounting is added here.
            registry.counter(
                "brs_coverbrs_solves_total", help="completed CoverBRS solves"
            ).inc()
            registry.counter(
                "brs_cover_representatives_total",
                help="c-cover representatives selected (|T|)",
            ).inc(cover.size)
            registry.gauge(
                "brs_cover_last_size", help="|T| of the most recent c-cover"
            ).set(cover.size)
            registry.gauge(
                "brs_cover_last_level",
                help="quadtree truncation depth of the most recent c-cover",
            ).set(cover.level)
            registry.histogram(
                "brs_coverbrs_solve_seconds", help="CoverBRS solve wall time"
            ).observe(time.perf_counter() - start_time)
        upper_bound: Optional[float] = None
        if reduced.status != "ok":
            upper_bound = max(score, f.value(range(len(points))))
        elif self.guarantee is not None:
            # score >= guarantee * OPT (Theorems 4/6), so OPT <= score/ratio.
            upper_bound = score / self.guarantee if score > 0 else None
        return BRSResult(
            point=reduced.point,
            score=score,
            object_ids=object_ids,
            a=a,
            b=b,
            stats=reduced.stats,
            cover_stats=CoverStats(
                n_original=len(points),
                n_cover=cover.size,
                level=cover.level,
                inner=reduced.stats,
            ),
            status=reduced.status,
            upper_bound=upper_bound,
        )

    @property
    def guarantee(self) -> Optional[float]:
        """The proved approximation ratio for this ``c``, if known."""
        for c_known, ratio in APPROXIMATION_RATIOS.items():
            if abs(self.c - c_known) < 1e-12:
                return ratio
        return None
