"""Exploratory search sessions (the paper's motivating workflow).

Section 1 frames BRS as interactive: a user "initiates a search with a
specific query rectangle, views the results, iteratively refines the query
rectangle (by increasing or decreasing a or b) and executes the refined
search until she is satisfied".  :class:`ExplorationSession` is that loop
as an object: it owns the dataset-lifetime state (the quadtree for c-cover
selection, the columns of exact solves, an R-tree for result inspection) and
answers a stream of differently-sized queries, keeping a history the user
can scroll back through.

The session also implements the natural speed/quality escalation: answer
interactively with CoverBRS first, and only pay for the exact search when
the user asks to ``confirm()`` a shortlisted query.  An interactive loop
must also *stay* interactive, so the session is deadline-aware: give it
(or a single call) a time budget and every answer falls down the shared
ladder of :func:`repro.core.brs.solve` — exact → cover → coarse grid scan
— rather than stalling; transient score-function failures can be
absorbed with a built-in retry policy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import brs
from repro.core.result import BRSResult
from repro.functions.base import SetFunction
from repro.geometry.point import Point
from repro.index.quadtree import Quadtree
from repro.index.rtree import RTree
from repro.obs.metrics import active_registry, counter_delta
from repro.obs.trace import active_tracer
from repro.runtime.budget import Budget
from repro.runtime.errors import InvalidQueryError
from repro.runtime.faults import RetryingFunction


#: QueryRecord.method for each ladder rung.
_METHOD_OF_RUNG = {
    brs.RUNG_EXACT: "slice", brs.RUNG_COVER: "cover", brs.RUNG_GRID: "grid",
}


@dataclass(frozen=True)
class QueryRecord:
    """One step of an exploration: what was asked and what came back.

    ``method`` names the solver that actually produced the answer —
    ``"cover"``, ``"slice"``, or ``"grid"`` — which under deadline pressure
    may be a weaker one than the call asked for.  ``seconds`` is the query's
    wall time; ``metrics`` holds this query's share of the registry counters
    (a :func:`~repro.obs.metrics.counter_delta`) when a metrics scope is
    active, else ``None``.  ``cache_hit`` says whether the answer came from
    the session's result cache: ``True``/``False`` when a cache is
    configured, ``None`` when the session runs uncached.
    """

    a: float
    b: float
    method: str
    result: BRSResult
    seconds: float = 0.0
    metrics: Optional[Dict[str, float]] = field(default=None, compare=False)
    cache_hit: Optional[bool] = field(default=None, compare=False)


class ExplorationSession:
    """A stateful refine-and-rerun loop over one dataset and one score.

    Args:
        points: object locations (fixed for the session).
        f: submodular monotone score over object ids.
        c: cover parameter for the interactive (approximate) answers.
        theta: slice-width multiple for both solvers.
        deadline: optional per-query wall-clock budget in seconds, applied
            to every ``explore``/``confirm`` call that does not pass its
            own ``timeout``.  Answers fall down the ladder instead of
            overrunning it.
        max_evals: optional per-query cap on score evaluations (same
            scoping rules as ``deadline``).
        retries: absorb this many transient
            :class:`~repro.runtime.errors.EvaluationError` failures per
            evaluation, with exponential backoff, before giving up.
        cache: optional :class:`~repro.serve.cache.ResultCache`; repeated
            queries at the same (quantized) rectangle are answered from it
            without re-solving, and each :class:`QueryRecord` notes the
            hit/miss.  Only ``status == "ok"`` answers are cached, so a
            degraded answer is always re-attempted.
        dataset_id: cache namespace for this session's dataset (relevant
            when several sessions share one cache).

    Raises:
        InvalidQueryError: on an empty dataset, ``c`` outside (0, 1), or a
            non-positive or non-finite ``theta``.
    """

    def __init__(
        self,
        points: Sequence[Point],
        f: SetFunction,
        c: float = 1.0 / 3.0,
        theta: float = 1.0,
        deadline: Optional[float] = None,
        max_evals: Optional[int] = None,
        retries: int = 0,
        cache: Optional[object] = None,
        dataset_id: str = "session",
    ) -> None:
        if not points:
            raise InvalidQueryError("a session needs at least one object")
        if not 0.0 < c < 1.0:
            raise InvalidQueryError(f"c must be in (0, 1), got {c}")
        if not (theta > 0 and math.isfinite(theta)):
            raise InvalidQueryError(f"theta must be positive and finite, got {theta}")
        self._points = list(points)
        self._f: SetFunction = (
            RetryingFunction(f, max_retries=retries) if retries > 0 else f
        )
        self._quadtree = Quadtree(self._points)
        self._rtree = RTree(self._points)
        self._columns = None  # built on the first exact solve
        self._c = c
        self._theta = theta
        self._deadline = deadline
        self._max_evals = max_evals
        self._history: List[QueryRecord] = []
        self._cache = cache
        self._dataset_id = dataset_id
        self._version = 1

    @property
    def history(self) -> Sequence[QueryRecord]:
        """All queries issued so far, oldest first."""
        return tuple(self._history)

    @property
    def last(self) -> Optional[QueryRecord]:
        """The most recent query, if any."""
        return self._history[-1] if self._history else None

    def _budget(self, timeout: Optional[float]) -> Optional[Budget]:
        """Per-call budget: explicit timeout wins over the session default."""
        if timeout is not None:
            return Budget(deadline=timeout)
        return Budget.of(timeout=self._deadline, max_evals=self._max_evals)

    def _record(
        self,
        a: float,
        b: float,
        method: str,
        result: BRSResult,
        start_time: float,
        before: Optional[Dict[str, float]],
        cache_hit: Optional[bool] = None,
    ) -> None:
        """Append a history record with per-query timing and metric deltas."""
        seconds = time.perf_counter() - start_time
        registry = active_registry()
        metrics: Optional[Dict[str, float]] = None
        if registry.enabled and before is not None:
            metrics = counter_delta(before, registry.snapshot())
        if registry.enabled:
            registry.histogram(
                "brs_session_query_seconds",
                help="exploration-session query wall time",
            ).observe(seconds)
        self._history.append(
            QueryRecord(a, b, method, result, seconds, metrics, cache_hit)
        )

    def _cache_key(self, mode: str, a: float, b: float):
        """Normalized cache key for one query, or ``None`` when uncached.

        The function key folds in the query mode and solver parameters, so
        ``explore`` and ``confirm`` answers (different contracts) can never
        shadow each other, nor can sessions with different ``c``/``theta``.
        """
        if self._cache is None:
            return None
        # Imported lazily: repro.serve depends on repro.core, so this
        # module cannot import it back at import time.
        from repro.serve.model import normalize_query

        fn_key = f"session.{mode}:c={self._c}:theta={self._theta}"
        return normalize_query(self._dataset_id, self._version, fn_key, a, b)

    def invalidate_cache(self) -> int:
        """Drop this session's cached answers; returns the new version.

        Call when the score function's external inputs changed.  The bump
        makes every previously written key unreachable even if another
        session re-fills the shared cache concurrently.
        """
        self._version += 1
        if self._cache is not None:
            self._cache.purge_dataset(self._dataset_id)
        return self._version

    def explore(
        self, a: float, b: float, timeout: Optional[float] = None
    ) -> BRSResult:
        """Answer interactively (CoverBRS; constant-factor approximate).

        Under a budget the answer degrades to a coarse grid scan if even
        the approximate solver cannot finish in time.

        Args:
            a: query-rectangle height.
            b: query-rectangle width.
            timeout: wall-clock budget for this call only (overrides the
                session deadline).

        Raises:
            InvalidQueryError: on a non-positive rectangle.
        """
        return self._query("explore", brs.RUNG_COVER, a, b, timeout)

    def confirm(
        self,
        a: Optional[float] = None,
        b: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> BRSResult:
        """Answer exactly; defaults to the last explored size.

        Under a budget this walks the full ladder: exact → cover → grid
        scan, each rung inheriting the remainder, so a confirmation
        request comes back by the deadline with the strongest answer a
        rung could complete (``result.status`` says which contract was
        met).

        Args:
            a: query-rectangle height (defaults to the last query's).
            b: query-rectangle width (defaults to the last query's).
            timeout: wall-clock budget for this call only (overrides the
                session deadline).

        Raises:
            InvalidQueryError: when no size is given and nothing was
                explored yet.
        """
        if a is None or b is None:
            if self.last is None:
                raise InvalidQueryError("no previous query to confirm; pass a and b")
            a = self.last.a if a is None else a
            b = self.last.b if b is None else b
        return self._query("confirm", brs.RUNG_EXACT, a, b, timeout)

    def _query(
        self, mode: str, rung: str, a: float, b: float, timeout: Optional[float]
    ) -> BRSResult:
        """One cached, recorded ladder call starting at ``rung``."""
        budget = self._budget(timeout)
        registry = active_registry()
        before = registry.snapshot() if registry.enabled else None
        start_time = time.perf_counter()
        key = self._cache_key(mode, a, b)
        if key is not None:
            hit = self._cache.get(key)
            if hit is not None:
                method, result = hit
                self._record(a, b, method, result, start_time, before,
                             cache_hit=True)
                return result
        if rung == brs.RUNG_EXACT and self._columns is None:
            # Resolved per call: repro.columnar imports repro.core at
            # load time.
            from repro.columnar.dataset import ColumnarDataset

            self._columns = ColumnarDataset.from_points(self._points)
        with active_tracer().span(f"session.{mode}", a=a, b=b):
            result = brs.solve(
                self._points, self._f, a, b, rung=rung, budget=budget,
                theta=self._theta, c=self._c, quadtree=self._quadtree,
                columns=self._columns,
            )
        method = _METHOD_OF_RUNG[result.rung]
        if key is not None and result.status == "ok":
            self._cache.put(key, (method, result))
        self._record(a, b, method, result, start_time, before,
                     cache_hit=False if key is not None else None)
        return result

    def refine(self, scale_a: float = 1.0, scale_b: float = 1.0) -> BRSResult:
        """Re-explore with the last rectangle scaled by the given factors.

        This is the paper's "increase or decrease a or b" step::

            session.explore(a=100, b=100)
            session.refine(scale_a=1.5)        # taller window
            session.refine(scale_b=0.5)        # then narrower

        Raises:
            InvalidQueryError: if nothing was explored yet or a factor is
                not positive.
        """
        if self.last is None:
            raise InvalidQueryError("nothing to refine; call explore() first")
        if scale_a <= 0 or scale_b <= 0:
            raise InvalidQueryError("scale factors must be positive")
        return self.explore(self.last.a * scale_a, self.last.b * scale_b)

    def inspect(self, result: BRSResult) -> List[Tuple[int, Point]]:
        """Return ``(object id, location)`` pairs inside a result's region.

        Uses the session R-tree, so inspection stays cheap even when the
        user clicks through many results.
        """
        ids = self._rtree.query_rect(result.region)
        registry = active_registry()
        if registry.enabled:
            registry.counter(
                "brs_rtree_queries_total", help="R-tree range queries served"
            ).inc()
        return [(obj_id, self._points[obj_id]) for obj_id in sorted(ids)]

    def best_so_far(self) -> Optional[QueryRecord]:
        """The highest-scoring query of the session (ties: earliest)."""
        if not self._history:
            return None
        return max(self._history, key=lambda record: record.result.score)
