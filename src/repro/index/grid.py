"""A uniform grid index for rectangular range queries.

Range queries over a static point set are needed in several places: the
greedy c-cover baseline issues one per candidate (Section 5.3 discusses their
cost), result reporting evaluates ``f`` on the objects inside the returned
region, and the influence substrate maps a region to the users who check in
there.  A uniform grid gives expected O(k + cells touched) queries with no
balancing logic, which is the right tool for the mostly-uniform-scale query
rectangles of BRS workloads.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from repro.geometry.point import Point
from repro.geometry.rect import Rect


class GridIndex:
    """Uniform grid over a point set.

    Cells are half-open so every point belongs to exactly one cell.  Queries
    use the open-rectangle semantics of the paper: points on the query
    boundary are excluded.
    """

    def __init__(self, points: Sequence[Point], cell_size: float) -> None:
        """Args:
        points: object locations; ids are positions in this sequence.
        cell_size: edge length of the square grid cells.  A natural choice
            is the query-rectangle scale, so a query touches O(1) cells.

        Raises:
            ValueError: if ``cell_size`` is not positive or no points given.
        """
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        if not points:
            raise ValueError("cannot index zero points")
        self._points = list(points)
        self._cell_size = float(cell_size)
        self._cells: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        for obj_id, p in enumerate(points):
            self._cells[self._cell_of(p.x, p.y)].append(obj_id)
        self._counter = None
        #: Range queries served; a plain int so the hot path stays cheap.
        #: Call sites publish it into the metrics registry in batches.
        self.n_queries = 0

    #: Below this many objects the bucket walk beats the one-time
    #: sorted-column build, so counts stay on the object path.
    COUNT_FAST_PATH_MIN = 256

    @property
    def cell_size(self) -> float:
        """Edge length of the grid cells."""
        return self._cell_size

    @property
    def n_objects(self) -> int:
        """Objects in the index."""
        return len(self._points)

    def _cell_of(self, x: float, y: float) -> Tuple[int, int]:
        return (math.floor(x / self._cell_size), math.floor(y / self._cell_size))

    def query_rect(self, rect: Rect) -> List[int]:
        """Return ids of points strictly inside ``rect``."""
        self.n_queries += 1
        cx_min, cy_min = self._cell_of(rect.x_min, rect.y_min)
        cx_max, cy_max = self._cell_of(rect.x_max, rect.y_max)
        points = self._points
        result: List[int] = []
        for cx in range(cx_min, cx_max + 1):
            for cy in range(cy_min, cy_max + 1):
                bucket = self._cells.get((cx, cy))
                if not bucket:
                    continue
                for obj_id in bucket:
                    if rect.contains_point(points[obj_id]):
                        result.append(obj_id)
        return result

    def count_rect(self, rect: Rect) -> int:
        """Return the number of points strictly inside ``rect``.

        Large indexes serve counts from a lazily built
        :class:`~repro.columnar.rangecount.SortedRangeCounter` — two
        binary searches plus one vectorized mask instead of a cell-bucket
        walk; below :attr:`COUNT_FAST_PATH_MIN` objects the build cost is
        not worth amortizing and counts stay on the bucket path.
        """
        if self.n_objects >= self.COUNT_FAST_PATH_MIN:
            counter = self._range_counter()
            if counter is not None:
                self.n_queries += 1
                return counter.count(rect.x_min, rect.x_max, rect.y_min, rect.y_max)
        return len(self.query_rect(rect))

    def _range_counter(self):
        """The sorted-column counter, built on first use."""
        if self._counter is None:
            try:
                from repro.columnar.rangecount import SortedRangeCounter
            except ImportError:
                return None
            self._counter = SortedRangeCounter(self._points)
        return self._counter

    def query_center(self, center: Point, width: float, height: float) -> List[int]:
        """Return ids inside the ``width x height`` rectangle at ``center``."""
        return self.query_rect(Rect.from_center(center, width, height))
