"""An STR-packed R-tree for rectangular range queries.

The grid index (:mod:`repro.index.grid`) is ideal when query rectangles
have a known, uniform scale — the BRS common case.  Exploratory workloads,
however, re-query the same data at wildly different scales (the paper's
1q…20q sweeps), where a height-balanced R-tree is the classic answer.

This is a bulk-loaded tree using Sort-Tile-Recursive packing
[Leutenegger et al., 1997]: sort by x, cut into vertical runs, sort each
run by y, pack leaves of ``fanout`` entries; repeat on the parent level.
Packing yields near-perfectly filled nodes with O(n log n) build, which
suits the BRS session workload where the object set is a snapshot.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.geometry.point import Point
from repro.geometry.rect import Rect


class _Node:
    __slots__ = ("x_min", "x_max", "y_min", "y_max", "children", "object_ids")

    def __init__(self) -> None:
        self.x_min = math.inf
        self.x_max = -math.inf
        self.y_min = math.inf
        self.y_max = -math.inf
        self.children: Optional[List["_Node"]] = None
        self.object_ids: List[int] = []

    def grow(self, x_min: float, x_max: float, y_min: float, y_max: float) -> None:
        self.x_min = min(self.x_min, x_min)
        self.x_max = max(self.x_max, x_max)
        self.y_min = min(self.y_min, y_min)
        self.y_max = max(self.y_max, y_max)


class RTree:
    """A static R-tree over points, bulk-loaded with STR packing."""

    def __init__(self, points: Sequence[Point], fanout: int = 16) -> None:
        """Args:
        points: object locations; ids are positions in this sequence.
        fanout: maximum entries per node; 8–32 are all reasonable.

        Raises:
            ValueError: on empty input or a fanout below 2.
        """
        if not points:
            raise ValueError("cannot index zero points")
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        self._points = list(points)
        self._fanout = fanout
        self._root = self._bulk_load(list(range(len(points))))
        #: Range queries served; a plain int so the hot path stays cheap.
        #: Call sites publish it into the metrics registry in batches.
        self.n_queries = 0

    def _make_leaf(self, ids: List[int]) -> _Node:
        node = _Node()
        node.object_ids = ids
        for obj_id in ids:
            p = self._points[obj_id]
            node.grow(p.x, p.x, p.y, p.y)
        return node

    def _bulk_load(self, ids: List[int]) -> _Node:
        points = self._points
        fanout = self._fanout

        # Leaf level via Sort-Tile-Recursive.
        n_leaves = math.ceil(len(ids) / fanout)
        n_slices = math.ceil(math.sqrt(n_leaves))
        run = n_slices * fanout
        by_x = sorted(ids, key=lambda i: points[i].x)
        leaves: List[_Node] = []
        for start in range(0, len(by_x), run):
            strip = sorted(by_x[start : start + run], key=lambda i: points[i].y)
            for leaf_start in range(0, len(strip), fanout):
                leaves.append(self._make_leaf(strip[leaf_start : leaf_start + fanout]))

        # Pack parent levels until one root remains.
        level = leaves
        while len(level) > 1:
            parents: List[_Node] = []
            for start in range(0, len(level), fanout):
                parent = _Node()
                parent.children = level[start : start + fanout]
                for child in parent.children:
                    parent.grow(child.x_min, child.x_max, child.y_min, child.y_max)
                parents.append(parent)
            level = parents
        return level[0]

    @property
    def n_objects(self) -> int:
        """Objects in the index."""
        return len(self._points)

    @property
    def height(self) -> int:
        """Tree height (1 for a single leaf)."""
        height = 1
        node = self._root
        while node.children:
            node = node.children[0]
            height += 1
        return height

    def query_rect(self, rect: Rect) -> List[int]:
        """Return ids of points strictly inside ``rect`` (open semantics)."""
        self.n_queries += 1
        result: List[int] = []
        points = self._points
        stack = [self._root]
        while stack:
            node = stack.pop()
            # Prune: the node's bounding box must overlap the open query.
            if (
                node.x_min >= rect.x_max
                or node.x_max <= rect.x_min
                or node.y_min >= rect.y_max
                or node.y_max <= rect.y_min
            ):
                continue
            if node.children is not None:
                stack.extend(node.children)
                continue
            for obj_id in node.object_ids:
                if rect.contains_point(points[obj_id]):
                    result.append(obj_id)
        return result

    def query_center(self, center: Point, width: float, height: float) -> List[int]:
        """Return ids inside the ``width x height`` rectangle at ``center``."""
        return self.query_rect(Rect.from_center(center, width, height))

    def count_rect(self, rect: Rect) -> int:
        """Return the number of points strictly inside ``rect``."""
        return len(self.query_rect(rect))
