"""A region point-quadtree.

The quadtree recursively partitions a rectangular space into four equal
quadrants until each leaf holds at most one object (Section 5.3 of the
paper).  CoverBRS uses it to select a c-cover: the tree is *truncated* at the
depth at which a node's region fits inside a ``ca x cb`` rectangle, and each
surviving node contributes one representative point.

Coordinates shared by several objects would recurse forever, so subdivision
stops at ``max_depth``; leaves at the depth cap may hold several (coincident
or near-coincident) objects, and the cover-selection code treats each of
those objects as its own representative, which keeps the cover property
exact.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.geometry.point import Point
from repro.geometry.rect import Rect


class QuadtreeNode:
    """One node of the quadtree.

    Attributes:
        rect: the node's region.
        depth: 0 for the root; children are one deeper.
        children: the four quadrant children (``None`` for a leaf), ordered
            (SW, SE, NW, NE).
        object_ids: ids stored at this node; non-empty only for leaves.
        count: objects stored in this node's whole subtree.
    """

    __slots__ = ("rect", "depth", "children", "object_ids", "count")

    def __init__(self, rect: Rect, depth: int) -> None:
        self.rect = rect
        self.depth = depth
        self.children: Optional[Tuple["QuadtreeNode", ...]] = None
        self.object_ids: List[int] = []
        self.count = 0

    @property
    def is_leaf(self) -> bool:
        """True iff the node has no children."""
        return self.children is None

    @property
    def center(self) -> Point:
        """Center of the node's region (the ``v.t`` of an internal node)."""
        return self.rect.center


class Quadtree:
    """Point quadtree over a snapshot of the objects, built eagerly."""

    def __init__(
        self,
        points: Sequence[Point],
        space: Optional[Rect] = None,
        max_depth: int = 40,
    ) -> None:
        """Args:
        points: object locations; object ids are positions in this sequence.
        space: the indexed space; defaults to the points' bounding box
            (slightly padded so every point is interior).
        max_depth: subdivision cap guarding against coincident points.

        Raises:
            ValueError: if ``points`` is empty, or ``space`` does not contain
                every point.
        """
        if not points:
            raise ValueError("cannot build a quadtree over zero points")
        if space is None:
            xs = [p.x for p in points]
            ys = [p.y for p in points]
            pad_x = max((max(xs) - min(xs)) * 1e-6, 1e-9)
            pad_y = max((max(ys) - min(ys)) * 1e-6, 1e-9)
            space = Rect(
                min(xs) - pad_x, max(xs) + pad_x, min(ys) - pad_y, max(ys) + pad_y
            )
        else:
            for i, p in enumerate(points):
                inside = (
                    space.x_min <= p.x <= space.x_max
                    and space.y_min <= p.y <= space.y_max
                )
                if not inside:
                    raise ValueError(f"point {i} at {p} lies outside the space")
        self._points = list(points)
        self._max_depth = max_depth
        self.root = QuadtreeNode(space, depth=0)
        self.root.object_ids = list(range(len(points)))
        self.root.count = len(points)
        self._subdivide(self.root)

    @property
    def space(self) -> Rect:
        """The indexed space (root region)."""
        return self.root.rect

    @property
    def points(self) -> Sequence[Point]:
        """The indexed points."""
        return self._points

    @property
    def n_objects(self) -> int:
        """Objects in the index."""
        return len(self._points)

    def _subdivide(self, node: QuadtreeNode) -> None:
        """Recursively split ``node`` until leaves hold at most one object."""
        if len(node.object_ids) <= 1 or node.depth >= self._max_depth:
            return
        r = node.rect
        mid_x = (r.x_min + r.x_max) / 2.0
        mid_y = (r.y_min + r.y_max) / 2.0
        # Stop when float precision is exhausted: quadrant rectangles would
        # be degenerate (coincident or near-coincident points end up in one
        # multi-object leaf, which the cover selection handles exactly).
        if not (r.x_min < mid_x < r.x_max and r.y_min < mid_y < r.y_max):
            return
        quadrants = (
            Rect(r.x_min, mid_x, r.y_min, mid_y),  # SW
            Rect(mid_x, r.x_max, r.y_min, mid_y),  # SE
            Rect(r.x_min, mid_x, mid_y, r.y_max),  # NW
            Rect(mid_x, r.x_max, mid_y, r.y_max),  # NE
        )
        children = tuple(
            QuadtreeNode(quad, node.depth + 1) for quad in quadrants
        )
        points = self._points
        for obj_id in node.object_ids:
            p = points[obj_id]
            # Half-open split: the midlines belong to the east/north child,
            # so each point lands in exactly one quadrant.
            index = (1 if p.x >= mid_x else 0) + (2 if p.y >= mid_y else 0)
            children[index].object_ids.append(obj_id)
        node.object_ids = []
        node.children = children
        for child in children:
            child.count = len(child.object_ids)
            self._subdivide(child)

    def truncated_nodes(self, depth: int) -> Iterator[QuadtreeNode]:
        """Yield the frontier obtained by cutting the tree at ``depth``.

        The frontier consists of every node at exactly ``depth`` plus every
        leaf shallower than ``depth``; together their regions partition the
        space and their object sets partition the objects.  Nodes with no
        objects in their subtree are skipped.
        """
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.count == 0:
                continue  # an empty leaf
            if node.depth == depth or node.is_leaf:
                yield node
            else:
                stack.extend(node.children or ())

    def objects_under(self, node: QuadtreeNode) -> List[int]:
        """Return all object ids stored in ``node``'s subtree."""
        ids: List[int] = []
        stack = [node]
        while stack:
            current = stack.pop()
            if current.is_leaf:
                ids.extend(current.object_ids)
            else:
                stack.extend(current.children or ())
        return ids

    def leaf_count(self) -> int:
        """Return the number of leaves (diagnostics/tests)."""
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                count += 1
            else:
                stack.extend(node.children or ())
        return count
