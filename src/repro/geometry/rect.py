"""Axis-aligned rectangles with open containment semantics.

Definition 2 of the paper excludes objects lying exactly on the boundary of a
query rectangle, so :meth:`Rect.contains_point` is *strict* (open rectangle).
Intersection tests between rectangles, used by the sweep-line machinery, test
whether the open interiors overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

from repro.geometry.point import Point


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle ``(x_min, x_max) x (y_min, y_max)``.

    The rectangle is treated as *open*: points on the boundary are outside.
    Construction validates that the rectangle is non-degenerate
    (``x_min < x_max`` and ``y_min < y_max``); a zero-area query rectangle is
    meaningless for BRS and is rejected early rather than silently returning
    empty answers.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self) -> None:
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(
                "degenerate rectangle: require x_min < x_max and "
                f"y_min < y_max, got {self!r}"
            )

    @classmethod
    def from_center(cls, center: Point, width: float, height: float) -> "Rect":
        """Build the ``width x height`` rectangle centered at ``center``.

        This is the :math:`r_p^{a,b}` notation of the paper with
        ``height = a`` and ``width = b``.
        """
        half_w = width / 2.0
        half_h = height / 2.0
        return cls(
            x_min=center.x - half_w,
            x_max=center.x + half_w,
            y_min=center.y - half_h,
            y_max=center.y + half_h,
        )

    @property
    def width(self) -> float:
        """Horizontal extent (the paper's ``b``)."""
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        """Vertical extent (the paper's ``a``)."""
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        """Area of the rectangle."""
        return self.width * self.height

    @property
    def center(self) -> Point:
        """Center point of the rectangle."""
        return Point((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)

    def contains_point(self, p: Point) -> bool:
        """Return True iff ``p`` is strictly inside this rectangle."""
        return self.x_min < p.x < self.x_max and self.y_min < p.y < self.y_max

    def contains_rect(self, other: "Rect") -> bool:
        """Return True iff ``other`` lies inside this rectangle (closed)."""
        return (
            self.x_min <= other.x_min
            and other.x_max <= self.x_max
            and self.y_min <= other.y_min
            and other.y_max <= self.y_max
        )

    def intersects(self, other: "Rect") -> bool:
        """Return True iff the open interiors of the rectangles overlap."""
        return (
            self.x_min < other.x_max
            and other.x_min < self.x_max
            and self.y_min < other.y_max
            and other.y_min < self.y_max
        )

    def intersects_x_range(self, x_min: float, x_max: float) -> bool:
        """Return True iff the rectangle's open x-extent overlaps the range."""
        return self.x_min < x_max and x_min < self.x_max

    def clipped_x(self, x_min: float, x_max: float) -> "Rect":
        """Return this rectangle with its x-extent clipped to a slice.

        The slicing optimization of Section 4.5 restricts each SIRI rectangle
        to the vertical slice being processed; the y-extent is unchanged.
        """
        return Rect(
            x_min=max(self.x_min, x_min),
            x_max=min(self.x_max, x_max),
            y_min=self.y_min,
            y_max=self.y_max,
        )

    def as_tuple(self) -> Tuple[float, float, float, float]:
        """Return ``(x_min, x_max, y_min, y_max)``."""
        return (self.x_min, self.x_max, self.y_min, self.y_max)


@dataclass(frozen=True)
class BBox:
    """A *closed*, possibly degenerate, axis-aligned bounding box.

    :class:`Rect` models query rectangles and deliberately rejects
    degenerate extents; a *touched region* — the bounding box of the
    points a mutation batch inserted or deleted — can legitimately be a
    single point or a line segment, and a cached answer whose window
    merely *touches* it must still be considered stale.  Hence a second
    type with closed semantics: boundary contact counts as overlap.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self) -> None:
        if not (self.x_min <= self.x_max and self.y_min <= self.y_max):
            raise ValueError(f"inverted bounding box: {self!r}")

    @classmethod
    def of_points(cls, points: Iterable[Point]) -> "BBox":
        """Bounding box of a non-empty point collection.

        Raises:
            ValueError: if ``points`` is empty.
        """
        pts: Sequence[Point] = list(points)
        if not pts:
            raise ValueError("BBox.of_points requires at least one point")
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        return cls(min(xs), max(xs), min(ys), max(ys))

    def union(self, other: "BBox") -> "BBox":
        """The smallest box containing both."""
        return BBox(
            min(self.x_min, other.x_min),
            max(self.x_max, other.x_max),
            min(self.y_min, other.y_min),
            max(self.y_max, other.y_max),
        )

    def touches_rect(self, rect: Rect) -> bool:
        """Closed overlap test against a query rectangle.

        A degenerate box (single point, segment) on the rectangle's
        boundary still touches it — the conservative answer the cache
        invalidation needs.
        """
        return (
            self.x_min <= rect.x_max
            and rect.x_min <= self.x_max
            and self.y_min <= rect.y_max
            and rect.y_min <= self.y_max
        )

    def as_tuple(self) -> Tuple[float, float, float, float]:
        """Return ``(x_min, x_max, y_min, y_max)``."""
        return (self.x_min, self.x_max, self.y_min, self.y_max)


def siri_rect(obj_location: Point, a: float, b: float) -> Rect:
    """Return the SIRI rectangle of an object (Section 4.1).

    For the reduction from BRS to SIRI, each spatial object ``o`` is replaced
    by the ``a x b`` rectangle *centered at* ``o``.  By Lemma 1, a point ``p``
    lies inside this rectangle iff ``o`` lies inside the query rectangle
    centered at ``p``.

    Args:
        obj_location: location of the spatial object.
        a: query-rectangle height.
        b: query-rectangle width.
    """
    return Rect.from_center(obj_location, width=b, height=a)


def bounding_rect(points: Iterable[Point], pad: float = 0.0) -> Rect:
    """Return the minimal axis-aligned rectangle enclosing ``points``.

    Args:
        points: a non-empty iterable of points.
        pad: optional symmetric padding added to every side; use a small
            positive pad when the result must strictly contain the points
            (our rectangles are open).

    Raises:
        ValueError: if ``points`` is empty or the padded rectangle would be
            degenerate (all points on one vertical/horizontal line with
            ``pad == 0``).
    """
    pts: Sequence[Point] = list(points)
    if not pts:
        raise ValueError("bounding_rect requires at least one point")
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    return Rect(
        x_min=min(xs) - pad,
        x_max=max(xs) + pad,
        y_min=min(ys) - pad,
        y_max=max(ys) + pad,
    )


def space_of(points: Sequence[Point]) -> Rect:
    """Bounding box of ``points``, padded so it is never degenerate."""
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    pad_x = max((max(xs) - min(xs)) * 0.01, 1.0)
    pad_y = max((max(ys) - min(ys)) * 0.01, 1.0)
    return Rect(min(xs) - pad_x, max(xs) + pad_x, min(ys) - pad_y, max(ys) + pad_y)


def grown_space(space: Rect, points: Sequence[Point]) -> Rect:
    """``space`` itself when it holds every point (closed), else grown.

    The grown space is the union of ``space`` and :func:`space_of` the
    points.  It never shrinks: a served dataset keeps the ``k*q`` ->
    ``(a, b)`` quantization stable, so cached keys stay reachable.
    """
    inside = all(
        space.x_min <= p.x <= space.x_max and space.y_min <= p.y <= space.y_max
        for p in points
    )
    if inside:
        return space
    grown = space_of(points)
    return Rect(
        min(space.x_min, grown.x_min),
        max(space.x_max, grown.x_max),
        min(space.y_min, grown.y_min),
        max(space.y_max, grown.y_max),
    )
