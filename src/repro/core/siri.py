"""The SIRI reduction (Section 4.1).

The BRS problem over objects is reduced to the *submodular weighted rectangle
intersection* problem over rectangles: each object ``o`` becomes the ``a x b``
rectangle centered at ``o``, and by Lemma 1 / Theorem 1 a point maximizing
``h`` over affected rectangles is a BRS answer.

The sweep-line code keeps rectangles as flat tuples
``(x_min, x_max, y_min, y_max, obj_id)`` rather than :class:`Rect` objects —
they are created in bulk (one per object per intersected slice) and only ever
read field-wise, so plain tuples are both faster and lighter.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.runtime.errors import InvalidQueryError

#: (x_min, x_max, y_min, y_max, obj_id)
RectRow = Tuple[float, float, float, float, int]


def band_ends(coords: np.ndarray, half: float) -> Tuple[np.ndarray, np.ndarray]:
    """Each coordinate's band of region centers, exact to the float.

    The region at center ``c`` holds coordinate ``v`` when
    ``abs(v - c) < half`` (:func:`objects_in_region`'s predicate, evaluated
    in floats).  The qualifying centers form one run of floats; this
    returns, per coordinate, the first float of that run and the first
    float above it, so ``lo <= c < hi`` holds exactly when the predicate
    does.

    Args:
        coords: object coordinates on one axis.
        half: half the region's extent on that axis (``b / 2`` or ``a / 2``).
    """
    n = coords.size
    ends = _ends(np.concatenate((coords, coords)), [half], n)
    return ends[:n], ends[n:]


def _ends(coords: np.ndarray, halves: Sequence[float], n: int) -> np.ndarray:
    """Band ends for blocks of ``n`` coordinates, all in one pass.

    Blocks come in pairs, one pair per entry of ``halves``: the lower
    ends, then the upper ends, of the same ``n`` coordinates.  A band's
    boundary lies at the real number ``v -/+ t``, ``t`` halfway between
    ``half`` and the float below it: a difference rounds below ``half``
    (inside) exactly when it is below ``t``, or equal to it and rounded
    to even downwards.  Knuth's two-sum gives ``v -/+ half`` exactly, so
    one rounding yields the float nearest the boundary, and no float lies
    between it and the boundary.  A lower end is that float when it is
    inside the band, else the float above it; an upper end is that float
    when it is outside, else the float above it.
    """
    def per_block(values: Sequence[float]) -> np.ndarray:
        return np.repeat(np.asarray(values, dtype=np.float64), n)

    half = per_block([h for h in halves for _ in (0, 1)])
    away = per_block([side for _ in halves for side in (-1.0, 1.0)])
    slack = per_block(
        [(h - math.nextafter(h, 0.0)) / 2.0 for h in halves for _ in (0, 1)]
    )
    total, err = _two_sum(coords, away * half)
    nearest = total + (err - away * slack)
    inside = np.abs(coords - nearest) < half
    return np.where(
        inside == (away < 0), nearest, np.nextafter(nearest, np.inf)
    )


def _two_sum(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``a + b`` as a rounded sum and its exact rounding error (Knuth)."""
    total = a + b
    b_part = total - a
    return total, (a - (total - b_part)) + (b - b_part)


def _check_instance(points: Sequence[Point], a: float, b: float) -> None:
    """Reject a bad rectangle or an empty instance.

    Raises:
        InvalidQueryError: if the rectangle size is not positive and
            finite, or there are no objects (the BRS optimum would be
            undefined).
    """
    if not (a > 0 and b > 0 and math.isfinite(a) and math.isfinite(b)):
        raise InvalidQueryError(
            f"query rectangle must have positive finite size, got {a} x {b}"
        )
    if not points:
        raise InvalidQueryError("BRS requires at least one spatial object")


def _non_finite(obj_id: int, p: Point) -> InvalidQueryError:
    """The error for a non-finite coordinate.

    NaN coordinates would silently corrupt the event sort order; the row
    builders fail loudly instead.
    """
    return InvalidQueryError(f"object {obj_id} has non-finite coordinates {p}")


def build_siri_rows(points: Sequence[Point], a: float, b: float) -> List[RectRow]:
    """Return one SIRI rectangle row per object.

    The open rectangle ``p -/+ (b/2, a/2)`` in float arithmetic, as the
    paper defines it; the exact sweeps use :func:`build_sweep_rows`.

    Args:
        points: object locations; ids are positions in this sequence.
        a: query-rectangle height.
        b: query-rectangle width.

    Raises:
        InvalidQueryError: if the rectangle size is not positive, there
            are no objects (the BRS optimum would be undefined), or a
            coordinate is not finite.
    """
    _check_instance(points, a, b)
    for obj_id, p in enumerate(points):
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            raise _non_finite(obj_id, p)
    half_a = a / 2.0
    half_b = b / 2.0
    return [
        (p.x - half_b, p.x + half_b, p.y - half_a, p.y + half_a, obj_id)
        for obj_id, p in enumerate(points)
    ]


def build_sweep_rows(points: Sequence[Point], a: float, b: float) -> List[RectRow]:
    """The SIRI rows in the exact, half-open form the sweeps run on.

    Row ``(x_min, x_max, y_min, y_max, id)`` holds center ``(cx, cy)``
    exactly when ``x_min <= cx < x_max`` and ``y_min <= cy < y_max``, that
    is, exactly when :func:`objects_in_region` counts the object at
    ``(cx, cy)``: its ends are the :func:`band_ends` of the object's
    coordinates.  A sweep's cell, the product of intervals ``[e_i, e_j)``
    between consecutive edge coordinates, then always holds centers
    (:func:`cell_center`), and every center lies in one cell, so the region
    at a cell's center holds exactly the cell's rows.  The lower ends sit
    one float above those of :func:`build_siri_rows` when ``p -/+ half`` is
    exact.

    Raises:
        InvalidQueryError: as :func:`build_siri_rows`.
    """
    _check_instance(points, a, b)
    n = len(points)
    xs = np.fromiter((p.x for p in points), dtype=np.float64, count=n)
    ys = np.fromiter((p.y for p in points), dtype=np.float64, count=n)
    bad = ~(np.isfinite(xs) & np.isfinite(ys))
    if bad.any():
        obj_id = int(np.argmax(bad))
        raise _non_finite(obj_id, points[obj_id])
    ends = _ends(np.concatenate((xs, xs, ys, ys)), [b / 2.0, a / 2.0], n)
    return list(
        zip(ends[:n].tolist(), ends[n : 2 * n].tolist(),
            ends[2 * n : 3 * n].tolist(), ends[3 * n :].tolist(), range(n))
    )


def cell_center(lo: float, hi: float) -> float:
    """A center coordinate inside the half-open cell ``[lo, hi)``.

    The midpoint of the open gap from the float below ``lo`` to ``hi``
    (for a cell that opens at an insertion, the gap a sweep over open rows
    sees), unless it falls outside the cell; then ``lo`` itself.
    """
    mid = (math.nextafter(lo, -math.inf) + hi) / 2.0
    return mid if lo <= mid < hi else lo


def rows_x_extent(rows: Sequence[RectRow]) -> Tuple[float, float]:
    """Return the min/max x over all rectangle rows."""
    return min(r[0] for r in rows), max(r[1] for r in rows)


def objects_in_region(
    points: Sequence[Point], center: Point, a: float, b: float
) -> List[int]:
    """Return ids of objects strictly inside the ``a x b`` region at ``center``.

    A direct linear scan; callers that issue many such queries should use
    :class:`repro.index.grid.GridIndex` instead.
    """
    half_a = a / 2.0
    half_b = b / 2.0
    cx, cy = center.x, center.y
    return [
        obj_id
        for obj_id, p in enumerate(points)
        if abs(p.x - cx) < half_b and abs(p.y - cy) < half_a
    ]
