"""1-D maximum interval stabbing.

Inside a maximal slab every SIRI rectangle spans the slab's full height
(Definition 6 guarantees no horizontal edge crosses the slab interior), so
MaxRS restricted to a slab collapses to a one-dimensional problem: given
weighted open x-intervals, find the stabbing x maximizing the total weight of
intervals containing it.  This is the per-slab kernel of the SUM-specialized
SliceBRS adaptation of Appendix C.2.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Tuple

#: Sentinel returned when no interval exists.
_EMPTY: Tuple[float, Optional[float]] = (0.0, None)


def max_stabbing(
    intervals: Iterable[Tuple[float, float]],
    weights: Optional[Iterable[float]] = None,
) -> Tuple[float, Optional[float]]:
    """Return ``(best weight, stab x)`` for open weighted intervals.

    Args:
        intervals: ``(lo, hi)`` pairs with ``lo < hi``; intervals are open,
            so an x equal to an endpoint does not stab.
        weights: per-interval non-negative weights; all ones when omitted.

    Returns:
        The maximum total stabbed weight and an x achieving it, or
        ``(0.0, None)`` when no interval holds a float.  Each open
        ``(lo, hi)`` holds exactly the floats of the half-open run
        ``[nextafter(lo, +inf), hi)``; the sweep runs over those runs, so
        the reported x lies strictly inside every interval it counts,
        even where a maximizing gap is one ulp wide.

    Raises:
        ValueError: on a degenerate interval or negative weight.
    """
    pairs = list(intervals)
    if weights is None:
        weight_list: List[float] = [1.0] * len(pairs)
    else:
        weight_list = [float(w) for w in weights]
        if len(weight_list) != len(pairs):
            raise ValueError("weights/intervals length mismatch")

    events: List[Tuple[float, float]] = []
    for (lo, hi), w in zip(pairs, weight_list):
        if not lo < hi:
            raise ValueError(f"degenerate interval ({lo}, {hi})")
        if w < 0:
            raise ValueError("negative weights are not supported")
        first = math.nextafter(lo, math.inf)
        if first < hi:
            events.append((first, +w))
            events.append((hi, -w))
    events.sort()

    best_weight = 0.0
    best_x: Optional[float] = None
    running = 0.0
    i = 0
    n = len(events)
    while i < n:
        x = events[i][0]
        while i < n and events[i][0] == x:
            running += events[i][1]
            i += 1
        if i < n and running > best_weight:
            best_weight = running
            best_x = _cell_point(x, events[i][0])
    if best_x is None:
        return _EMPTY
    return best_weight, best_x


def _cell_point(lo: float, hi: float) -> float:
    """A float inside the half-open cell ``[lo, hi)``.

    The midpoint of the open gap from the float below ``lo`` to ``hi``
    (the gap between the two event coordinates when ``lo`` opens an
    interval), unless it rounds out of the cell; then ``lo`` itself.
    Chosen as :func:`repro.core.siri.cell_center` chooses a sweep center.
    """
    mid = (math.nextafter(lo, -math.inf) + hi) / 2.0
    return mid if lo <= mid < hi else lo
