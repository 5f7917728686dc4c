"""The overlapping x-window decomposition behind the process-pool solver.

The paper's lineage includes an external-memory MaxRS algorithm [7]; its
decomposition works for general BRS too, and
:func:`repro.parallel.solve_partitioned` uses it to spread one instance
over worker processes:

Cut the x-axis into windows that overlap by at least the query width
``b``.  Any candidate center ``p`` has all of its relevant objects within
``b/2`` horizontally, so some window fully contains the optimum's object
neighbourhood; solving each window's object subset independently and
taking the best answer is therefore *exact*:

* soundness — a window solve optimizes over a subset of the objects, so
  its score never exceeds the global optimum (monotone ``f``);
* completeness — the window responsible for the optimal center contains
  every object of the optimal region, so its solve scores at least the
  optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.geometry.point import Point
from repro.runtime.errors import InvalidQueryError


def _window_bounds(
    x_lo: float, x_hi: float, n_parts: int, b: float
) -> List[Tuple[float, float]]:
    """Cut ``[x_lo, x_hi]`` into ``n_parts`` windows overlapping by ``b``.

    Windows are widened so that consecutive responsibility regions tile the
    space seamlessly; degenerate inputs collapse to a single window.

    The returned windows satisfy three invariants the exactness argument in
    the module docstring rests on (regression-tested against adversarial
    ``span/b`` ratios):

    * the first window starts at ``x_lo`` and the last ends at ``x_hi``;
    * consecutive windows overlap by at least ``b``;
    * each window's *responsibility stride* is strictly wider than ``b``,
      so no window degenerates into pure overlap.
    """
    span = x_hi - x_lo
    if n_parts <= 1 or span <= b:
        return [(x_lo, x_hi)]
    stride = span / n_parts
    if stride <= b:
        # The requested count would make windows pure overlap.  Keep the
        # largest count whose stride stays strictly wider than ``b``:
        # n < span / b  <=>  stride = span / n > b.  (An earlier version
        # truncated ``span / (2 * b)`` here, which both halved the usable
        # window count and, for ratios just above an integer, collapsed
        # decompositions that were still sound.)
        n_parts = min(n_parts, math.ceil(span / b) - 1)
        if n_parts <= 1:
            return [(x_lo, x_hi)]
        stride = span / n_parts
    return [
        (x_lo + i * stride - (b if i else 0.0),
         x_lo + (i + 1) * stride + (0.0 if i == n_parts - 1 else b))
        for i in range(n_parts)
    ]


@dataclass(frozen=True)
class Shard:
    """One x-window of a partitioned instance: bounds plus member objects.

    Shards are what the window decomposition hands to the process pool:
    ``object_ids`` index into the *original* point sequence, so a shard
    solve can be mapped back to dataset-global ids.
    """

    index: int
    x_lo: float
    x_hi: float
    object_ids: Tuple[int, ...]


def plan_shards(
    points: Sequence[Point], b: float, n_parts: int
) -> List[Shard]:
    """Plan the overlapping-x-window decomposition of an instance.

    Returns one :class:`Shard` per non-empty window.  The decomposition is
    exact for any monotone score (see the module docstring), so solving
    each shard's object subset independently and taking the best answer
    reproduces the global optimum.

    Args:
        points: object locations (ids are positions in this sequence).
        b: query-rectangle width the windows must overlap by.
        n_parts: requested window count (may be reduced to keep windows
            meaningful; see :func:`_window_bounds`).

    Raises:
        ValueError: on an empty instance or a non-positive ``n_parts``.
    """
    if n_parts <= 0:
        raise InvalidQueryError("n_parts must be positive")
    if not points:
        raise InvalidQueryError("BRS requires at least one spatial object")
    xs = [p.x for p in points]
    windows = _window_bounds(min(xs) - b / 2, max(xs) + b / 2, n_parts, b)
    shards: List[Shard] = []
    for w_lo, w_hi in windows:
        ids = tuple(i for i, p in enumerate(points) if w_lo <= p.x <= w_hi)
        if ids:
            shards.append(Shard(len(shards), w_lo, w_hi, ids))
    return shards
