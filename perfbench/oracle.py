"""Brute-force best-region oracle, independent of the program's solvers.

For open ``a x b`` rectangles some optimal placement has its left edge
just left of an object's x and its bottom edge just below an object's y,
so the optimum is the best score over the half-open windows
``[x_i, x_i + b) x [y_j, y_j + a)`` anchored at object coordinates.
:class:`Instance` enumerates those windows strip by strip (one strip per
distinct anchor x), scoring coverage with tag bitsets and SUM with prefix
sums.  A strip whose whole content cannot beat the best value found so far
is skipped, which keeps a check at a few thousand objects near a second.

Run as a script to recompute the stored optima of the ``solve`` workload::

    python3 perfbench/oracle.py --write perfbench/optima.json
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np


def label_bitsets(label_sets: Sequence[Sequence[object]]) -> np.ndarray:
    """One row of uint64 words per object, one bit per distinct label."""
    vocab = sorted({label for labels in label_sets for label in labels}, key=repr)
    index = {label: k for k, label in enumerate(vocab)}
    words = max(1, (len(vocab) + 63) // 64)
    bits = np.zeros((len(label_sets), words), dtype=np.uint64)
    for row, labels in enumerate(label_sets):
        for label in labels:
            k = index[label]
            bits[row, k >> 6] |= np.uint64(1) << np.uint64(k & 63)
    return bits


def _or_table(bits: np.ndarray) -> list:
    """Sparse table: level ``k`` holds the OR of each run of ``2**k`` rows."""
    table = [bits]
    span = 1
    while 2 * span <= len(bits):
        prev = table[-1]
        table.append(prev[:-span] | prev[span:])
        span *= 2
    return table


def _range_or(table: list, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """OR over rows ``[lo, hi)`` for every pair (all ranges non-empty)."""
    length = hi - lo
    level = np.floor(np.log2(length)).astype(np.int64)
    out = np.empty((len(lo), table[0].shape[1]), dtype=np.uint64)
    for k in np.unique(level):
        sel = level == k
        rows = table[k]
        out[sel] = rows[lo[sel]] | rows[hi[sel] - (1 << int(k))]
    return out


def _popcount(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words).sum(axis=-1).astype(np.int64)


class Instance:
    """One dataset as the oracle sees it: coordinates plus a score.

    Args:
        xs, ys: object coordinates (ids are positions).
        bits: coverage label bitsets (see :func:`label_bitsets`), or
        weights: non-negative SUM weights.
        scale: multiplier on the covered-label count (influence uses
            ``n_users / n_rr_sets``).
    """

    def __init__(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        bits: Optional[np.ndarray] = None,
        weights: Optional[Sequence[float]] = None,
        scale: float = 1.0,
    ) -> None:
        if (bits is None) == (weights is None):
            raise ValueError("give exactly one of bits and weights")
        self.xs = np.asarray(xs, dtype=np.float64)
        self.ys = np.asarray(ys, dtype=np.float64)
        self.bits = bits
        self.weights = None if weights is None else np.asarray(weights, dtype=np.float64)
        self.scale = float(scale)
        self._memo: dict = {}

    @classmethod
    def of(cls, points, **score) -> "Instance":
        """An instance over ``Point`` objects; ``score`` as for the constructor."""
        return cls([p.x for p in points], [p.y for p in points], **score)

    def value(self, ids: np.ndarray) -> float:
        """Score of a set of object ids."""
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) == 0:
            return 0.0
        if self.weights is not None:
            return float(self.weights[ids].sum())
        merged = np.bitwise_or.reduce(self.bits[ids], axis=0)
        return self.scale * float(np.bitwise_count(merged).sum())

    def in_focus(self, focus: Optional[Tuple[float, float, float, float]]) -> np.ndarray:
        """Ids strictly inside an open focus window (all ids without one)."""
        if focus is None:
            return np.arange(len(self.xs))
        x0, x1, y0, y1 = focus
        mask = (self.xs > x0) & (self.xs < x1) & (self.ys > y0) & (self.ys < y1)
        return np.flatnonzero(mask)

    def inside(
        self, cx: float, cy: float, a: float, b: float,
        focus: Optional[Tuple[float, float, float, float]] = None,
    ) -> np.ndarray:
        """Ids strictly inside the open ``a x b`` region centred at (cx, cy)."""
        ids = self.in_focus(focus)
        mask = (np.abs(self.xs[ids] - cx) < b / 2.0) & (np.abs(self.ys[ids] - cy) < a / 2.0)
        return ids[mask]

    def optimum(
        self, a: float, b: float,
        focus: Optional[Tuple[float, float, float, float]] = None,
        floor: float = 0.0,
    ) -> float:
        """The best score of any open ``a x b`` region (inside ``focus``).

        Strips that cannot beat ``floor`` are skipped, so the result is the
        larger of ``floor`` and the optimum: the optimum itself when
        ``floor`` is a score some region reaches (a checked answer's
        recount).  Results are memoized per query.
        """
        key = (a, b, focus, floor)
        if key not in self._memo:
            self._memo[key] = self._optimum(a, b, focus, floor)
        return self._memo[key]

    def _optimum(self, a, b, focus, floor) -> float:
        ids = self.in_focus(focus)
        if len(ids) == 0:
            return 0.0
        order = ids[np.argsort(self.xs[ids], kind="stable")]
        xs = self.xs[order]
        anchors = np.unique(xs)
        lo = np.searchsorted(xs, anchors, side="left")
        hi = np.searchsorted(xs, anchors + b, side="left")
        best = float(floor)
        if self.weights is not None:
            w = self.weights[order]
            prefix = np.concatenate(([0.0], np.cumsum(w)))
            bound = prefix[hi] - prefix[lo]
        else:
            bits = self.bits[order]
            bound = self.scale * _popcount(_range_or(_or_table(bits), lo, hi))
        for k in np.argsort(-bound, kind="stable"):
            if bound[k] <= best:
                break
            strip = np.arange(lo[k], hi[k])
            ys = self.ys[order[strip]]
            by_y = np.argsort(ys, kind="stable")
            ys = ys[by_y]
            start = np.arange(len(ys))
            end = np.searchsorted(ys, ys + a, side="left")
            if self.weights is not None:
                sw = np.concatenate(([0.0], np.cumsum(w[strip][by_y])))
                value = float((sw[end] - sw[start]).max())
            else:
                sbits = bits[strip][by_y]
                value = self.scale * float(
                    _popcount(_range_or(_or_table(sbits), start, end)).max()
                )
            best = max(best, value)
        return best


def _write_optima(path: str) -> None:
    """Recompute the ``solve`` workload's optima from scratch."""
    import json
    import time

    import wl_solve

    state = wl_solve.State()
    insts = wl_solve.instances(state)
    optima = {}
    for name, inst, _, _ in wl_solve.BATCH:
        a, b = state.sizes[name]
        start = time.perf_counter()
        optima[name] = insts[inst].optimum(a, b)
        print(f"{name}: {optima[name]} ({time.perf_counter() - start:.1f} s)", flush=True)
    with open(path, "w", encoding="utf-8") as out:
        json.dump(optima, out, indent=2, sort_keys=True)
        out.write("\n")


if __name__ == "__main__":
    import argparse
    import os
    import sys

    parser = argparse.ArgumentParser(description="Recompute the stored optima of the solve workload.")
    parser.add_argument("--write", required=True, help="where to write the optima (JSON)")
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
    _write_optima(parser.parse_args().write)
