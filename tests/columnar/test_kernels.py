"""Vectorized kernels vs brute-force references on seeded instances."""

import math
import random

import numpy as np
import pytest

from repro.columnar.kernels import (
    assign_slices,
    grouped_sweep,
    maximal_intervals,
    siri_intervals,
    spanning_mask,
    validate_extent,
)
from repro.core.siri import build_sweep_rows
from repro.geometry.point import Point
from repro.runtime.errors import InvalidQueryError


def _random_intervals(seed, n=30):
    """Intervals with deliberately colliding half-integer endpoints."""
    rng = random.Random(seed)
    lo = np.array([rng.randrange(0, 20) / 2.0 for _ in range(n)])
    hi = lo + np.array([rng.randrange(1, 8) / 2.0 for _ in range(n)])
    w = np.array([rng.randrange(1, 64) / 16.0 for _ in range(n)])
    return lo, hi, w


def test_validate_extent_rejects_bad_rectangles():
    for a, b in [(0.0, 1.0), (1.0, -2.0), (math.inf, 1.0), (1.0, math.nan)]:
        with pytest.raises(InvalidQueryError):
            validate_extent(a, b)
    validate_extent(0.5, 3.0)


def test_siri_intervals_arithmetic_matches_object_path():
    centers = np.array([0.0, 1.5, -2.25])
    lo, hi = siri_intervals(centers, 3.0)
    rows = build_sweep_rows([Point(c, 0.0) for c in centers], 1.0, 3.0)
    assert list(lo) == [r[0] for r in rows]
    assert list(hi) == [r[1] for r in rows]
    # Half-open exact band ends: the first float past c - 1.5, and c + 1.5,
    # except where a center just inside still rounds the difference to
    # 1.5 and so leaves c out.
    assert list(lo) == [
        math.nextafter(-1.5, 0.0),
        math.nextafter(2.0 ** -53, 1.0),
        math.nextafter(-3.75, 0.0),
    ]
    assert list(hi) == [1.5, 3.0, math.nextafter(-0.75, -1.0)]


@pytest.mark.parametrize("seed", range(8))
def test_grouped_sweep_active_weight_exact_in_every_gap(seed):
    lo, hi, w = _random_intervals(seed)
    batches = grouped_sweep(lo, hi, w)
    assert np.all(np.diff(batches.coords) > 0)
    for k in range(batches.coords.size - 1):
        mid = (batches.coords[k] + batches.coords[k + 1]) / 2.0
        expected = float(w[(lo < mid) & (hi > mid)].sum())
        assert batches.active_after[k] == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_grouped_sweep_batch_flags(seed):
    lo, hi, w = _random_intervals(seed)
    batches = grouped_sweep(lo, hi, w)
    lo_set, hi_set = set(lo.tolist()), set(hi.tolist())
    for coord, ins, rem in zip(
        batches.coords, batches.has_insert, batches.has_remove
    ):
        assert bool(ins) == (float(coord) in lo_set)
        assert bool(rem) == (float(coord) in hi_set)


def test_grouped_sweep_empty_input():
    empty = np.empty(0)
    batches = grouped_sweep(empty, empty, empty)
    assert batches.coords.size == 0


@pytest.mark.parametrize("seed", range(8))
def test_maximal_intervals_trigger_rule(seed):
    lo, hi, w = _random_intervals(seed)
    slabs = maximal_intervals(lo, hi, w)
    batches = grouped_sweep(lo, hi, w)
    # Reference: the object sweep's trigger — insert batch followed by a
    # remove batch emits the open gap between them.
    expected = [
        (batches.coords[k], batches.coords[k + 1], batches.active_after[k])
        for k in range(batches.coords.size - 1)
        if batches.has_insert[k] and batches.has_remove[k + 1]
    ]
    got = list(zip(slabs.lo, slabs.hi, slabs.bound))
    assert got == expected
    # Lemma 6: at most n maximal intervals.
    assert slabs.lo.size <= lo.size


@pytest.mark.parametrize("seed", range(8))
def test_maximal_interval_bounds_are_exact_active_weights(seed):
    lo, hi, w = _random_intervals(seed)
    slabs = maximal_intervals(lo, hi, w)
    for slab_lo, slab_hi, bound in zip(slabs.lo, slabs.hi, slabs.bound):
        mid = (slab_lo + slab_hi) / 2.0
        active = (lo < mid) & (hi > mid)
        assert bound == pytest.approx(float(w[active].sum()), abs=1e-9)


def test_spanning_mask_matches_interval_cover():
    y_min = np.array([0.0, 1.0, 2.0])
    y_max = np.array([3.0, 1.5, 4.0])
    mask = spanning_mask(y_min, y_max, 1.0, 1.5)
    assert list(mask) == [True, True, False]


@pytest.mark.parametrize("seed", range(8))
def test_assign_slices_matches_brute_force(seed):
    lo, hi, _ = _random_intervals(seed, n=25)
    width = [0.5, 1.0, 2.5][seed % 3]
    sl = assign_slices(lo, hi, width)
    x0 = float(lo.min())
    # Brute force: every (row, slice) overlap with nonzero clipped width.
    expected = []
    for row in range(lo.size):
        first = min(max(int((lo[row] - x0) // width), 0), sl.n_slices - 1)
        last = min(max(int((hi[row] - x0) // width), 0), sl.n_slices - 1)
        for s in range(first, last + 1):
            left = max(float(lo[row]), x0 + s * width)
            right = min(float(hi[row]), x0 + (s + 1) * width)
            if left < right:
                expected.append((s, row, left, right))
    expected.sort(key=lambda t: t[0])  # stable: row order kept per slice
    got = list(
        zip(sl.slice_ids.tolist(), sl.row_ids.tolist(),
            sl.clipped_lo.tolist(), sl.clipped_hi.tolist())
    )
    assert got == expected
    # slice_starts delimits each occupied slice's replica run.
    ends = np.append(sl.slice_starts[1:], sl.row_ids.size)
    for start, end in zip(sl.slice_starts, ends):
        assert len(set(sl.slice_ids[start:end].tolist())) == 1
