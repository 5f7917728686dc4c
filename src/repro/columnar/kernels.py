"""Vectorized sweep kernels over columnar SIRI rectangles.

Every kernel here is the array transliteration of one object-path inner
loop (:mod:`repro.core.sweep`, including
:func:`~repro.core.sweep.cut_into_slices`).  The shared primitive is
:func:`grouped_sweep`: events are concatenated into flat arrays, stably
sorted, grouped into coordinate batches with ``reduceat``, and the
per-batch aggregates the object sweeps maintain incrementally
(had-insert / has-remove flags, active weight) fall out of
``np.logical_or.reduceat`` + ``np.cumsum`` — no per-event Python loop.

The trigger rule is identical to the object sweeps: the interval
between batch ``k`` and batch ``k + 1`` is emitted when batch ``k``
contained insertions and batch ``k + 1`` contains removals, with the
score of the rows active *after* batch ``k`` as the interval's (sound)
upper bound.  For a SUM score that score is the running weight sum of
:func:`grouped_sweep`; for a coverage score it is the covered label
weight of :func:`covered_intervals`, a label-union sweep.

Floating-point note: the running sums accumulate in sweep order, which
can differ from the order the object evaluators add in.  Kernel outputs
are therefore treated as *bounds and ranks*; the solvers in
:mod:`repro.columnar.solvers` recompute every reported score from the
exact member-id set, so results agree bit-for-bit with the object path
whenever partial sums are exact (unit, integer or dyadic weights).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Tuple

import numpy as np

from repro.core.siri import band_ends
from repro.runtime.errors import InvalidQueryError


class SweepBatches(NamedTuple):
    """Per-batch aggregates of one grouped event sweep.

    Attributes:
        coords: distinct event coordinates, ascending (one per batch).
        has_insert: whether the batch contains at least one insertion.
        has_remove: whether the batch contains at least one removal.
        active_after: total active weight after applying the batch — the
            weight alive from ``coords[k]`` up to ``coords[k+1]``.
    """

    coords: np.ndarray
    has_insert: np.ndarray
    has_remove: np.ndarray
    active_after: np.ndarray


class SlabSet(NamedTuple):
    """Maximal intervals emitted by a sweep, with upper bounds.

    Attributes:
        lo: interval lower coordinates.
        hi: interval upper coordinates.
        bound: active weight inside each interval (Lemma 7 upper bound;
            accumulated in sweep order, see module note).
    """

    lo: np.ndarray
    hi: np.ndarray
    bound: np.ndarray


def validate_extent(a: float, b: float) -> None:
    """Reject non-positive or non-finite query rectangles.

    Mirrors the checks of :func:`repro.core.siri.build_siri_rows`.

    Raises:
        InvalidQueryError: when ``a`` or ``b`` is not positive and finite.
    """
    if not (a > 0 and math.isfinite(a)):
        raise InvalidQueryError(f"query height a must be positive and finite, got {a}")
    if not (b > 0 and math.isfinite(b)):
        raise InvalidQueryError(f"query width b must be positive and finite, got {b}")


def siri_intervals(
    centers: np.ndarray, extent: float
) -> Tuple[np.ndarray, np.ndarray]:
    """One axis of the SIRI reduction: centers -> half-open (lo, hi) arrays.

    :func:`repro.core.siri.band_ends`, the same intervals as
    :func:`repro.core.siri.build_sweep_rows`: ``lo <= c < hi`` holds
    exactly when the region at ``c`` holds the object, and edge
    coordinates (and their exact float ties) match the object path.
    """
    return band_ends(centers, extent / 2.0)


def grouped_sweep(
    lo: np.ndarray, hi: np.ndarray, weights: np.ndarray
) -> SweepBatches:
    """Sweep the intervals' endpoint events, grouped by coordinate.

    Each interval contributes an insertion event at ``lo[i]`` carrying
    ``+weights[i]`` and a removal event at ``hi[i]`` carrying
    ``-weights[i]``.  Events sharing a coordinate form one batch, exactly
    like the object sweeps' inner ``while events[i][0] == y`` loop.

    Args:
        lo: interval lower endpoints (insertion coordinates).
        hi: interval upper endpoints (removal coordinates), same length.
        weights: per-interval weights, same length.

    Returns:
        The per-batch aggregates; empty arrays for empty input.
    """
    if lo.size == 0:
        empty_f = np.empty(0, dtype=np.float64)
        empty_b = np.empty(0, dtype=bool)
        return SweepBatches(empty_f, empty_b, empty_b.copy(), empty_f.copy())
    order, coords, starts, has_insert, has_remove = _event_batches(lo, hi)
    delta = np.concatenate((weights, -weights))[order]
    active_after = np.cumsum(np.add.reduceat(delta, starts))
    return SweepBatches(coords[starts], has_insert, has_remove, active_after)


def _event_batches(
    lo: np.ndarray, hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The intervals' endpoint events, stably sorted and batched.

    Event ``e < n`` inserts interval ``e`` at ``lo[e]``, event ``n + i``
    removes interval ``i`` at ``hi[i]``.  Returns ``(order, coords,
    starts, has_insert, has_remove)``: the sorting permutation, the sorted
    coordinates, each batch's first position, and the per-batch flags.
    """
    coords = np.concatenate((lo, hi))
    order = np.argsort(coords, kind="stable")
    coords = coords[order]
    is_insert = order < lo.size
    starts = np.flatnonzero(
        np.concatenate((np.ones(1, dtype=bool), coords[1:] != coords[:-1]))
    )
    has_insert = np.logical_or.reduceat(is_insert, starts)
    has_remove = np.logical_or.reduceat(~is_insert, starts)
    return order, coords, starts, has_insert, has_remove


def maximal_intervals(
    lo: np.ndarray, hi: np.ndarray, weights: np.ndarray
) -> SlabSet:
    """Vectorized *ScanSlab* / *SearchMR* trigger over one axis.

    Returns every interval from ``coords[k]`` to ``coords[k+1]`` where batch
    ``k`` had an insertion and batch ``k + 1`` has a removal — the maximal
    slabs of Definition 6 when swept in y, the candidate x-gaps of
    *SearchMR* when swept in x — with the active weight as bound.
    """
    batches = grouped_sweep(lo, hi, weights)
    if batches.coords.size < 2:
        empty = np.empty(0, dtype=np.float64)
        return SlabSet(empty, empty.copy(), empty.copy())
    trigger = batches.has_insert[:-1] & batches.has_remove[1:]
    idx = np.flatnonzero(trigger)
    return SlabSet(
        batches.coords[idx],
        batches.coords[idx + 1],
        batches.active_after[idx],
    )


def covered_intervals(
    lo: np.ndarray,
    hi: np.ndarray,
    objects: np.ndarray,
    csr: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> SlabSet:
    """:func:`maximal_intervals` for a coverage score: a label-union sweep.

    Row ``r`` covers the labels of object ``objects[r]`` (``csr`` is
    ``(codes, indptr, code_weights)``, as
    :meth:`~repro.functions.coverage.CoverageFunction._code_csr` builds it)
    on ``[lo[r], hi[r])``.  The trigger intervals are
    :func:`maximal_intervals`'; each one's bound is the total weight of the
    labels its active rows cover — the value a
    :class:`~repro.functions.coverage.CoverageEvaluator` holds there,
    before the function's ``scale``.

    The rows' (row, label) pairs become ±1 events, sorted by label and,
    within a label, in the rows' event order.  Each label's events
    balance, so the running count is 0 at every label boundary: a +1
    lifting it to 1 opens one of the label's covered runs, a -1 dropping
    it to 0 closes one.  The opens and closes carry ±label weight; summed
    per event position and accumulated in event order, they give the
    covered weight after every coordinate batch.  Only whole batches are
    read, so the order of tied events within one (label, coordinate)
    cannot matter.
    """
    m = int(lo.size)
    empty = np.empty(0, dtype=np.float64)
    if m == 0:
        return SlabSet(empty, empty.copy(), empty.copy())
    order, coords, starts, has_insert, has_remove = _event_batches(lo, hi)
    idx = np.flatnonzero(has_insert[:-1] & has_remove[1:])
    if idx.size == 0:
        return SlabSet(empty, empty.copy(), empty.copy())
    gap_lo = coords[starts[idx]]
    gap_hi = coords[starts[idx + 1]]

    codes, code_indptr, code_weights = csr
    # Each row's codes: its object's CSR row, gathered row after row.
    starts_of = code_indptr[objects]
    counts = code_indptr[objects + 1] - starts_of
    n_pairs = int(counts.sum())
    gather = np.repeat(starts_of - (np.cumsum(counts) - counts), counts) + (
        np.arange(n_pairs, dtype=np.int64)
    )
    if n_pairs == 0:
        return SlabSet(gap_lo, gap_hi, np.zeros(idx.size, dtype=np.float64))
    # Position of each row event in the sweep; a pair event takes its
    # row event's position, so (label, position) keys are distinct.
    position = np.empty(2 * m, dtype=np.int64)
    position[order] = np.arange(2 * m, dtype=np.int64)
    row = np.repeat(np.arange(m, dtype=np.int64), counts)
    ev_position = np.concatenate((position[row], position[row + m]))
    labels = codes[gather]
    ev_label = np.concatenate((labels, labels))
    by_label = np.argsort(ev_label * (2 * m) + ev_position)
    step = np.where(by_label < n_pairs, 1, -1)
    depth = np.cumsum(step)
    edge = np.flatnonzero(
        ((step > 0) & (depth == 1)) | ((step < 0) & (depth == 0))
    )
    edge_event = by_label[edge]
    covered = np.cumsum(
        np.bincount(
            ev_position[edge_event],
            weights=code_weights[ev_label[edge_event]] * step[edge],
            minlength=2 * m,
        )
    )
    # The covered weight after batch k, read at the batch's last event.
    return SlabSet(gap_lo, gap_hi, covered[starts[idx + 1] - 1])


def spanning_mask(
    y_min: np.ndarray, y_max: np.ndarray, slab_lo: float, slab_hi: float
) -> np.ndarray:
    """Rows whose y-extent covers the slab.

    The array form of :func:`repro.core.sweep.rows_spanning_slab`: a
    maximal slab contains no horizontal edge, so intersecting its interior
    means spanning it end to end.
    """
    return (y_min <= slab_lo) & (y_max >= slab_hi)


class SliceAssignment(NamedTuple):
    """Rows replicated into the vertical slices they intersect.

    Rows are ordered by slice (ascending), preserving input row order
    within each slice — the same per-bucket order the object path's
    ``cut_into_slices`` produces.

    Attributes:
        row_ids: original row index of each replica.
        slice_ids: slice index of each replica.
        clipped_lo: replica x-interval lower edge, clipped to the slice.
        clipped_hi: replica x-interval upper edge, clipped to the slice.
        slice_starts: offsets of each occupied slice's first replica; the
            replicas of occupied slice ``j`` are
            ``[slice_starts[j], slice_starts[j + 1])``.
        n_slices: the slice-grid size (occupied or not).
    """

    row_ids: np.ndarray
    slice_ids: np.ndarray
    clipped_lo: np.ndarray
    clipped_hi: np.ndarray
    slice_starts: np.ndarray
    n_slices: int


def assign_slices(
    x_min: np.ndarray, x_max: np.ndarray, width: float
) -> SliceAssignment:
    """Vectorized slicing rule of Section 4.5.

    Replicates each row into every slice of the ``width``-wide grid it
    intersects, clips the replica in x, and drops zero-width clippings —
    the exact arithmetic of :func:`repro.core.sweep.cut_into_slices` (grid
    origin at the minimum left edge, slice ``i`` from ``x0 + i * width``
    to ``x0 + (i + 1) * width``, ``//`` binning settled against those
    bounds, clip to ``[0, n_slices - 1]``).

    Raises:
        InvalidQueryError: when ``width`` is not positive and finite.
    """
    if not (width > 0 and math.isfinite(width)):
        raise InvalidQueryError(
            f"slice width must be positive and finite, got {width}"
        )
    x_lo = float(x_min.min())
    x_hi = float(x_max.max())
    n_slices = max(1, math.ceil((x_hi - x_lo) / width))
    while x_lo + n_slices * width < x_hi:
        n_slices += 1
    top = n_slices - 1

    first = np.clip(((x_min - x_lo) // width).astype(np.int64), 0, top)
    last = np.clip(((x_max - x_lo) // width).astype(np.int64), 0, top)
    first -= (first > 0) & (x_min < x_lo + first * width)
    last += (last < top) & (x_max > x_lo + (last + 1) * width)
    counts = last - first + 1
    total = int(counts.sum())

    row_ids = np.repeat(np.arange(x_min.size, dtype=np.int64), counts)
    # Replica r of row i lands in slice first[i] + (r - first replica of i).
    offsets = np.cumsum(counts) - counts
    slice_ids = np.repeat(first, counts) + (
        np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    )
    clipped_lo = np.maximum(x_min[row_ids], x_lo + slice_ids * width)
    clipped_hi = np.minimum(x_max[row_ids], x_lo + (slice_ids + 1) * width)

    keep = clipped_lo < clipped_hi
    row_ids = row_ids[keep]
    slice_ids = slice_ids[keep]
    clipped_lo = clipped_lo[keep]
    clipped_hi = clipped_hi[keep]

    order = np.argsort(slice_ids, kind="stable")
    row_ids = row_ids[order]
    slice_ids = slice_ids[order]
    clipped_lo = clipped_lo[order]
    clipped_hi = clipped_hi[order]

    starts = np.flatnonzero(
        np.concatenate(
            (np.ones(min(1, slice_ids.size), dtype=bool), slice_ids[1:] != slice_ids[:-1])
        )
    )
    return SliceAssignment(
        row_ids, slice_ids, clipped_lo, clipped_hi, starts, n_slices
    )
