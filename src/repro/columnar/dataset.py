"""The columnar object store: coordinates, weights, and tag ids as arrays.

A :class:`ColumnarDataset` is the array-of-structs → struct-of-arrays
transposition of a BRS instance.  Object ``i`` is row ``i`` across all
columns — the same positional-id convention the object API uses — so a
columnar solver and an object-path solver given the same dataset talk
about the same object ids.

Columns are frozen at construction (the arrays are marked read-only).
Freezing is what makes the cached sorted-index views and zero-copy slices
safe to share between solvers, worker processes, and the serve tier.
"""

from __future__ import annotations

from typing import Any, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.runtime.errors import InvalidQueryError


def _as_frozen_f64(values: Any, name: str) -> np.ndarray:
    """Return ``values`` as a read-only contiguous float64 1-D array.

    Raises:
        InvalidQueryError: on a non-1-D input or non-finite entries.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidQueryError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise InvalidQueryError(
            f"{name}[{bad}] is non-finite ({arr[bad]}); columnar datasets "
            "reject NaN/inf up front, like the object-path validators"
        )
    arr.flags.writeable = False
    return arr


class ColumnarDataset:
    """A BRS instance as contiguous NumPy columns.

    Attributes:
        xs: object x coordinates, float64, read-only.
        ys: object y coordinates, float64, read-only.
        weights: per-object weights (``None`` when the instance carries no
            modular weights; solvers then treat every weight as 1).
        tag_codes: CSR-encoded tag ids — ``tag_codes[tag_indptr[i]:
            tag_indptr[i+1]]`` are the vocabulary codes of object ``i``
            (``None`` when the instance carries no tags).
        tag_indptr: CSR row pointers for ``tag_codes``.
        tag_vocab: vocabulary, ``tag_vocab[code]`` is the original label.
    """

    def __init__(
        self,
        xs: Any,
        ys: Any,
        weights: Optional[Any] = None,
        tag_sets: Optional[Sequence[Sequence[Hashable]]] = None,
    ) -> None:
        """Build a dataset from coordinate (and optional payload) arrays.

        Args:
            xs: x coordinates (anything ``np.asarray`` accepts).
            ys: y coordinates, same length.
            weights: optional non-negative per-object weights.
            tag_sets: optional per-object label collections; encoded into
                a CSR (``tag_indptr``/``tag_codes``) layout over a sorted
                vocabulary.

        Raises:
            InvalidQueryError: on an empty instance, length mismatches,
                non-finite values, or negative weights.
        """
        self.xs = _as_frozen_f64(xs, "xs")
        self.ys = _as_frozen_f64(ys, "ys")
        if self.xs.size == 0:
            raise InvalidQueryError("BRS requires at least one spatial object")
        if self.xs.shape != self.ys.shape:
            raise InvalidQueryError(
                f"coordinate columns disagree: {self.xs.size} xs vs "
                f"{self.ys.size} ys"
            )
        self.weights: Optional[np.ndarray] = None
        if weights is not None:
            warr = _as_frozen_f64(weights, "weights")
            if warr.shape != self.xs.shape:
                raise InvalidQueryError(
                    f"expected {self.xs.size} weights, got {warr.size}"
                )
            if warr.size and float(warr.min()) < 0:
                raise InvalidQueryError("negative weights break monotonicity")
            self.weights = warr

        self.tag_indptr: Optional[np.ndarray] = None
        self.tag_codes: Optional[np.ndarray] = None
        self.tag_vocab: Optional[np.ndarray] = None
        if tag_sets is not None:
            if len(tag_sets) != self.xs.size:
                raise InvalidQueryError(
                    f"expected {self.xs.size} tag sets, got {len(tag_sets)}"
                )
            self._encode_tags(tag_sets)

        # Lazily built caches; all derived from the frozen columns.
        self._order_x: Optional[np.ndarray] = None
        self._order_y: Optional[np.ndarray] = None
        self._xs_sorted: Optional[np.ndarray] = None
        self._ys_sorted: Optional[np.ndarray] = None
        self._points: Optional[List[Point]] = None

    def _encode_tags(self, tag_sets: Sequence[Sequence[Hashable]]) -> None:
        """Encode label collections into the CSR columns."""
        lengths = np.fromiter(
            (len(set(tags)) for tags in tag_sets), dtype=np.int64,
            count=len(tag_sets),
        )
        indptr = np.zeros(len(tag_sets) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        flat: List[Hashable] = []
        for tags in tag_sets:
            flat.extend(sorted(set(tags), key=repr))
        try:
            vocab, codes = np.unique(np.asarray(flat, dtype=object), return_inverse=True)
        except TypeError as exc:  # unorderable mixed-type labels
            raise InvalidQueryError(
                f"tag labels must be mutually orderable to build a columnar "
                f"vocabulary ({exc}); keep such functions on the object path"
            ) from exc
        codes = np.ascontiguousarray(codes, dtype=np.int64)
        codes.flags.writeable = False
        indptr.flags.writeable = False
        vocab.flags.writeable = False
        self.tag_indptr = indptr
        self.tag_codes = codes
        self.tag_vocab = vocab

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_points(
        cls,
        points: Sequence[Point],
        weights: Optional[Sequence[float]] = None,
        tag_sets: Optional[Sequence[Sequence[Hashable]]] = None,
    ) -> "ColumnarDataset":
        """Transpose an object-path point sequence into columns."""
        n = len(points)
        xs = np.fromiter((p.x for p in points), dtype=np.float64, count=n)
        ys = np.fromiter((p.y for p in points), dtype=np.float64, count=n)
        return cls(xs, ys, weights=weights, tag_sets=tag_sets)

    # -- basic views -----------------------------------------------------

    @property
    def n(self) -> int:
        """Number of objects."""
        return int(self.xs.size)

    def __len__(self) -> int:
        return self.n

    @property
    def order_x(self) -> np.ndarray:
        """Object ids sorted by x (stable; built lazily, cached)."""
        if self._order_x is None:
            order = np.argsort(self.xs, kind="stable")
            order.flags.writeable = False
            self._order_x = order
        return self._order_x

    @property
    def order_y(self) -> np.ndarray:
        """Object ids sorted by y (stable; built lazily, cached)."""
        if self._order_y is None:
            order = np.argsort(self.ys, kind="stable")
            order.flags.writeable = False
            self._order_y = order
        return self._order_y

    @property
    def xs_sorted(self) -> np.ndarray:
        """x coordinates in ``order_x`` order (cached)."""
        if self._xs_sorted is None:
            arr = self.xs[self.order_x]
            arr.flags.writeable = False
            self._xs_sorted = arr
        return self._xs_sorted

    @property
    def ys_sorted(self) -> np.ndarray:
        """y coordinates in ``order_y`` order (cached)."""
        if self._ys_sorted is None:
            arr = self.ys[self.order_y]
            arr.flags.writeable = False
            self._ys_sorted = arr
        return self._ys_sorted

    def points(self) -> List[Point]:
        """Materialize the object-path :class:`Point` list (lazily, once).

        This is the facade boundary: generators build columns natively
        and only pay for Python objects when an object-path consumer
        actually asks.
        """
        if self._points is None:
            self._points = [
                Point(float(x), float(y)) for x, y in zip(self.xs, self.ys)
            ]
        return self._points

    def tag_sets(self) -> List[frozenset]:
        """Decode the CSR tag columns back into per-object frozensets.

        Raises:
            InvalidQueryError: when the dataset carries no tag columns.
        """
        if self.tag_codes is None or self.tag_indptr is None or self.tag_vocab is None:
            raise InvalidQueryError("this columnar dataset carries no tags")
        vocab = self.tag_vocab
        indptr = self.tag_indptr
        codes = self.tag_codes
        return [
            frozenset(vocab[c] for c in codes[indptr[i]:indptr[i + 1]])
            for i in range(self.n)
        ]

    # -- slab slicing and range queries ----------------------------------

    def slab_x(self, x_lo: float, x_hi: float) -> np.ndarray:
        """Object ids with ``x_lo < x < x_hi``, as a zero-copy slice.

        The returned array is a *view* into :attr:`order_x` (no copy):
        ``searchsorted`` finds the open interval's bounds in the sorted
        coordinate column.  Ids come back in x order, not id order.
        """
        lo = int(np.searchsorted(self.xs_sorted, x_lo, side="right"))
        hi = int(np.searchsorted(self.xs_sorted, x_hi, side="left"))
        return self.order_x[lo:hi]

    def slab_y(self, y_lo: float, y_hi: float) -> np.ndarray:
        """Object ids with ``y_lo < y < y_hi``, as a zero-copy slice."""
        lo = int(np.searchsorted(self.ys_sorted, y_lo, side="right"))
        hi = int(np.searchsorted(self.ys_sorted, y_hi, side="left"))
        return self.order_y[lo:hi]

    def ids_in_region(self, cx: float, cy: float, a: float, b: float) -> List[int]:
        """Ids strictly inside the ``a x b`` rectangle centered at ``(cx, cy)``.

        Matches :func:`repro.core.siri.objects_in_region` exactly — open
        rectangle, ids ascending — so columnar results report the same
        object sets as the object path.
        """
        half_a = a / 2.0
        half_b = b / 2.0
        # The rounded slab ends can cut an ulp inside the predicate's
        # band; widen by one ulp and let the predicate itself decide.
        cand = self.slab_x(
            np.nextafter(cx - half_b, -np.inf), np.nextafter(cx + half_b, np.inf)
        )
        if cand.size == 0:
            return []
        inside = cand[
            (np.abs(self.xs[cand] - cx) < half_b)
            & (np.abs(self.ys[cand] - cy) < half_a)
        ]
        inside = np.sort(inside)
        return [int(i) for i in inside]

    def ids_in_rect(
        self, x_min: float, x_max: float, y_min: float, y_max: float
    ) -> np.ndarray:
        """Ids strictly inside the open rectangle, ascending.

        The one open-window lookup: the serve tier's focus filter and
        :meth:`count_in_rect` both read it.
        """
        cand = self.slab_x(x_min, x_max)
        ys = self.ys[cand]
        return np.sort(cand[(ys > y_min) & (ys < y_max)])

    def count_in_rect(
        self, x_min: float, x_max: float, y_min: float, y_max: float
    ) -> int:
        """Count objects strictly inside the open rectangle."""
        return int(self.ids_in_rect(x_min, x_max, y_min, y_max).size)

    # -- interop ---------------------------------------------------------

    def subset(self, ids: Sequence[int]) -> "ColumnarDataset":
        """A new dataset holding rows ``ids`` (new positional ids 0..k-1)."""
        idx = np.asarray(ids, dtype=np.int64)
        tag_sets = None
        if self.tag_codes is not None:
            all_tags = self.tag_sets()
            tag_sets = [all_tags[int(i)] for i in idx]
        return ColumnarDataset(
            self.xs[idx],
            self.ys[idx],
            weights=None if self.weights is None else self.weights[idx],
            tag_sets=tag_sets,
        )

    def coords(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(xs, ys)`` pair — cheap to pickle across process bounds."""
        return self.xs, self.ys


def as_columnar(data: Any) -> ColumnarDataset:
    """Coerce solver input into a :class:`ColumnarDataset`.

    Accepts a dataset (returned as-is), anything exposing a ``columns()``
    facade accessor, or a plain :class:`Point` sequence (transposed).
    """
    if isinstance(data, ColumnarDataset):
        return data
    columns = getattr(data, "columns", None)
    if callable(columns):
        got = columns()
        if isinstance(got, ColumnarDataset):
            return got
    return ColumnarDataset.from_points(data)
