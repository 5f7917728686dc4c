"""(Weighted) coverage functions.

Coverage is the workhorse submodular function of the paper's two
applications:

* *Most diversified region* (Application 2): each object carries a set of
  tags and ``f(S) = |union of tags|`` — unit label weights.
* *Most influential region* (Application 1): with reverse influence sampling
  the expected spread of the users visiting a region is
  ``(n_users / n_rr_sets) * |union of RR-set ids hit|`` — uniform label
  weights with a scale factor (see :mod:`repro.influence.ris`).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Hashable, Iterable, Mapping, Optional, Sequence, Tuple

from repro.functions.base import IncrementalEvaluator, SetFunction


class CoverageFunction(SetFunction):
    """``f(S) = scale * sum of w_l over labels l covered by S``.

    Each object id maps to a frozen set of labels; a label is *covered* by
    ``S`` when at least one object in ``S`` carries it.  With unit label
    weights and ``scale=1`` this is the diversity function of Application 2.
    """

    def __init__(
        self,
        label_sets: Sequence[Iterable[Hashable]],
        label_weights: Optional[Mapping[Hashable, float]] = None,
        scale: float = 1.0,
    ) -> None:
        """Args:
        label_sets: ``label_sets[i]`` are the labels of object ``i``.
        label_weights: weight per label; 1.0 for labels not listed.
        label weights must be non-negative (monotonicity).
        scale: global multiplier applied to the covered-weight total.

        Raises:
            ValueError: on a negative label weight or scale.
        """
        if scale < 0:
            raise ValueError("scale must be non-negative")
        if label_weights and any(w < 0 for w in label_weights.values()):
            raise ValueError("negative label weights break monotonicity")
        self._labels: Tuple[frozenset, ...] = tuple(
            frozenset(labels) for labels in label_sets
        )
        self._weights: Dict[Hashable, float] = dict(label_weights or {})
        self._scale = float(scale)
        self._csr_cache = None
        #: ``(parent, groups)`` of a :meth:`merged` function, whose CSR is
        #: derived from the parent's on first use.
        self._csr_source = None

    @property
    def n_objects(self) -> int:
        """Number of objects the function is defined over."""
        return len(self._labels)

    @property
    def scale(self) -> float:
        """Global multiplier on the covered-weight total."""
        return self._scale

    @property
    def label_weights(self) -> Mapping[Hashable, float]:
        """Explicit per-label weights (labels not listed weigh 1.0)."""
        return dict(self._weights)

    def labels_of(self, obj_id: int) -> frozenset:
        """Return the label set of one object."""
        return self._labels[obj_id]

    def _label_weight(self, label: Hashable) -> float:
        return self._weights.get(label, 1.0)

    def value(self, objects: Iterable[int]) -> float:
        covered: set = set()
        for obj_id in objects:
            covered |= self._labels[obj_id]
        return self._scale * sum(self._label_weight(label) for label in covered)

    def marginal(self, obj_id: int, base: Iterable[int]) -> float:
        covered: set = set()
        for other in base:
            covered |= self._labels[other]
        gain = sum(
            self._label_weight(label)
            for label in self._labels[obj_id]
            if label not in covered
        )
        return self._scale * gain

    def evaluator(self) -> "CoverageEvaluator":
        return CoverageEvaluator(self._labels, self._weights, self._scale)

    def _code_csr(self):
        """Lazy CSR encoding of the label sets (codes, indptr, weights).

        Built once per function instance; the vocabulary is an arbitrary
        but fixed label -> small-int coding, with the per-code weight
        vector alongside so batch evaluation never touches label objects.
        A :meth:`merged` function shares its parent's coding and weight
        vector and gathers its rows from the parent's CSR.
        """
        if self._csr_cache is not None:
            return self._csr_cache
        import numpy as np

        if self._csr_source is not None:
            parent, groups = self._csr_source
            codes, indptr, code_weights = parent._code_csr()
            members, member_indptr = _flatten_groups(groups)
            pair = _distinct_pairs(
                (codes, indptr, code_weights), members, member_indptr
            )
            n_vocab = max(1, int(code_weights.size))
            group_indptr = np.zeros(len(groups) + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(pair // n_vocab, minlength=len(groups)),
                out=group_indptr[1:],
            )
            self._csr_cache = (pair % n_vocab, group_indptr, code_weights)
            self._csr_source = None
            return self._csr_cache

        code_of: Dict[Hashable, int] = {}
        code_weights = []
        indptr = np.zeros(len(self._labels) + 1, dtype=np.int64)
        flat = []
        for i, labels in enumerate(self._labels):
            for label in labels:
                code = code_of.get(label)
                if code is None:
                    code = len(code_of)
                    code_of[label] = code
                    code_weights.append(self._label_weight(label))
                flat.append(code)
            indptr[i + 1] = len(flat)
        self._csr_cache = (
            np.asarray(flat, dtype=np.int64),
            indptr,
            np.asarray(code_weights, dtype=np.float64),
        )
        return self._csr_cache

    def batch_value(self, members, indptr):
        """Vectorized batch coverage: distinct (group, label) pairs.

        Gathers every member's label codes, pair-encodes them with the
        group index, keeps each pair once (labels covered multiple times
        in a group count once), and sums label weights per group with a
        weighted ``bincount``.  Groups must hold distinct object ids.
        """
        import numpy as np

        members = np.asarray(members, dtype=np.int64)
        indptr = np.asarray(indptr, dtype=np.int64)
        n_groups = indptr.size - 1
        csr = self._code_csr()
        n_vocab = int(csr[2].size)
        if n_vocab == 0 or members.size == 0:
            return np.zeros(n_groups, dtype=np.float64)
        pair = _distinct_pairs(csr, members, indptr)
        return self._scale * np.bincount(
            pair // n_vocab,
            weights=csr[2][pair % n_vocab],
            minlength=n_groups,
        )

    def merged(self, groups: Sequence[Sequence[int]]) -> "CoverageFunction":
        """Return the coverage function over *groups* of objects.

        Group ``j`` covers the union of the labels of its members.  This is
        the fast path for the reduced function ``f_T`` of Definition 8 when
        the base function is coverage: the reduced function is again a
        coverage function over the same labels, so CoverBRS keeps O(delta)
        incremental evaluation.  Its CSR (:meth:`_code_csr`) is derived
        from this function's on first use, in NumPy.
        """
        merged_labels = [
            frozenset().union(*(self._labels[i] for i in group)) if group else frozenset()
            for group in groups
        ]
        fn = CoverageFunction(merged_labels, self._weights, self._scale)
        fn._csr_source = (self, groups)
        return fn


def _flatten_groups(groups: Sequence[Sequence[int]]):
    """Groups of object ids as a flat id array plus group boundaries."""
    import numpy as np

    sizes = np.fromiter((len(g) for g in groups), dtype=np.int64, count=len(groups))
    indptr = np.zeros(len(groups) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    members = np.fromiter(
        (i for group in groups for i in group), dtype=np.int64, count=int(indptr[-1])
    )
    return members, indptr


def _distinct_pairs(csr, members, indptr):
    """Sorted distinct ``group * n_vocab + code`` of each group's members."""
    import numpy as np

    codes, code_indptr, code_weights = csr
    n_vocab = max(1, int(code_weights.size))
    group_of_member = np.repeat(
        np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr)
    )
    # Gather each member's code row: base offset + position in row.
    starts = code_indptr[members]
    counts = code_indptr[members + 1] - starts
    offsets = np.cumsum(counts) - counts
    gather = np.repeat(starts - offsets, counts) + np.arange(
        int(counts.sum()), dtype=np.int64
    )
    return np.unique(np.repeat(group_of_member, counts) * n_vocab + codes[gather])


class CoverageEvaluator(IncrementalEvaluator):
    """Counting evaluator: O(|labels of object|) per push/pop.

    Maintains a reference count per label and per object id; the value
    changes only when a label's count transitions 0 <-> 1.
    """

    def __init__(
        self,
        labels: Sequence[frozenset],
        weights: Mapping[Hashable, float],
        scale: float,
    ) -> None:
        self._labels = labels
        self._weights = weights
        self._scale = scale
        self._obj_counts: Counter = Counter()
        self._label_counts: Counter = Counter()
        self._covered_weight = 0.0

    def push(self, obj_id: int) -> None:
        self._obj_counts[obj_id] += 1
        if self._obj_counts[obj_id] > 1:
            return
        weights = self._weights
        counts = self._label_counts
        for label in self._labels[obj_id]:
            counts[label] += 1
            if counts[label] == 1:
                self._covered_weight += weights.get(label, 1.0)

    def pop(self, obj_id: int) -> None:
        count = self._obj_counts.get(obj_id, 0)
        if count <= 0:
            raise KeyError(f"object {obj_id} is not active")
        if count > 1:
            self._obj_counts[obj_id] = count - 1
            return
        del self._obj_counts[obj_id]
        weights = self._weights
        counts = self._label_counts
        for label in self._labels[obj_id]:
            counts[label] -= 1
            if counts[label] == 0:
                del counts[label]
                self._covered_weight -= weights.get(label, 1.0)

    @property
    def value(self) -> float:
        return self._scale * self._covered_weight

    def reset(self) -> None:
        self._obj_counts.clear()
        self._label_counts.clear()
        self._covered_weight = 0.0
