"""The modular SUM function (the MaxRS special case of BRS)."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional, Sequence

from repro.functions.base import IncrementalEvaluator, SetFunction


class SumFunction(SetFunction):
    """``f(S) = sum of w_o for o in S`` with non-negative weights.

    With this function the BRS problem degenerates to MaxRS (Section 2).
    Weights default to 1 (count the objects).  Negative weights would break
    monotonicity and are rejected.
    """

    def __init__(self, n_objects: int, weights: Optional[Sequence[float]] = None) -> None:
        """Args:
        n_objects: number of spatial objects (ids are ``0..n_objects-1``).
        weights: per-object weights; all ones when omitted.

        Raises:
            ValueError: on a weight-count mismatch or a negative weight.
        """
        if weights is None:
            self._weights = [1.0] * n_objects
        else:
            if len(weights) != n_objects:
                raise ValueError(
                    f"expected {n_objects} weights, got {len(weights)}"
                )
            if any(w < 0 for w in weights):
                raise ValueError("negative weights break monotonicity")
            self._weights = [float(w) for w in weights]
        self._weight_array = None

    @property
    def weights(self) -> Sequence[float]:
        """Per-object weights (read-only view)."""
        return tuple(self._weights)

    def weight_array(self):
        """The weights as one read-only float64 array, built on first use."""
        if self._weight_array is None:
            import numpy as np

            array = np.array(self._weights, dtype=np.float64)
            array.flags.writeable = False
            self._weight_array = array
        return self._weight_array

    def weight_of(self, obj_id: int) -> float:
        """Return the weight of one object."""
        return self._weights[obj_id]

    def value(self, objects: Iterable[int]) -> float:
        weights = self._weights
        return sum(weights[o] for o in set(objects))

    def marginal(self, obj_id: int, base: Iterable[int]) -> float:
        return 0.0 if obj_id in set(base) else self._weights[obj_id]

    def evaluator(self) -> "SumEvaluator":
        return SumEvaluator(self._weights)

    def batch_value(self, members, indptr):
        """Vectorized batch evaluation: one prefix sum, one difference.

        Groups must hold distinct ids (see the base-class contract);
        duplicates would be double-counted here, unlike :meth:`value`.
        """
        import numpy as np

        members = np.asarray(members, dtype=np.int64)
        indptr = np.asarray(indptr, dtype=np.int64)
        flat = self.weight_array()[members]
        csum = np.concatenate((np.zeros(1), np.cumsum(flat)))
        return csum[indptr[1:]] - csum[indptr[:-1]]

    def merged(self, groups: "Sequence[Sequence[int]]") -> "SumFunction":
        """Return the SUM function over *groups* of objects.

        Group ``j`` weighs the sum of its members' weights — the modular
        fast path for the reduced function ``f_T`` (Definition 8), keeping
        O(1) incremental evaluation on the reduced instance.
        """
        weights = [
            sum(self._weights[i] for i in set(group)) for group in groups
        ]
        return SumFunction(len(groups), weights)


class SumEvaluator(IncrementalEvaluator):
    """O(1) push/pop evaluator for :class:`SumFunction`."""

    def __init__(self, weights: Sequence[float]) -> None:
        self._weights = weights
        self._counts: Counter = Counter()
        self._value = 0.0

    def push(self, obj_id: int) -> None:
        self._counts[obj_id] += 1
        if self._counts[obj_id] == 1:
            self._value += self._weights[obj_id]

    def pop(self, obj_id: int) -> None:
        count = self._counts.get(obj_id, 0)
        if count <= 0:
            raise KeyError(f"object {obj_id} is not active")
        if count == 1:
            del self._counts[obj_id]
            self._value -= self._weights[obj_id]
        else:
            self._counts[obj_id] = count - 1

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._counts.clear()
        self._value = 0.0
