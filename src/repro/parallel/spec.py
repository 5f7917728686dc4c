"""Picklable descriptors for score functions crossing a process boundary.

Worker processes cannot share the caller's :class:`~repro.functions.base.
SetFunction` object directly under the ``spawn`` start method, and even
under ``fork`` we want one compact, explicit payload shipped exactly once
per worker (through the pool initializer) rather than re-pickled per
task.  A :class:`FunctionSpec` is that payload: a frozen, picklable
description from which each worker rebuilds an equivalent function
locally.

The two shipped function families get dedicated specs that reconstruct
the *fast* incremental evaluators (:class:`~repro.functions.weighted_sum.
SumFunction` and :class:`~repro.functions.coverage.CoverageFunction`);
any other function falls back to :class:`PickledFunctionSpec`, which
carries the pickled object verbatim and therefore requires the function
itself to be picklable.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Hashable, Tuple, Union

from repro.functions.base import SetFunction
from repro.functions.coverage import CoverageFunction
from repro.functions.weighted_sum import SumFunction
from repro.runtime.errors import InvalidQueryError


@dataclass(frozen=True)
class SumFunctionSpec:
    """Rebuilds a :class:`SumFunction` from its weight vector."""

    weights: Tuple[float, ...]

    def build(self) -> SumFunction:
        """Materialize the function in the current process."""
        return SumFunction(len(self.weights), list(self.weights))


@dataclass(frozen=True)
class CoverageFunctionSpec:
    """Rebuilds a :class:`CoverageFunction` from labels, weights, scale."""

    label_sets: Tuple[Tuple[Hashable, ...], ...]
    label_weights: Tuple[Tuple[Hashable, float], ...]
    scale: float

    def build(self) -> CoverageFunction:
        """Materialize the function in the current process."""
        return CoverageFunction(
            [frozenset(labels) for labels in self.label_sets],
            dict(self.label_weights),
            scale=self.scale,
        )


@dataclass(frozen=True)
class PickledFunctionSpec:
    """Carries an arbitrary picklable :class:`SetFunction` verbatim."""

    payload: bytes

    def build(self) -> SetFunction:
        """Materialize the function in the current process."""
        return pickle.loads(self.payload)


FunctionSpec = Union[SumFunctionSpec, CoverageFunctionSpec, PickledFunctionSpec]


def function_spec(fn: SetFunction) -> FunctionSpec:
    """Describe ``fn`` as a picklable spec for worker bootstrap.

    Raises:
        InvalidQueryError: when ``fn`` is neither a known function family
            nor picklable — the parallel backend cannot ship it to worker
            processes (call ``solve_partitioned`` without workers instead).
    """
    if isinstance(fn, SumFunction):
        return SumFunctionSpec(tuple(fn.weights))
    if isinstance(fn, CoverageFunction):
        return CoverageFunctionSpec(
            tuple(tuple(sorted(fn.labels_of(i), key=repr))
                  for i in range(fn.n_objects)),
            tuple(sorted(fn.label_weights.items(), key=lambda kv: repr(kv[0]))),
            fn.scale,
        )
    try:
        payload = pickle.dumps(fn)
    except Exception as exc:
        raise InvalidQueryError(
            f"score function {type(fn).__name__} is not picklable and has no "
            f"parallel spec; solve serially or make it picklable ({exc})"
        ) from exc
    return PickledFunctionSpec(payload)
