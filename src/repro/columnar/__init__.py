"""repro.columnar — the NumPy columnar data plane.

Every hot path in the reproduction historically iterated over per-object
:class:`~repro.geometry.point.Point` / :class:`~repro.geometry.rect.Rect`
Python objects.  This subsystem stores the same data as a handful of
contiguous NumPy arrays (:class:`~repro.columnar.dataset.ColumnarDataset`)
and rewrites the solver inner loops as vectorized sweeps:

* :func:`~repro.columnar.solvers.columnar_slicebrs` — the exact SliceBRS
  search for SUM and coverage score functions (influence included), with
  event-array *ScanSlab* and *SearchMR* kernels, in SliceBRS's own heap
  order; :func:`~repro.columnar.solvers.columnar_best_region` makes it
  the exact rung every solve calls;
* :func:`~repro.columnar.solvers.columnar_oe_maxrs` — the exact MaxRS
  pass, replacing the per-edge segment-tree loop with a prefix-sum sweep
  over maximal slabs;
* :class:`~repro.columnar.rangecount.SortedRangeCounter` —
  ``searchsorted``-based rectangular range counting over the sorted
  coordinate views.

The object API stays the facade: datasets expose a lazily built, cached
``columns()`` accessor and every existing solver keeps working on Point
sequences.  See ``docs/columnar.md`` for the layout and the kernel
authoring guide.
"""

from __future__ import annotations

import numpy as _np

#: Minimum NumPy release the kernels are tested against (declared in
#: pyproject.toml as ``numpy>=1.24``).  Older releases predate the dtype
#: promotion and ``reduceat`` semantics the kernels rely on.
NUMPY_FLOOR = (1, 24)


def _check_numpy_floor() -> None:
    """Fail fast, with a clear message, on a NumPy older than the floor.

    Raises:
        ImportError: when the installed NumPy predates ``NUMPY_FLOOR``.
    """
    parts = _np.__version__.split(".")
    try:
        found = (int(parts[0]), int(parts[1]))
    except (IndexError, ValueError):  # exotic dev builds: let them through
        return
    if found < NUMPY_FLOOR:
        floor = ".".join(str(v) for v in NUMPY_FLOOR)
        raise ImportError(
            f"repro.columnar requires numpy>={floor} but found "
            f"{_np.__version__}; upgrade numpy or stay on the object-path "
            f"solvers (repro.core), which have no version floor"
        )


_check_numpy_floor()

from repro.columnar.dataset import ColumnarDataset
from repro.columnar.rangecount import SortedRangeCounter
from repro.columnar.solvers import (
    columnar_best_region,
    columnar_oe_maxrs,
    columnar_slicebrs,
)

__all__ = [
    "ColumnarDataset",
    "NUMPY_FLOOR",
    "SortedRangeCounter",
    "columnar_best_region",
    "columnar_oe_maxrs",
    "columnar_slicebrs",
]
