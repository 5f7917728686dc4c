"""Dataset store: what the serving layer resolves query dataset ids against.

One server process serves a fixed set of datasets, each owning its point
set, its score function, and a monotonically increasing *version*.  The
version is the invalidation mechanism: bumping it (because the data was
replaced, or an operator asked for an explicit invalidation) changes
every normalized query key derived from the dataset, so previously cached
answers become unreachable.

The store accepts three kinds of sources:

* registry datasets (:class:`~repro.datasets.registry.DiversityDataset`
  and :class:`~repro.datasets.registry.InfluenceDataset`) — the analogs
  the benchmarks use, with ``k*q`` sizing support;
* JSON dataset files (the :mod:`repro.io.json_io` format);
* raw ``(points, f)`` pairs, for tests and embedded use.

Thread-safe: registration and resolution hold one lock; the entries
themselves are treated as immutable after registration (replacement
installs a fresh entry under a bumped version).
"""

from __future__ import annotations

import pathlib
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.datasets.registry import (
    DiversityDataset,
    InfluenceDataset,
    query_size,
)
from repro.functions.base import SetFunction
from repro.geometry.point import Point
from repro.geometry.rect import Rect, grown_space, space_of
from repro.runtime.errors import InvalidQueryError


@dataclass
class ServedDataset:
    """One dataset as the serving layer sees it.

    Attributes:
        id: the id clients address queries to.
        points: object locations (ids are positions here).
        fn: the score function queries are evaluated with.
        fn_key: stable identifier of the function configuration; part of
            every normalized query key.
        space: the dataset's space (used for ``k*q`` sizing).
        version: current dataset version (starts at 1).
        kind: ``"diversity"``, ``"influence"``, or ``"custom"``.
        mutation_seq: how many ingest batches have become visible on this
            version.  Regional invalidation keeps the version (and so the
            cache keys) stable across churn; the executor compares
            mutation_seq before caching so an answer solved against an
            older snapshot is never stored against a newer one.
        external_ids: stable object id of each position, when the entry
            is an ingest snapshot (``None`` means positions *are* the
            ids).  Responses report external ids, which survive the
            compaction each snapshot performs.
        base_count: object count of the last full version (registration
            or :meth:`DatasetStore.replace_points`); ``k*q`` requests size
            against it, so an ingest flip that changes the live count
            keeps their rectangle and cache key.  Defaults to the entry's
            own count.
    """

    id: str
    points: List[Point]
    fn: SetFunction
    fn_key: str
    space: Rect
    version: int = 1
    kind: str = "custom"
    mutation_seq: int = 0
    external_ids: Optional[List[int]] = None
    base_count: int = 0
    _columns: Optional[Any] = None
    _columns_key: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if not self.base_count:
            self.base_count = len(self.points)

    def columns(self):
        """The entry's coordinate columns, cached per (version, mutation_seq).

        Entries are otherwise immutable after registration, but
        :meth:`DatasetStore.bump_version` mutates ``version`` in place, so
        the cache is keyed on the invalidation counters rather than
        trusting identity: a bumped or flipped entry rebuilds its columns
        on the next ask.

        Returns:
            The :class:`~repro.columnar.dataset.ColumnarDataset` of
            :attr:`points`.
        """
        from repro.columnar.dataset import ColumnarDataset

        key = (self.version, self.mutation_seq)
        if self._columns is None or self._columns_key != key:
            self._columns = ColumnarDataset.from_points(self.points)
            self._columns_key = key
        return self._columns

    def resolve_size(
        self, k: float, aspect: Optional[float] = None
    ) -> Tuple[float, float]:
        """``(a, b)`` for a ``k*q`` query on this dataset (Section 6.1).

        Sized against :attr:`base_count`, so the answer changes only on a
        full version, never on an ingest flip.
        """
        return query_size(self.space, self.base_count, k, aspect)

    def describe(self) -> Dict[str, Any]:
        """JSON-serializable summary for the datasets endpoint."""
        return {
            "id": self.id,
            "kind": self.kind,
            "objects": len(self.points),
            "version": self.version,
            "mutation_seq": self.mutation_seq,
            "fn_key": self.fn_key,
            "space": [
                self.space.x_min,
                self.space.x_max,
                self.space.y_min,
                self.space.y_max,
            ],
        }


class DatasetStore:
    """Registry of datasets a server instance answers queries for."""

    def __init__(self) -> None:
        self._entries: Dict[str, ServedDataset] = {}
        self._lock = threading.Lock()

    # -- registration ----------------------------------------------------

    def add_points(
        self,
        dataset_id: str,
        points: Sequence[Point],
        fn: SetFunction,
        fn_key: str = "custom",
        space: Optional[Rect] = None,
    ) -> ServedDataset:
        """Register a raw point set with its score function.

        Raises:
            InvalidQueryError: on an empty point set or a duplicate id.
        """
        if not points:
            raise InvalidQueryError(f"dataset {dataset_id!r} has no objects")
        entry = ServedDataset(
            id=dataset_id,
            points=list(points),
            fn=fn,
            fn_key=fn_key,
            space=space if space is not None else space_of(points),
        )
        return self._install(entry, expect_new=True)

    def add_dataset(
        self,
        dataset_id: str,
        dataset: Union[DiversityDataset, InfluenceDataset],
        n_rr_sets: int = 2000,
        seed: int = 0,
    ) -> ServedDataset:
        """Register a registry dataset (diversity or influence analog).

        Influence datasets get their RIS-backed function built once here
        (``n_rr_sets``/``seed`` become part of the function key, so
        differently configured estimators never share cache entries).
        """
        if isinstance(dataset, DiversityDataset):
            fn: SetFunction = dataset.score_function()
            fn_key, kind = "coverage", "diversity"
        elif isinstance(dataset, InfluenceDataset):
            fn = dataset.score_function(n_rr_sets=n_rr_sets, seed=seed)
            fn_key, kind = f"influence:rr={n_rr_sets}:seed={seed}", "influence"
        else:
            raise InvalidQueryError(
                f"cannot serve a {type(dataset).__name__}; expected a "
                "DiversityDataset or InfluenceDataset"
            )
        entry = ServedDataset(
            id=dataset_id,
            points=list(dataset.points),
            fn=fn,
            fn_key=fn_key,
            space=dataset.space,
            kind=kind,
        )
        return self._install(entry, expect_new=True)

    def add_file(
        self, path: Union[str, pathlib.Path], dataset_id: Optional[str] = None
    ) -> ServedDataset:
        """Register a JSON dataset file; the id defaults to the file stem."""
        from repro.io.json_io import load_dataset

        dataset = load_dataset(path)
        if dataset_id is None:
            dataset_id = pathlib.Path(path).stem
        return self.add_dataset(dataset_id, dataset)

    def replace_points(
        self, dataset_id: str, points: Sequence[Point], fn: SetFunction
    ) -> ServedDataset:
        """Swap a dataset's data in place, bumping its version.

        The new entry keeps the old function key and space kind; callers
        that changed the function family should re-register instead.

        Raises:
            InvalidQueryError: on an unknown id or empty point set.
        """
        if not points:
            raise InvalidQueryError(f"dataset {dataset_id!r} has no objects")
        old = self.resolve(dataset_id)
        entry = ServedDataset(
            id=dataset_id,
            points=list(points),
            fn=fn,
            fn_key=old.fn_key,
            space=space_of(points),
            version=old.version + 1,
            kind=old.kind,
        )
        return self._install(entry, expect_new=False)

    def apply_regional(
        self,
        dataset_id: str,
        points: Sequence[Point],
        fn: SetFunction,
        external_ids: Sequence[int],
        space: Optional[Rect] = None,
    ) -> ServedDataset:
        """Atomically flip a dataset to a new ingest snapshot.

        Unlike :meth:`replace_points` this keeps the *version* — cache
        keys for the dataset stay reachable — and bumps ``mutation_seq``
        instead.  The caller (the ingest pipeline) pairs the flip with a
        **regional** cache invalidation covering exactly the touched
        rectangles, so untouched cached answers survive the mutation.

        The dictionary swap inside :meth:`_install` is the visibility
        point: readers resolve either the old snapshot or the new one,
        never a mixture.

        Raises:
            InvalidQueryError: on an unknown id or empty point set.
        """
        if not points:
            raise InvalidQueryError(f"dataset {dataset_id!r} has no objects")
        old = self.resolve(dataset_id)
        if space is None:
            space = grown_space(old.space, points)
        entry = ServedDataset(
            id=dataset_id,
            points=list(points),
            fn=fn,
            fn_key=old.fn_key,
            space=space,
            version=old.version,
            kind=old.kind,
            mutation_seq=old.mutation_seq + 1,
            external_ids=list(external_ids),
            base_count=old.base_count,
        )
        return self._install(entry, expect_new=False)

    def _install(self, entry: ServedDataset, expect_new: bool) -> ServedDataset:
        with self._lock:
            exists = entry.id in self._entries
            if expect_new and exists:
                raise InvalidQueryError(f"dataset id {entry.id!r} already registered")
            if not expect_new and not exists:
                raise InvalidQueryError(f"unknown dataset {entry.id!r}")
            self._entries[entry.id] = entry
        return entry

    # -- resolution ------------------------------------------------------

    def resolve(self, dataset_id: str) -> ServedDataset:
        """Return the live entry for ``dataset_id``.

        Raises:
            InvalidQueryError: on an unknown id (lists the known ones).
        """
        with self._lock:
            entry = self._entries.get(dataset_id)
        if entry is None:
            raise InvalidQueryError(
                f"unknown dataset {dataset_id!r}; serving {sorted(self._entries)}"
            )
        return entry

    def bump_version(self, dataset_id: str) -> int:
        """Invalidate a dataset: bump its version and return the new one.

        Every normalized query key embeds the version, so all previously
        cached answers for the dataset become unreachable at once.
        """
        with self._lock:
            entry = self._entries.get(dataset_id)
            if entry is None:
                raise InvalidQueryError(
                    f"unknown dataset {dataset_id!r}; serving {sorted(self._entries)}"
                )
            entry.version += 1
            return entry.version

    def ids(self) -> List[str]:
        """Registered dataset ids, sorted."""
        with self._lock:
            return sorted(self._entries)

    def describe(self) -> List[Dict[str, Any]]:
        """Summaries of every registered dataset (for the HTTP endpoint)."""
        with self._lock:
            entries = list(self._entries.values())
        return [entry.describe() for entry in entries]
