"""The mutable side of a served dataset: points, payloads, alive flags.

A :class:`LiveDataset` is the ingest pipeline's working copy.  It owns

* the full positional history of points (deleted objects stay as
  tombstones so **stable external ids are never reused**),
* one alive flag per stable id, and
* per-object payloads (e.g. tag sets for diversity datasets) feeding a
  deterministic *function builder*.

It keeps no spatial index: every query is solved on a snapshot.

Readers never see a LiveDataset.  They see immutable
:class:`~repro.serve.store.ServedDataset` snapshots produced by
:meth:`LiveDataset.snapshot`: alive points *compacted* to a dense
positional list, a freshly built score function over the compacted
payloads, and an ``external_ids`` table mapping compacted positions back
to stable ids — which is what keeps object ids in previously cached
answers meaningful across churn.

Atomicity: :meth:`apply` validates the whole batch up front (dry run over
an alive-set copy), so expected failures (unknown delete id, emptying the
dataset) change nothing.  An *unexpected* mid-batch failure — an injected
fault, a bug — triggers rollback: appended slots are truncated and the
alive flags restored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Set, Tuple

from repro.functions.base import SetFunction
from repro.functions.coverage import CoverageFunction
from repro.geometry.point import Point
from repro.geometry.rect import BBox, Rect, grown_space, space_of
from repro.ingest.events import Delete, Event, Insert, MutationBatch, validate_events
from repro.runtime.errors import IngestError

#: Builds the dataset's score function from (alive points, alive payloads).
#: Must be deterministic: snapshot equality across replays depends on it.
FnBuilder = Callable[[Sequence[Point], Sequence[Any]], SetFunction]


def coverage_fn_builder(
    points: Sequence[Point], payloads: Sequence[Any]
) -> SetFunction:
    """The diversity-application builder: payloads are tag collections."""
    return CoverageFunction([frozenset(p) if p else frozenset() for p in payloads])


def live_from_diversity(dataset: Any) -> "LiveDataset":
    """Wrap a :class:`~repro.datasets.registry.DiversityDataset` for ingest.

    Tag sets become per-object payloads (as sorted lists, so the WAL can
    serialize inserts carrying them) and the coverage builder reproduces
    the dataset's score function on every snapshot.

    Raises:
        IngestError: when ``dataset`` is not a diversity dataset —
            influence datasets own RIS state the event model cannot
            mutate incrementally yet.
    """
    from repro.datasets.registry import DiversityDataset

    if not isinstance(dataset, DiversityDataset):
        raise IngestError(
            f"streaming ingest supports diversity datasets, not "
            f"{type(dataset).__name__}"
        )
    return LiveDataset(
        points=dataset.points,
        payloads=[sorted(tags) for tags in dataset.tag_sets],
        fn_builder=coverage_fn_builder,
        space=dataset.space,
    )


@dataclass(frozen=True)
class ApplyResult:
    """What one successfully applied batch did.

    Attributes:
        seq: the batch's sequence number.
        inserted_ids: stable ids assigned to the batch's inserts, in
            event order.
        n_deletes: delete events executed.
        touched: closed bounding box of every inserted and deleted point —
            the region whose cached answers are now stale.
    """

    seq: int
    inserted_ids: Tuple[int, ...]
    n_deletes: int
    touched: BBox


class LiveDataset:
    """Mutable points + payloads + alive flags behind one served dataset.

    Not thread-safe by itself: the pipeline serializes all calls through
    its drain worker.

    Args:
        points: initial object locations (stable ids 0..n-1).
        payloads: per-object payloads, parallel to ``points``; defaults
            to ``None`` payloads.
        fn_builder: deterministic score-function builder; defaults to the
            diversity coverage builder.
        space: the base space (see :attr:`space`); defaults to the
            points' padded bounding box,
            :func:`~repro.geometry.rect.space_of`.

    Raises:
        IngestError: on empty ``points``, mismatched ``payloads``, or a
            point outside an explicit ``space``.
    """

    def __init__(
        self,
        points: Sequence[Point],
        payloads: Optional[Sequence[Any]] = None,
        fn_builder: FnBuilder = coverage_fn_builder,
        space: Optional[Rect] = None,
    ) -> None:
        if not points:
            raise IngestError("a live dataset needs at least one object")
        if payloads is None:
            payloads = [None] * len(points)
        if len(payloads) != len(points):
            raise IngestError(
                f"{len(points)} points but {len(payloads)} payloads"
            )
        if space is None:
            space = space_of(points)
        elif grown_space(space, points) != space:
            raise IngestError(f"a base point lies outside the space {space}")
        self._points: List[Point] = list(points)
        self._payloads: List[Any] = list(payloads)
        self._alive: List[bool] = [True] * len(points)
        self._n_alive = len(points)
        self._fn_builder = fn_builder
        self._space = space
        self._last_applied_seq = -1

    def _rollback(self, n_before: int, alive_before: List[bool]) -> None:
        """Undo a half-applied batch: drop its slots, restore the flags."""
        del self._points[n_before:]
        del self._payloads[n_before:]
        self._alive = alive_before
        self._n_alive = sum(alive_before)

    # -- state -----------------------------------------------------------

    @property
    def last_applied_seq(self) -> int:
        """Sequence number of the last applied batch (-1 initially)."""
        return self._last_applied_seq

    @property
    def n_alive(self) -> int:
        """Objects currently alive."""
        return self._n_alive

    @property
    def n_total(self) -> int:
        """Stable ids ever assigned (alive + tombstoned)."""
        return len(self._points)

    @property
    def space(self) -> Rect:
        """The space a store serves once it installs :meth:`snapshot`.

        The base space, grown over the alive points when one lies outside
        it: :func:`~repro.geometry.rect.grown_space`, the rule
        :meth:`~repro.serve.store.DatasetStore.apply_regional` applies.
        """
        return grown_space(self._space, [self._points[i] for i in self.alive_ids()])

    def is_alive(self, obj_id: int) -> bool:
        """True iff ``obj_id`` names a live object."""
        return 0 <= obj_id < len(self._points) and self._alive[obj_id]

    def point_of(self, obj_id: int) -> Point:
        """Location of a stable id (alive or tombstoned).

        Raises:
            IngestError: on an id that was never assigned.
        """
        if not 0 <= obj_id < len(self._points):
            raise IngestError(f"unknown object id {obj_id}")
        return self._points[obj_id]

    def payload_of(self, obj_id: int) -> Any:
        """Payload of a stable id (alive or tombstoned).

        Raises:
            IngestError: on an id that was never assigned.
        """
        if not 0 <= obj_id < len(self._points):
            raise IngestError(f"unknown object id {obj_id}")
        return self._payloads[obj_id]

    # -- mutation --------------------------------------------------------

    def _dry_run(self, events: Sequence[Event]) -> None:
        """Validate a batch against current state without changing it.

        Raises:
            IngestError: on a delete of a dead/unknown id (deletes may
                target inserts earlier in the same batch), or on a batch
                that would leave the dataset empty.
        """
        validate_events(events)
        next_id = len(self._points)
        born: Set[int] = set()
        killed: Set[int] = set()
        n_alive = self._n_alive
        for i, event in enumerate(events):
            if isinstance(event, Insert):
                born.add(next_id)
                next_id += 1
                n_alive += 1
            else:
                obj_id = event.obj_id
                alive_now = (
                    obj_id in born
                    or (
                        obj_id < len(self._points)
                        and self._alive[obj_id]
                    )
                ) and obj_id not in killed
                if not alive_now:
                    raise IngestError(
                        f"event {i}: delete of unknown or dead object {obj_id}"
                    )
                killed.add(obj_id)
                n_alive -= 1
        if n_alive <= 0:
            raise IngestError("batch would leave the dataset empty")

    def apply(self, batch: MutationBatch) -> ApplyResult:
        """Execute one batch against points, payloads, and alive flags.

        All-or-nothing: expected failures are caught by an up-front dry
        run; an unexpected mid-batch exception rolls the dataset back to
        its pre-batch state before re-raising as
        :class:`~repro.runtime.errors.IngestError`.

        Raises:
            IngestError: on an out-of-order sequence number, a batch that
                fails validation, or a rolled-back mid-batch failure.
        """
        if batch.seq <= self._last_applied_seq:
            raise IngestError(
                f"batch seq {batch.seq} already applied "
                f"(last is {self._last_applied_seq})",
                batch_id=batch.batch_id,
            )
        self._dry_run(batch.events)

        n_before = len(self._points)
        alive_before = list(self._alive)
        inserted: List[int] = []
        touched: Optional[BBox] = None
        try:
            for event in batch.events:
                if isinstance(event, Insert):
                    p = Point(event.x, event.y)
                    inserted.append(len(self._points))
                    self._points.append(p)
                    self._payloads.append(event.payload)
                    self._alive.append(True)
                    self._n_alive += 1
                else:
                    p = self._points[event.obj_id]
                    self._alive[event.obj_id] = False
                    self._n_alive -= 1
                box = BBox(p.x, p.x, p.y, p.y)
                touched = box if touched is None else touched.union(box)
        except Exception as exc:
            self._rollback(n_before, alive_before)
            raise IngestError(
                f"batch failed mid-apply and was rolled back: {exc}",
                batch_id=batch.batch_id,
            )
        self._last_applied_seq = batch.seq
        assert touched is not None  # validate_events rejects empty batches
        return ApplyResult(
            seq=batch.seq,
            inserted_ids=tuple(inserted),
            n_deletes=sum(1 for e in batch.events if isinstance(e, Delete)),
            touched=touched,
        )

    # -- snapshots -------------------------------------------------------

    def alive_ids(self) -> List[int]:
        """Stable ids of the live objects, ascending."""
        return [i for i, alive in enumerate(self._alive) if alive]

    def snapshot(self) -> Tuple[List[Point], List[int], SetFunction]:
        """Compact the live objects into an immutable read view.

        Returns:
            ``(points, external_ids, fn)`` — dense positional points, the
            stable id of each position, and a freshly built score
            function over the compacted payloads.
        """
        ids = self.alive_ids()
        points = [self._points[i] for i in ids]
        payloads = [self._payloads[i] for i in ids]
        return points, ids, self._fn_builder(points, payloads)
