"""The durable mutation pipeline: WAL → apply → atomic flip → mark.

:class:`IngestPipeline` ties the pieces together.  One batch flows

1. **append** — the batch is validated, assigned the next sequence
   number, and written to the write-ahead log (fsync).  From this moment
   it survives any crash: state ``pending``.
2. **apply** — the drain worker executes it against the
   :class:`~repro.ingest.live.LiveDataset` (points, payloads, alive
   flags), with capped retry/backoff around transient faults; a batch
   that exhausts its retries is marked ``failed`` in the log so recovery
   skips it.  State ``applied``.
3. **flip** — a compacted snapshot is installed in the
   :class:`~repro.serve.store.DatasetStore` (one dict swap: readers see
   the old dataset or the new one, never a mixture) and the result cache
   is invalidated **regionally** — only entries whose query window
   touches the batch's bounding box are evicted.  State ``visible``.
4. **mark** — an ``applied`` mark is appended to the log.  The mark is
   written *after* visibility, so a crash anywhere in 2–3 leaves the
   batch unmarked (= ``pending``) and recovery simply re-runs it: apply
   is deterministic and recovery starts from the base snapshot, which
   makes replay idempotent and exactly-once.

Recovery is the same code path: constructing a pipeline with ``replay``
(the default) re-runs every non-failed logged batch, in sequence order,
against the base dataset, then installs one snapshot.  Unmarked batches
get their ``applied`` mark completed.

Threading: ``background=True`` starts a daemon drain worker and
:meth:`append` returns after the WAL write (durable, not yet visible);
``background=False`` drains synchronously inside :meth:`append`.  Either
way :meth:`drain` blocks until everything appended so far is visible,
and :meth:`close` (idempotent, SIGTERM-safe) flushes pending batches
before closing the log.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.ingest.events import Event, MutationBatch, validate_events
from repro.ingest.live import ApplyResult, LiveDataset
from repro.ingest.wal import IngestLog, ReplayedBatch
from repro.obs.metrics import MetricsRegistry, active_registry
from repro.obs.trace import Tracer, active_tracer
from repro.runtime.errors import IngestError


@dataclass
class BatchStatus:
    """Where one batch sits in the state machine (see module docstring)."""

    batch_id: str
    seq: int
    state: str = "pending"
    attempts: int = 0
    error: Optional[str] = None


@dataclass
class _QueueEntry:
    batch: MutationBatch
    done: threading.Event = field(default_factory=threading.Event)


class IngestPipeline:
    """Durable ingest for one served dataset.

    Args:
        live: the mutable working copy (base state *before* the log).
        log: the write-ahead log; replayed batches are applied on top of
            ``live`` during construction when ``replay`` is true.
        store: dataset store to flip snapshots into; ``None`` for
            standalone (CLI/replay) use, where the live dataset itself is
            the visible state.
        cache: result cache for regional invalidation; ignored without a
            store.
        dataset_id: id under which snapshots are installed (required with
            a store).
        replay: re-run logged batches during construction (crash
            recovery); turn off only when the caller knows the log is
            empty or already applied.
        background: drain on a worker thread; otherwise :meth:`append`
            drains synchronously before returning.
        max_retries: additional apply attempts per batch.
        backoff: initial retry delay, doubled per attempt.
        sleeper: sleep implementation (injectable for tests).
        registry: metrics registry; the ambient one is captured at
            construction (drain runs on a thread, so the context-local
            registry would not propagate on its own).

    Raises:
        IngestError: on inconsistent arguments or a failed replay.
        LogCorruptionError: when the log is damaged mid-file.
    """

    def __init__(
        self,
        live: LiveDataset,
        log: IngestLog,
        store: Optional[Any] = None,
        cache: Optional[Any] = None,
        dataset_id: Optional[str] = None,
        replay: bool = True,
        background: bool = False,
        max_retries: int = 3,
        backoff: float = 0.01,
        sleeper: Callable[[float], None] = time.sleep,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if store is not None and dataset_id is None:
            raise IngestError("a store needs a dataset_id to install under")
        if max_retries < 0:
            raise IngestError(f"max_retries must be >= 0, got {max_retries}")
        if backoff < 0:
            raise IngestError(f"backoff must be >= 0, got {backoff}")
        self.live = live
        self.log = log
        self.store = store
        self.cache = cache
        self.dataset_id = dataset_id
        self.max_retries = max_retries
        self.backoff = backoff
        self._sleeper = sleeper
        self._registry = registry if registry is not None else active_registry()
        self._tracer: Tracer = active_tracer()
        self._statuses: Dict[str, BatchStatus] = {}
        self._lock = threading.Lock()
        self._queue: "queue.Queue[Optional[_QueueEntry]]" = queue.Queue()
        self._closed = False
        self.n_replayed = 0
        if replay:
            self._replay()
        self._worker: Optional[threading.Thread] = None
        if background:
            self._worker = threading.Thread(
                target=self._drain_loop, name="brs-ingest-drain", daemon=True
            )
            self._worker.start()

    # -- recovery --------------------------------------------------------

    def _replay(self) -> None:
        """Re-run the log on top of the base state (crash recovery)."""
        replayed = self.log.replay()
        with self._tracer.span(
            "ingest.replay", batches=len(replayed.batches)
        ):
            for rb in replayed.batches:
                status = BatchStatus(
                    batch_id=rb.batch.batch_id,
                    seq=rb.batch.seq,
                    state=rb.state,
                    attempts=rb.attempts,
                )
                self._statuses[rb.batch.batch_id] = status
                if rb.state == "failed":
                    continue
                if rb.batch.seq <= self.live.last_applied_seq:
                    # Base snapshot already contains it (caller persisted a
                    # newer base than the log start); nothing to redo.
                    status.state = "visible"
                    continue
                result = self.live.apply(rb.batch)  # deterministic redo
                self.n_replayed += 1
                if rb.state == "pending":
                    # Complete the interrupted protocol: visibility (the
                    # flip below) precedes the mark, same as live traffic.
                    self.log.append_mark(
                        rb.batch.batch_id, rb.batch.seq, "applied"
                    )
                status.state = "visible"
                del result  # regions are moot: the cache starts empty
        if self.n_replayed and self.store is not None:
            self._flip(regions=[])
        self._count(
            "brs_ingest_replayed_total",
            "logged batches re-applied during recovery",
            self.n_replayed,
        )

    # -- the three stages ------------------------------------------------

    def _apply_with_retry(self, batch: MutationBatch) -> ApplyResult:
        delay = self.backoff
        last_error: Optional[IngestError] = None
        for attempt in range(self.max_retries + 1):
            try:
                with self._tracer.span(
                    "ingest.apply", batch_id=batch.batch_id, attempt=attempt
                ):
                    result = self.live.apply(batch)
                with self._lock:
                    self._statuses[batch.batch_id].attempts = attempt + 1
                return result
            except IngestError as exc:
                last_error = exc
                if attempt == self.max_retries:
                    break
                self._count(
                    "brs_ingest_retries_total", "ingest apply attempts retried"
                )
                if delay > 0:
                    self._sleeper(delay)
                delay *= 2
        assert last_error is not None
        raise last_error

    def _flip(self, regions: Sequence[Any]) -> None:
        """Install a fresh snapshot, then evict the touched cache region."""
        if self.store is None:
            return
        points, external_ids, fn = self.live.snapshot()
        self.store.apply_regional(
            self.dataset_id, points, fn, external_ids
        )
        if self.cache is not None and regions:
            self.cache.invalidate_region(self.dataset_id, list(regions))

    def _process(self, batch: MutationBatch) -> None:
        """Run one pending batch through apply → flip → mark."""
        status = self._statuses[batch.batch_id]
        try:
            result = self._apply_with_retry(batch)
        except IngestError as exc:
            with self._lock:
                status.state = "failed"
                status.attempts = self.max_retries + 1
                status.error = str(exc)
            try:
                self.log.append_mark(
                    batch.batch_id, batch.seq, "failed", status.attempts
                )
            except IngestError:
                # The log refused the mark (disk fault).  The durable state
                # stays "pending"; recovery will re-attempt the batch, which
                # is safe — apply is deterministic, so it will fail (or,
                # with the fault gone, succeed) identically.
                self._count(
                    "brs_ingest_unmarked_total",
                    "batch outcomes that could not be logged",
                )
            self._count(
                "brs_ingest_batches_failed_total",
                "batches that exhausted their apply retries",
            )
            return
        with self._lock:
            status.state = "applied"
        self._flip(regions=[result.touched])
        with self._lock:
            status.state = "visible"
        try:
            self.log.append_mark(
                batch.batch_id, batch.seq, "applied", status.attempts
            )
        except IngestError:
            # Already visible; the missing mark only means recovery will
            # redo this batch, which replay makes idempotent.
            self._count(
                "brs_ingest_unmarked_total",
                "batch outcomes that could not be logged",
            )
        self._count(
            "brs_ingest_batches_applied_total", "batches applied and made visible"
        )
        self._count(
            "brs_ingest_events_total",
            "mutation events applied",
            len(batch.events),
        )

    # -- public API ------------------------------------------------------

    def append(
        self, events: Sequence[Event], batch_id: Optional[str] = None
    ) -> MutationBatch:
        """Durably accept a batch; visibility follows via the drain.

        Returns the batch (with its assigned ``seq``) once the WAL write
        has fsynced — the durability point.  In synchronous mode the
        batch is also fully visible on return.

        Raises:
            IngestError: when closed, on invalid events, or when the WAL
                append fails (nothing was accepted).
        """
        if self._closed:
            raise IngestError("pipeline is closed")
        validate_events(events)
        with self._lock:
            seq = self.log.last_seq + 1
            if batch_id is None:
                batch_id = f"b{seq:08d}"
            if batch_id in self._statuses:
                raise IngestError(
                    f"duplicate batch id {batch_id!r}", batch_id=batch_id
                )
            batch = MutationBatch(
                batch_id=batch_id, seq=seq, events=tuple(events)
            )
            with self._tracer.span(
                "ingest.append", batch_id=batch_id, events=len(events)
            ):
                # The fsync must happen under the lock: seq allocation and
                # the durable append are one atomic step of the ordering
                # contract (a concurrent append may not observe seq N
                # before N-1 is on disk).  Deliberate BRS011 exception.
                self.log.append_batch(batch)  # brs: noqa[BRS011]
            self._statuses[batch_id] = BatchStatus(batch_id=batch_id, seq=seq)
            # Enqueue under the lock: queue order must match seq order or
            # a concurrent producer can enqueue seq N+1 ahead of N and the
            # drain worker rejects N as already applied.  The put never
            # blocks (the queue is unbounded).
            entry = _QueueEntry(batch)
            self._queue.put(entry)
        self._gauge_pending()
        if self._worker is None:
            self._drain_once()
        return batch

    def _drain_once(self) -> None:
        """Process everything currently queued (synchronous mode)."""
        while True:
            try:
                entry = self._queue.get_nowait()
            except queue.Empty:
                return
            if entry is None:
                continue
            try:
                self._process(entry.batch)
            finally:
                entry.done.set()
                self._gauge_pending()

    def _drain_loop(self) -> None:
        """Background worker: drain until the shutdown sentinel."""
        while True:
            entry = self._queue.get()
            if entry is None:
                return
            try:
                self._process(entry.batch)
            finally:
                entry.done.set()
                self._gauge_pending()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every batch appended so far left ``pending``.

        Returns False on timeout (background mode only).
        """
        if self._worker is None:
            self._drain_once()
            return True
        deadline = (
            time.perf_counter() + timeout if timeout is not None else None
        )
        while True:
            with self._lock:
                pending = [
                    s for s in self._statuses.values() if s.state == "pending"
                ]
            if not pending:
                return True
            if deadline is not None and time.perf_counter() > deadline:
                return False
            self._sleeper(0.001)

    def status(self) -> Dict[str, Any]:
        """JSON-friendly summary: per-state counts plus sequence frontier."""
        with self._lock:
            counts = {"pending": 0, "applied": 0, "visible": 0, "failed": 0}
            for s in self._statuses.values():
                counts[s.state] += 1
        return {
            "states": counts,
            "last_seq": self.log.last_seq,
            "last_applied_seq": self.live.last_applied_seq,
            "alive_objects": self.live.n_alive,
            "replayed": self.n_replayed,
        }

    def batch_status(self, batch_id: str) -> BatchStatus:
        """The state-machine position of one batch.

        Raises:
            IngestError: on an unknown batch id.
        """
        with self._lock:
            status = self._statuses.get(batch_id)
        if status is None:
            raise IngestError(f"unknown batch {batch_id!r}", batch_id=batch_id)
        return status

    def close(self, flush: bool = True) -> None:
        """Stop accepting batches, optionally flush, and close the log.

        Idempotent and safe to call from a SIGTERM handler thread: with
        ``flush`` every already-accepted batch is driven to a terminal
        state before the log closes, so a clean shutdown leaves nothing
        pending.
        """
        if self._closed:
            return
        self._closed = True
        if self._worker is not None:
            if flush:
                self.drain()
            self._queue.put(None)  # sentinel: stop after queued work
            self._worker.join(timeout=5.0)
            self._worker = None
        elif flush:
            self._drain_once()
        self.log.close()

    def __enter__(self) -> "IngestPipeline":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- metrics ---------------------------------------------------------

    def _count(self, name: str, help: str, n: int = 1) -> None:
        if self._registry.enabled and n:
            self._registry.counter(name, help=help).inc(n)

    def _gauge_pending(self) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            pending = sum(
                1 for s in self._statuses.values() if s.state == "pending"
            )
        self._registry.gauge(
            "brs_ingest_pending_batches", help="batches accepted but not visible"
        ).set(pending)
