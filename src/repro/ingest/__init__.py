"""Durable streaming ingest: WAL, crash recovery, snapshot flips.

The paper's exploration setting is interactive, but its data is not
static: check-ins, venues, and incident reports keep arriving while
users explore.  This package makes a served dataset *mutable* without
giving up the serving layer's caching or the paper's exact semantics:

* :mod:`repro.ingest.events` — insert/delete events, atomically-visible
  :class:`~repro.ingest.events.MutationBatch`\\ es, and their state
  machine (``pending → applied → visible``, with ``failed`` as the
  retry-exhausted exit).
* :mod:`repro.ingest.wal` — the append-only, checksummed, fsynced
  write-ahead log; a batch survives any crash once
  :meth:`~repro.ingest.pipeline.IngestPipeline.append` returns.
* :mod:`repro.ingest.live` — the mutable working copy: points, payloads
  and alive flags, with rollback of a half-applied batch; read views are
  compacted snapshots with stable external ids.
* :mod:`repro.ingest.pipeline` — ties them together and pairs each
  atomic snapshot flip with **regional** cache invalidation: only cached
  answers whose query window touches the batch's bounding box are
  evicted.
* :mod:`repro.ingest.selfcheck` — the crash-recovery differential
  harness CI runs (SIGKILL mid-batch, restart, replay, compare against a
  from-scratch rebuild and the naive oracle).
"""

from repro.ingest.events import (
    BATCH_STATES,
    Delete,
    Event,
    Insert,
    MutationBatch,
    event_from_json,
    event_to_json,
    validate_events,
)
from repro.ingest.live import (
    ApplyResult,
    LiveDataset,
    coverage_fn_builder,
    live_from_diversity,
)
from repro.ingest.pipeline import BatchStatus, IngestPipeline
from repro.ingest.wal import IngestLog, LogReplay, ReplayedBatch, read_log

__all__ = [
    "BATCH_STATES",
    "ApplyResult",
    "BatchStatus",
    "Delete",
    "Event",
    "IngestLog",
    "IngestPipeline",
    "Insert",
    "LiveDataset",
    "LogReplay",
    "MutationBatch",
    "ReplayedBatch",
    "coverage_fn_builder",
    "event_from_json",
    "event_to_json",
    "live_from_diversity",
    "read_log",
    "validate_events",
]
