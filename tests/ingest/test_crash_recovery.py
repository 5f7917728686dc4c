"""Crash-recovery differentials: replay equals a from-scratch rebuild.

The acceptance property of the durable ingest pipeline: kill the process
at *any* point — mid-append (torn WAL tail), after the append but before
the apply, after visibility but before the mark — restart, replay, and
the recovered dataset is byte-identical to one rebuilt from scratch from
the durably logged batches, down to the exact optimal score the naive
oracle computes.

Most trials here simulate the crash deterministically by truncating a
fully written WAL at seeded byte offsets (every prefix of a WAL is a
possible crash state, including mid-record ones).  One slower trial
SIGKILLs a real child process via the ``repro.ingest.selfcheck`` harness
that CI runs at larger scale.
"""

import random
import sys

import pytest

from repro.ingest import selfcheck
from repro.ingest.live import LiveDataset
from repro.ingest.pipeline import IngestPipeline
from repro.ingest.wal import IngestLog, read_log


def _run_workload(seed: int, wal, n_batches: int = 12) -> None:
    """Feed the seeded workload through a real pipeline (no crash)."""
    points, payloads = selfcheck.base_points(seed)
    live = LiveDataset(points, payloads, space=selfcheck.SPACE)
    with IngestPipeline(live, IngestLog(wal, sync=False)) as pipe:
        for events in selfcheck.seeded_workload(seed, n_batches):
            pipe.append(events)


@pytest.mark.parametrize("seed", range(20))
def test_recovery_from_seeded_truncation_matches_rebuild(tmp_path, seed):
    """Cut the WAL at a seeded offset — a simulated crash — and recover."""
    wal = tmp_path / "wal.jsonl"
    _run_workload(seed, wal)
    whole = wal.read_bytes()
    # A crash persists some prefix of the log; pick one that keeps at
    # least one full record so there is something to replay.
    rng = random.Random(seed * 7 + 1)
    first_record_end = whole.index(b"\n") + 1
    cut = rng.randint(first_record_end, len(whole))
    wal.write_bytes(whole[:cut])

    verdict = selfcheck.check_trial(seed, wal)
    assert verdict["ok"], verdict["failures"]
    assert verdict["alive_objects"] > 0


def test_mid_record_truncation_is_survivable(tmp_path):
    """A cut strictly inside the final record must replay as a torn tail."""
    wal = tmp_path / "wal.jsonl"
    _run_workload(3, wal)
    whole = wal.read_bytes()
    last_line_start = whole.rstrip(b"\n").rindex(b"\n") + 1
    wal.write_bytes(whole[: last_line_start + 5])  # shear the last record

    assert read_log(wal).truncated_tail
    verdict = selfcheck.check_trial(3, wal)
    assert verdict["ok"], verdict["failures"]
    # Recovery repaired the tail on open: the log is clean again.
    assert not read_log(wal).truncated_tail


def test_recovery_is_idempotent(tmp_path):
    """Recovering an already-recovered log changes nothing."""
    wal = tmp_path / "wal.jsonl"
    _run_workload(5, wal)
    once = selfcheck.recover_with_pipeline(5, wal)
    twice = selfcheck.recover_with_pipeline(5, wal)
    assert selfcheck.fingerprint(once) == selfcheck.fingerprint(twice)


def test_recovered_pipeline_accepts_new_batches(tmp_path):
    """Post-recovery the pipeline keeps working with correct sequencing."""
    wal = tmp_path / "wal.jsonl"
    _run_workload(9, wal, n_batches=6)
    points, payloads = selfcheck.base_points(9)
    live = LiveDataset(points, payloads, space=selfcheck.SPACE)
    with IngestPipeline(live, IngestLog(wal, sync=False)) as pipe:
        replayed_seq = pipe.live.last_applied_seq
        batch = pipe.append(selfcheck.seeded_workload(9, 7)[6])
        assert batch.seq == replayed_seq + 1
        assert pipe.batch_status(batch.batch_id).state == "visible"
    assert not selfcheck.check_snapshot(live)


@pytest.mark.slow
def test_sigkill_mid_flight_recovers(tmp_path):
    """One real SIGKILL trial through the CI selfcheck harness."""
    verdict = selfcheck.run_trial(
        seed=1, wal=tmp_path / "wal.jsonl", n_batches=20, pause=0.02
    )
    assert verdict["ok"], verdict["failures"]
