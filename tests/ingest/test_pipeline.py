"""IngestPipeline tests: state machine, retries, drain, shutdown, flips."""

import random
import threading

import pytest

from repro.functions.coverage import CoverageFunction
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.ingest.events import Delete, Insert
from repro.ingest.live import LiveDataset
from repro.ingest.pipeline import IngestPipeline
from repro.ingest.selfcheck import check_snapshot
from repro.ingest.wal import IngestLog, read_log
from repro.obs.metrics import MetricsRegistry
from repro.runtime.errors import IngestError
from repro.runtime.faults import DiskFaultPlan, FaultyLogFile
from repro.serve.cache import ResultCache
from repro.serve.model import normalize_query
from repro.serve.store import DatasetStore

SPACE = Rect(0.0, 10.0, 0.0, 10.0)


def _live(n=6, seed=5):
    rng = random.Random(seed)
    points = [Point(rng.uniform(1, 9), rng.uniform(1, 9)) for _ in range(n)]
    payloads = [[i % 4] for i in range(n)]
    return LiveDataset(points, payloads, space=SPACE)


def _pipe(tmp_path, **kwargs):
    return IngestPipeline(_live(), IngestLog(tmp_path / "wal.jsonl"), **kwargs)


class TestStateMachine:
    def test_sync_append_is_visible_on_return(self, tmp_path):
        with _pipe(tmp_path) as pipe:
            batch = pipe.append([Insert(2.0, 2.0, payload=[1])])
            assert pipe.batch_status(batch.batch_id).state == "visible"
            assert pipe.live.n_alive == 7
            assert read_log(pipe.log.path).batches[0].state == "applied"

    def test_seq_numbers_are_dense_and_increasing(self, tmp_path):
        with _pipe(tmp_path) as pipe:
            seqs = [pipe.append([Insert(2.0, 2.0)]).seq for _ in range(3)]
        assert seqs == [0, 1, 2]

    def test_expected_failure_lands_in_failed(self, tmp_path):
        with _pipe(tmp_path, max_retries=1, backoff=0.0) as pipe:
            batch = pipe.append([Delete(99)])
            status = pipe.batch_status(batch.batch_id)
            assert status.state == "failed"
            assert status.attempts == 2  # initial try + one retry
            assert "unknown or dead" in status.error
            assert pipe.live.n_alive == 6  # nothing changed
        assert read_log(tmp_path / "wal.jsonl").batches[0].state == "failed"

    def test_duplicate_batch_id_rejected(self, tmp_path):
        with _pipe(tmp_path) as pipe:
            pipe.append([Insert(2.0, 2.0)], batch_id="same")
            with pytest.raises(IngestError):
                pipe.append([Insert(3.0, 3.0)], batch_id="same")

    def test_closed_pipeline_rejects_appends(self, tmp_path):
        pipe = _pipe(tmp_path)
        pipe.close()
        with pytest.raises(IngestError):
            pipe.append([Insert(2.0, 2.0)])

    def test_status_summary_counts_states(self, tmp_path):
        with _pipe(tmp_path, max_retries=0, backoff=0.0) as pipe:
            pipe.append([Insert(2.0, 2.0)])
            pipe.append([Delete(99)])
            summary = pipe.status()
        assert summary["states"]["visible"] == 1
        assert summary["states"]["failed"] == 1
        assert summary["last_seq"] == 1
        assert summary["alive_objects"] == 7


class TestRetries:
    def test_transient_apply_fault_is_retried(self, tmp_path, monkeypatch):
        sleeps = []
        pipe = _pipe(tmp_path, max_retries=3, backoff=0.5, sleeper=sleeps.append)
        real_apply = pipe.live.apply
        attempts = {"n": 0}

        def flaky_apply(batch):
            attempts["n"] += 1
            if attempts["n"] <= 2:
                raise IngestError("transient")
            return real_apply(batch)

        monkeypatch.setattr(pipe.live, "apply", flaky_apply)
        batch = pipe.append([Insert(2.0, 2.0)])
        status = pipe.batch_status(batch.batch_id)
        assert status.state == "visible"
        assert status.attempts == 3
        assert sleeps == [0.5, 1.0]  # exponential backoff, injected sleeper
        pipe.close()

    def test_exhausted_retries_fail_terminally(self, tmp_path, monkeypatch):
        registry = MetricsRegistry()
        pipe = _pipe(
            tmp_path, max_retries=2, backoff=0.0, registry=registry
        )
        monkeypatch.setattr(
            pipe.live,
            "apply",
            lambda batch: (_ for _ in ()).throw(IngestError("permanent")),
        )
        batch = pipe.append([Insert(2.0, 2.0)])
        assert pipe.batch_status(batch.batch_id).state == "failed"
        assert registry.counter("brs_ingest_retries_total").value == 2
        assert registry.counter("brs_ingest_batches_failed_total").value == 1
        pipe.close()

    def test_unloggable_failed_mark_keeps_batch_durable_pending(
        self, tmp_path, monkeypatch
    ):
        # The mark write dies (disk fault) after the apply failed: the
        # batch's durable state stays "pending" so recovery re-judges it.
        registry = MetricsRegistry()
        plan = DiskFaultPlan("torn", indices=[1], max_faults=1)
        log = IngestLog(
            tmp_path / "wal.jsonl",
            opener=lambda path: FaultyLogFile(open(path, "ab"), plan),
        )
        pipe = IngestPipeline(
            _live(), log, max_retries=0, backoff=0.0, registry=registry
        )
        batch = pipe.append([Delete(99)])
        assert pipe.batch_status(batch.batch_id).state == "failed"
        assert registry.counter("brs_ingest_unmarked_total").value == 1
        pipe.close()
        assert read_log(tmp_path / "wal.jsonl").batches[0].state == "pending"


class TestBackgroundDrain:
    def test_background_append_becomes_visible_after_drain(self, tmp_path):
        with _pipe(tmp_path, background=True) as pipe:
            batch = pipe.append([Insert(2.0, 2.0)])
            assert pipe.drain(timeout=10.0)
            assert pipe.batch_status(batch.batch_id).state == "visible"

    def test_close_flushes_everything_pending(self, tmp_path):
        pipe = _pipe(tmp_path, background=True)
        ids = [pipe.append([Insert(2.0 + i * 0.1, 2.0)]).batch_id for i in range(20)]
        pipe.close(flush=True)
        assert all(pipe.batch_status(b).state == "visible" for b in ids)
        assert pipe.status()["states"]["pending"] == 0
        replay = read_log(tmp_path / "wal.jsonl")
        assert all(rb.state == "applied" for rb in replay.batches)

    def test_concurrent_producers_never_corrupt_the_log(self, tmp_path):
        pipe = _pipe(tmp_path, background=True)
        errors = []

        def produce(tag):
            try:
                for i in range(10):
                    pipe.append(
                        [Insert(1.0 + tag * 0.3, 1.0 + i * 0.2, payload=[tag])]
                    )
            except IngestError as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [
            threading.Thread(target=produce, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        pipe.close(flush=True)
        assert not errors
        replay = read_log(tmp_path / "wal.jsonl")
        assert [rb.batch.seq for rb in replay.batches] == list(range(40))
        assert pipe.live.n_alive == 6 + 40
        assert not check_snapshot(pipe.live)


class TestStoreFlip:
    def _served(self, tmp_path, cache_size=16):
        live = _live()
        store = DatasetStore()
        cache = ResultCache(cache_size)
        points, ids, fn = live.snapshot()
        store.add_points("d", points, fn, fn_key="coverage")
        pipe = IngestPipeline(
            live,
            IngestLog(tmp_path / "wal.jsonl"),
            store=store,
            cache=cache,
            dataset_id="d",
        )
        return pipe, store, cache

    def test_store_requires_dataset_id(self, tmp_path):
        with pytest.raises(IngestError):
            IngestPipeline(
                _live(), IngestLog(tmp_path / "wal.jsonl"), store=DatasetStore()
            )

    def test_flip_bumps_mutation_seq_not_version(self, tmp_path):
        pipe, store, _ = self._served(tmp_path)
        before = store.resolve("d")
        pipe.append([Insert(2.0, 2.0, payload=[1])])
        after = store.resolve("d")
        assert after.version == before.version
        assert after.mutation_seq == before.mutation_seq + 1
        assert len(after.points) == 7
        assert after.external_ids == list(range(7))
        pipe.close()

    def test_flip_evicts_only_touched_region(self, tmp_path):
        pipe, store, cache = self._served(tmp_path)
        version = store.resolve("d").version
        far = normalize_query(
            "d", version, "coverage", 1.0, 1.0, focus=(8.0, 9.0, 8.0, 9.0)
        )
        near = normalize_query(
            "d", version, "coverage", 1.0, 1.0, focus=(1.5, 3.0, 1.5, 3.0)
        )
        unfocused = normalize_query("d", version, "coverage", 1.0, 1.0)
        for key in (far, near, unfocused):
            cache.put(key, "answer")
        pipe.append([Insert(2.0, 2.0, payload=[1])])
        assert far in cache
        assert near not in cache
        assert unfocused not in cache
        pipe.close()

    def test_failed_batch_does_not_flip(self, tmp_path):
        pipe, store, cache = self._served(tmp_path)
        key = normalize_query("d", store.resolve("d").version, "coverage", 1.0, 1.0)
        cache.put(key, "answer")
        pipe.append([Delete(99)])
        assert store.resolve("d").mutation_seq == 0
        assert key in cache
        pipe.close()


class TestRecoveryReplay:
    def test_pending_batches_are_reapplied_and_marked(self, tmp_path):
        wal = tmp_path / "wal.jsonl"
        # Simulate a crash after the WAL write but before any mark: log
        # the batch directly, never run it.
        with IngestLog(wal) as log:
            from repro.ingest.events import MutationBatch

            log.append_batch(
                MutationBatch("b0", 0, (Insert(2.0, 2.0, payload=[1]),))
            )
        registry = MetricsRegistry()
        pipe = IngestPipeline(_live(), IngestLog(wal), registry=registry)
        assert pipe.n_replayed == 1
        assert pipe.live.n_alive == 7
        assert pipe.batch_status("b0").state == "visible"
        assert registry.counter("brs_ingest_replayed_total").value == 1
        pipe.close()
        assert read_log(wal).batches[0].state == "applied"

    def test_failed_batches_are_skipped_on_replay(self, tmp_path):
        wal = tmp_path / "wal.jsonl"
        with IngestLog(wal) as log:
            from repro.ingest.events import MutationBatch

            log.append_batch(MutationBatch("bad", 0, (Delete(99),)))
            log.append_mark("bad", 0, "failed", attempts=4)
        pipe = IngestPipeline(_live(), IngestLog(wal))
        assert pipe.n_replayed == 0
        assert pipe.batch_status("bad").state == "failed"
        assert pipe.live.n_alive == 6
        pipe.close()

    def test_replay_installs_one_snapshot_into_the_store(self, tmp_path):
        wal = tmp_path / "wal.jsonl"
        live = _live()
        with IngestLog(wal) as log:
            from repro.ingest.events import MutationBatch

            log.append_batch(
                MutationBatch("b0", 0, (Insert(2.0, 2.0, payload=[1]),))
            )
        store = DatasetStore()
        points, ids, fn = live.snapshot()
        store.add_points("d", points, fn, fn_key="coverage")
        pipe = IngestPipeline(
            live, IngestLog(wal), store=store, dataset_id="d"
        )
        entry = store.resolve("d")
        assert len(entry.points) == 7
        assert entry.mutation_seq == 1
        pipe.close()
