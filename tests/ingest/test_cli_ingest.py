"""Tests for the ``repro-brs ingest`` command family."""

import json

import pytest

from repro.cli import main
from repro.io.json_io import load_dataset


@pytest.fixture()
def dataset_file(tmp_path):
    from repro.datasets.registry import yelp_like
    from repro.io.json_io import save_dataset

    path = tmp_path / "ds.json"
    save_dataset(yelp_like(n_objects=80, seed=11), path)
    return str(path)


@pytest.fixture()
def wal_file(tmp_path):
    return str(tmp_path / "wal.jsonl")


class TestAppend:
    def test_insert_flag_appends_durably(self, dataset_file, wal_file, capsys):
        code = main(
            [
                "ingest", "append", dataset_file,
                "--log", wal_file, "--insert", "1.0,2.0,food+cheap",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "seq=0" in printed and "visible" in printed
        assert "81 objects alive" in printed

    def test_events_file_and_delete_flag(self, dataset_file, wal_file, tmp_path, capsys):
        events = tmp_path / "events.json"
        events.write_text(json.dumps([["ins", 3.0, 4.0, ["bar"]]]))
        code = main(
            [
                "ingest", "append", dataset_file,
                "--log", wal_file, "--events", str(events), "--delete", "0",
            ]
        )
        assert code == 0
        assert "2 events" in capsys.readouterr().out

    def test_empty_append_is_a_usage_error(self, dataset_file, wal_file):
        assert main(["ingest", "append", dataset_file, "--log", wal_file]) != 0

    def test_bad_insert_spec_is_a_usage_error(self, dataset_file, wal_file):
        code = main(
            [
                "ingest", "append", dataset_file,
                "--log", wal_file, "--insert", "not-a-point",
            ]
        )
        assert code != 0

    def test_failed_batch_exits_nonzero(self, dataset_file, wal_file, capsys):
        code = main(
            [
                "ingest", "append", dataset_file,
                "--log", wal_file, "--delete", "12345",
            ]
        )
        assert code != 0
        assert "failed" in capsys.readouterr().out

    def test_appends_accumulate_across_invocations(
        self, dataset_file, wal_file, capsys
    ):
        main(["ingest", "append", dataset_file, "--log", wal_file,
              "--insert", "1.0,1.0"])
        code = main(["ingest", "append", dataset_file, "--log", wal_file,
                     "--insert", "2.0,2.0"])
        assert code == 0
        assert "seq=1" in capsys.readouterr().out


class TestStatus:
    def test_status_reports_state_counts(self, dataset_file, wal_file, capsys):
        main(["ingest", "append", dataset_file, "--log", wal_file,
              "--insert", "1.0,1.0"])
        main(["ingest", "append", dataset_file, "--log", wal_file,
              "--delete", "99999"])
        capsys.readouterr()
        assert main(["ingest", "status", "--log", wal_file]) == 0
        printed = capsys.readouterr().out
        assert "2 batches" in printed
        assert "applied: 1" in printed
        assert "failed: 1" in printed

    def test_status_of_missing_log_is_empty(self, wal_file, capsys):
        assert main(["ingest", "status", "--log", wal_file]) == 0
        assert "0 batches" in capsys.readouterr().out

    def test_corrupt_log_exits_with_bad_input(self, wal_file, tmp_path, capsys):
        with open(wal_file, "w") as fh:
            fh.write('{"kind": "junk"}\n{"also": "junk"}\n')
        assert main(["ingest", "status", "--log", wal_file]) == 2


class TestReplay:
    def test_replay_writes_recovered_dataset(
        self, dataset_file, wal_file, tmp_path, capsys
    ):
        main(["ingest", "append", dataset_file, "--log", wal_file,
              "--insert", "1.0,2.0,food", "--delete", "3"])
        out = tmp_path / "recovered.json"
        capsys.readouterr()
        code = main(
            ["ingest", "replay", dataset_file, "--log", wal_file,
             "--out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "replayed 1 batches" in printed
        recovered = load_dataset(str(out))
        assert len(recovered.points) == 80  # 80 + 1 insert - 1 delete
        assert recovered.name == "recovered"

    def test_replay_writes_the_space_a_replayed_store_serves(
        self, tmp_path, wal_file
    ):
        from repro.datasets.registry import DiversityDataset
        from repro.geometry.point import Point
        from repro.geometry.rect import Rect
        from repro.ingest import IngestLog, IngestPipeline, live_from_diversity
        from repro.io.json_io import save_dataset
        from repro.serve.store import DatasetStore

        base = DiversityDataset(
            name="small",
            points=[Point(1.0 + i, 2.0 + 0.5 * i) for i in range(8)],
            tag_sets=[frozenset({f"t{i % 3}"}) for i in range(8)],
            space=Rect(0.0, 10.0, 0.0, 10.0),
        )
        data = tmp_path / "small.json"
        save_dataset(base, data)
        main(["ingest", "append", str(data), "--log", wal_file,
              "--insert", "50.0,50.0,t9"])
        out = tmp_path / "recovered.json"
        assert main(["ingest", "replay", str(data), "--log", wal_file,
                     "--out", str(out)]) == 0

        store = DatasetStore()
        store.add_dataset("d", load_dataset(str(data)))
        pipe = IngestPipeline(
            live_from_diversity(load_dataset(str(data))),
            IngestLog(wal_file), store=store, dataset_id="d",
        )
        pipe.close()
        served = store.resolve("d").space
        assert load_dataset(str(out)).space == served
        assert served == Rect(0.0, 51.0, 0.0, 51.0)
