"""Tests for the repro-brs command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def dataset_file(tmp_path):
    """A small diversity dataset on disk."""
    from repro.datasets.registry import yelp_like
    from repro.io.json_io import save_dataset

    path = tmp_path / "ds.json"
    save_dataset(yelp_like(n_objects=150, seed=6), path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_requires_known_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "nope", "--out", "x.json"])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve", "f.json"])
        assert args.method == "slice"
        assert args.k == 10.0
        assert args.topk == 1


class TestCommands:
    def test_generate_then_info(self, tmp_path, capsys):
        out = tmp_path / "bk.json"
        assert main(["generate", "yelp_like", "--out", str(out)]) == 0
        assert out.exists()
        assert main(["info", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "diversity" in printed
        assert "yelp_like" in printed

    def test_solve_exact(self, dataset_file, capsys):
        assert main(["solve", dataset_file, "--k", "5"]) == 0
        printed = capsys.readouterr().out
        assert "center:" in printed
        assert "score:" in printed
        assert "stats:" in printed

    def test_solve_cover_prints_cover_stats(self, dataset_file, capsys):
        assert main(["solve", dataset_file, "--method", "cover", "--c", "0.5"]) == 0
        printed = capsys.readouterr().out
        assert "cover:" in printed
        assert "|T|=" in printed

    def test_solve_topk(self, dataset_file, capsys):
        assert main(["solve", dataset_file, "--topk", "3", "--k", "5"]) == 0
        printed = capsys.readouterr().out
        assert "#1:" in printed
        assert "#3:" in printed or "#2:" in printed  # may run out of objects

    def test_solve_aspect(self, dataset_file, capsys):
        assert main(["solve", dataset_file, "--aspect", "2.0"]) == 0
        printed = capsys.readouterr().out
        # a = 2b: the printed sizes must differ by ~2x.
        header = printed.splitlines()[0]
        assert "x" in header

    def test_bench_unknown_experiment(self, capsys):
        assert main(["bench", "--only", "nope"]) == 2

    def test_solve_agrees_with_library(self, dataset_file):
        from repro.core.slicebrs import SliceBRS
        from repro.io.json_io import load_dataset

        ds = load_dataset(dataset_file)
        a, b = ds.query(5)
        expected = SliceBRS().solve(ds.points, ds.score_function(), a, b).score
        # The CLI prints the same score (smoke via return path only here;
        # stdout parsing is covered above).
        assert expected > 0


class TestBudgetFlags:
    def test_generous_timeout_prints_ok_status(self, dataset_file, capsys):
        assert main(["solve", dataset_file, "--k", "5", "--timeout", "300"]) == 0
        printed = capsys.readouterr().out
        assert "status:  ok" in printed

    def test_tiny_eval_cap_prints_status_and_gap(self, dataset_file, capsys):
        assert main(["solve", dataset_file, "--max-evals", "1"]) == 0
        printed = capsys.readouterr().out
        assert "status:" in printed
        assert "degraded" in printed or "timeout" in printed
        assert "gap:" in printed

    def test_no_budget_prints_no_status_line(self, dataset_file, capsys):
        assert main(["solve", dataset_file, "--k", "5"]) == 0
        assert "status:" not in capsys.readouterr().out


class TestObservabilityFlags:
    def test_trace_writes_parseable_jsonl(self, dataset_file, tmp_path, capsys):
        import json

        trace_path = tmp_path / "run.jsonl"
        assert main(
            ["solve", dataset_file, "--k", "5", "--trace", str(trace_path)]
        ) == 0
        events = [
            json.loads(line)
            for line in trace_path.read_text().splitlines() if line
        ]
        kinds = [e["ev"] for e in events]
        assert kinds[0] == "meta"
        assert "enter" in kinds and "exit" in kinds
        spans = {e["span"] for e in events if e["ev"] == "enter"}
        assert "slicebrs.solve" in spans
        assert str(trace_path) in capsys.readouterr().out

    def test_metrics_out_prom_exposition(self, dataset_file, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.prom"
        assert main(
            ["solve", dataset_file, "--k", "5", "--metrics-out", str(metrics_path)]
        ) == 0
        text = metrics_path.read_text()
        assert "# TYPE brs_slicebrs_solves_total counter" in text
        assert "brs_slicebrs_solves_total 1" in text
        assert "brs_candidates_total" in text
        assert str(metrics_path) in capsys.readouterr().out

    def test_metrics_out_json_snapshot(self, dataset_file, tmp_path):
        import json

        metrics_path = tmp_path / "metrics.json"
        assert main(
            ["solve", dataset_file, "--k", "5", "--metrics-out", str(metrics_path)]
        ) == 0
        data = json.loads(metrics_path.read_text())
        assert data["brs_slicebrs_solves_total"]["value"] == 1
        assert data["brs_candidates_total"]["value"] >= 1

    def test_profile_prints_hot_functions_to_stderr(self, dataset_file, capsys):
        assert main(["solve", dataset_file, "--k", "5", "--profile"]) == 0
        captured = capsys.readouterr()
        assert "function calls" in captured.err
        assert "function calls" not in captured.out

    def test_solver_and_total_time_reported_separately(self, dataset_file, capsys):
        import re

        assert main(["solve", dataset_file, "--k", "5"]) == 0
        printed = capsys.readouterr().out
        match = re.search(
            r"\[solve (\d+\.\d+)s, total (\d+\.\d+)s\]", printed
        )
        assert match, f"timing line missing from: {printed!r}"
        assert float(match.group(1)) <= float(match.group(2))


class TestErrorExitCodes:
    def test_missing_file_is_bad_input(self, capsys):
        from repro.cli import EXIT_BAD_INPUT

        assert main(["solve", "/no/such/file.json"]) == EXIT_BAD_INPUT
        assert "error:" in capsys.readouterr().err

    def test_invalid_query_is_bad_input(self, dataset_file, capsys):
        from repro.cli import EXIT_BAD_INPUT

        assert main(["solve", dataset_file, "--k", "-5"]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1  # one-line diagnosis, no traceback

    def test_bad_budget_is_bad_input(self, dataset_file, capsys):
        from repro.cli import EXIT_BAD_INPUT

        assert main(["solve", dataset_file, "--timeout", "-1"]) == EXIT_BAD_INPUT

    def test_evaluation_error_is_internal(self, dataset_file, capsys, monkeypatch):
        from repro import cli
        from repro.runtime.errors import EvaluationError

        def explode(args):
            raise EvaluationError("score backend down", object_ids=[1, 2])

        # build_parser resolves _cmd_solve from module globals at call time,
        # so patching the name reroutes the next main() invocation.
        monkeypatch.setattr(cli, "_cmd_solve", explode)
        assert cli.main(["solve", dataset_file]) == cli.EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "score backend down" in err
        assert "object set: [1, 2]" in err

    def test_timeout_error_maps_to_timeout_code(self, dataset_file, capsys,
                                                monkeypatch):
        from repro import cli
        from repro.runtime.errors import BudgetExceededError

        def explode(args):
            raise BudgetExceededError("deadline of 1s exceeded")

        monkeypatch.setattr(cli, "_cmd_solve", explode)
        assert cli.main(["solve", dataset_file]) == cli.EXIT_TIMEOUT
        assert "budget exceeded" in capsys.readouterr().err


class TestBenchCommand:
    def test_bench_runs_stubbed_experiments(self, capsys, monkeypatch):
        from repro.bench.harness import Table
        import repro.bench.experiments as experiments

        def fake():
            return [Table("Table X", "stub", ("col",), [(1,)])]

        monkeypatch.setattr(experiments, "ALL_EXPERIMENTS", {"stub": fake})
        assert main(["bench", "--only", "stub"]) == 0
        assert "Table X" in capsys.readouterr().out


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "f.json"])
        assert args.port == 8331
        assert args.queue_capacity == 64
        assert args.cache_entries == 2048
        assert args.default_timeout is None

    def test_serve_has_no_shard_option(self):
        """Each served query is one exact solve; there is nothing to split."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "f.json", "--shards", "4"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "f.json", "--threaded"],
            ["serve", "f.json", "--async"],
            ["loadgen", "--engine", "async"],
        ],
    )
    def test_one_engine_has_no_engine_choice(self, argv):
        """There is one serve engine; the flags that picked one are gone."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "f.json", "--backend", "process"],
            ["serve", "f.json", "--process-workers", "4"],
        ],
    )
    def test_serve_has_no_process_backend(self, argv):
        """Every served query is one ladder call in the worker thread."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_serve_end_to_end(self, dataset_file):
        """`repro-brs serve` boots, answers a query over HTTP, shuts down."""
        import json
        import os
        import pathlib
        import signal
        import subprocess
        import sys
        import time
        import urllib.request

        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", dataset_file,
             "--port", "0", "--workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        try:
            url = None
            deadline = time.time() + 30
            while time.time() < deadline:
                line = proc.stdout.readline()
                if "listening on " in line:
                    url = line.split("listening on ")[1].split()[0]
                    break
            assert url, "server never reported its address"
            req = urllib.request.Request(
                url + "/v1/query",
                data=json.dumps({"dataset": "ds", "k": 2.0}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(req, timeout=30) as resp:
                doc = json.loads(resp.read())
            assert doc["status"] == "ok"
            assert doc["dataset"] == "ds"
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
