"""BRS010–BRS012 on the committed fixture trees.

Every rule has a fixture where it fires and one where it stays silent
(the acceptance bar from docs/static-analysis.md), plus the suppression
round-trip and the merge into the normal lint report/baseline ratchet.
"""

import pathlib

import pytest

from repro.analysis.baseline import Baseline
from repro.analysis.callgraph import CallSite
from repro.analysis.cli import run_lint
from repro.analysis.concurrency import blocking_reason, run_interprocedural

FIXTURES = (
    pathlib.Path(__file__).resolve().parent / "fixtures" / "interproc"
)


def run_tree(name):
    return run_interprocedural(FIXTURES / name)


@pytest.mark.parametrize(
    "tree,expected_rules",
    [
        ("bad_cycle", ["BRS010"]),
        ("clean_order", []),
        ("bad_blocking", ["BRS011"]),
        ("clean_blocking", []),
        ("bad_aio_unbudgeted", ["BRS012"]),
        ("clean_aio_budgeted", []),
        ("bad_columnar_unbudgeted", ["BRS012"]),
        ("clean_columnar_budgeted", []),
        ("annotated_ok", []),
    ],
)
def test_rule_fires_and_stays_silent(tree, expected_rules):
    findings, _, _ = run_tree(tree)
    assert [f.rule for f in findings] == expected_rules


def test_cross_module_cycle_reports_both_witness_paths():
    findings, _, payload = run_tree("bad_cycle")
    (finding,) = findings
    assert finding.rule == "BRS010"
    # Both lock identities and both witness legs appear in the message.
    assert "repro.serve.store.DatasetStore._lock" in finding.message
    assert "repro.serve.cache.ResultCache._lock" in finding.message
    assert "[1]" in finding.message and "[2]" in finding.message
    # The lock graph dump carries both edges of the cycle.
    pairs = {
        (e["held"], e["acquired"]) for e in payload["lock_graph"]["edges"]
    }
    a = "repro.serve.store.DatasetStore._lock"
    b = "repro.serve.cache.ResultCache._lock"
    assert (a, b) in pairs and (b, a) in pairs


def test_blocking_finding_shows_the_transitive_chain():
    findings, _, _ = run_tree("bad_blocking")
    (finding,) = findings
    assert finding.path == "repro/ingest/pipe.py"
    assert "repro.ingest.wal.LogWriter.append" in finding.message
    assert "os.fsync" in finding.message
    # The chain goes through sync(): the blocking is two calls away.
    assert "LogWriter.sync" in finding.message


def test_unbudgeted_finding_names_entry_and_path():
    findings, _, _ = run_tree("bad_aio_unbudgeted")
    (finding,) = findings
    assert finding.path == "repro/core/solver.py"
    assert (
        "repro.serve.engine.AsyncServeEngine.submit_threadsafe"
        in finding.message
    )
    assert "unbudgeted-ok" in finding.message


def test_suppression_round_trip():
    findings, suppressed, _ = run_tree("suppressed_blocking")
    assert findings == []
    assert suppressed == 1


def test_findings_merge_into_lint_report_and_baseline():
    root = FIXTURES / "bad_blocking"
    report = run_lint(["repro"], root=root, interprocedural=True)
    assert [f.rule for f in report.findings] == ["BRS011"]
    assert not report.clean

    # Grandfather it: the ratchet then reports it as baselined, and the
    # entry is live (not stale).
    baseline = Baseline.from_findings(report.findings)
    again = run_lint(
        ["repro"], root=root, baseline=baseline, interprocedural=True
    )
    assert again.clean
    assert [f.rule for f in again.baselined] == ["BRS011"]
    assert again.stale_baseline == []


def test_graph_out_writes_lock_graph(tmp_path):
    out = tmp_path / "graph.json"
    report = run_lint(
        ["repro"],
        root=FIXTURES / "bad_cycle",
        interprocedural=True,
        graph_out=out,
    )
    assert not report.clean
    import json

    payload = json.loads(out.read_text())
    assert payload["lock_graph"]["edges"]
    assert "repro.serve.store.DatasetStore.install" in payload["functions"]


def site(raw, receiver=None, external=None):
    return CallSite(
        raw=raw,
        callee=None,
        external=external,
        line=1,
        col=0,
        receiver=receiver,
    )


def test_blocking_reason_guards():
    # Unconditional primitives.
    assert blocking_reason(site("time.sleep", external="time.sleep"))
    assert blocking_reason(site("os.fsync", external="os.fsync"))
    # join: only thread/worker-ish receivers, never path or string joins.
    assert blocking_reason(site("self._worker.join", receiver="self._worker"))
    assert not blocking_reason(site("os.path.join", external="os.path.join"))
    assert not blocking_reason(site("sep.join", receiver="sep"))
    # queue get/put only on queue-ish receivers.
    assert blocking_reason(site("self._queue.get", receiver="self._queue"))
    assert not blocking_reason(site("mapping.get", receiver="mapping"))
    # futures: result() on future-ish receivers only.
    assert blocking_reason(site("fut.result", receiver="fut"))
    assert not blocking_reason(site("summary.result", receiver="summary"))
