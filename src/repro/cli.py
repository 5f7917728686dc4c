"""Command-line interface: generate datasets, run queries, inspect files.

Installed as ``repro-brs``::

    repro-brs generate yelp_like --out yelp.json
    repro-brs info yelp.json
    repro-brs solve yelp.json --k 10 --method cover --c 0.3333
    repro-brs solve yelp.json --k 5 --aspect 2.0 --topk 3
    repro-brs solve yelp.json --timeout 0.05 --max-evals 10000
    repro-brs solve yelp.json --trace run.jsonl --metrics-out run.prom --profile
    repro-brs serve yelp.json meetup.json --port 8331
    repro-brs obs record --status status.json --ledger perf-ledger.jsonl
    repro-brs obs compare --baseline base.jsonl --current perf-ledger.jsonl
    repro-brs obs breakdown --trace run.jsonl
    repro-brs lint --format json --output lint.json

The solve command prints the region center, score, object count and search
statistics — enough to drive the exploratory refine-and-rerun loop the
paper motivates from a shell.  With ``--timeout``/``--max-evals`` the
answer is anytime: a status line says whether the result is exact,
degraded, or a best-so-far timeout answer, and the optimality gap is
printed alongside the score.

Errors never escape as raw tracebacks; each failure family maps to its own
exit code (:data:`EXIT_BAD_INPUT`, :data:`EXIT_TIMEOUT`,
:data:`EXIT_INTERNAL`).
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import ExitStack
from typing import Optional, Sequence

from repro.core.brs import best_region
from repro.core.topk import topk_regions
from repro.datasets.registry import DATASET_BUILDERS, DiversityDataset, load
from repro.io.json_io import load_dataset, save_dataset
from repro.obs.export import write_metrics
from repro.obs.metrics import MetricsRegistry, metrics_scope
from repro.obs.profile import profile_scope
from repro.obs.trace import JsonlTraceWriter, Tracer, trace_scope
from repro.runtime.budget import Budget
from repro.runtime.errors import (
    BRSError,
    BudgetExceededError,
    EvaluationError,
    IngestError,
    InvalidQueryError,
    LogCorruptionError,
)

#: Exit codes: malformed input / dataset.
EXIT_BAD_INPUT = 2
#: Exit codes: an execution budget expired with no anytime answer to give.
EXIT_TIMEOUT = 3
#: Exit codes: an internal or evaluation failure.
EXIT_INTERNAL = 4


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = load(args.dataset)
    save_dataset(dataset, args.out)
    print(f"wrote {args.dataset} ({len(dataset.points)} objects) to {args.out}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.file)
    kind = "diversity" if isinstance(dataset, DiversityDataset) else "influence"
    print(f"name:    {dataset.name}")
    print(f"kind:    {kind}")
    print(f"objects: {len(dataset.points)}")
    space = dataset.space
    print(f"space:   [{space.x_min}, {space.x_max}] x [{space.y_min}, {space.y_max}]")
    if kind == "diversity":
        n_tags = len({t for tags in dataset.tag_sets for t in tags})
        print(f"tags:    {n_tags} distinct")
    else:
        print(f"users:   {dataset.graph.n_users}")
        print(f"checkins:{dataset.checkins.n_checkins}")
        print(f"edges:   {dataset.graph.n_edges}")
    return 0


def _score_function(dataset):
    if isinstance(dataset, DiversityDataset):
        return dataset.score_function()
    return dataset.score_function(n_rr_sets=2000, seed=0)


def _cmd_solve(args: argparse.Namespace) -> int:
    total_start = time.perf_counter()
    dataset = load_dataset(args.file)
    fn = _score_function(dataset)
    a, b = dataset.query(args.k, aspect=args.aspect)
    print(f"query: {a:.2f} x {b:.2f} ({args.k}q, method={args.method})")
    budget = Budget.of(timeout=args.timeout, max_evals=args.max_evals)

    registry: Optional[MetricsRegistry] = None
    with ExitStack() as stack:
        if args.trace:
            writer = stack.enter_context(JsonlTraceWriter(args.trace))
            stack.enter_context(trace_scope(Tracer(writer)))
        if args.metrics_out:
            registry = MetricsRegistry()
            stack.enter_context(metrics_scope(registry))
        if args.profile:
            stack.enter_context(profile_scope())

        if args.topk > 1:
            solve_start = time.perf_counter()
            results = topk_regions(
                dataset.points, fn, a, b, k=args.topk, theta=args.theta,
                budget=budget,
            )
            solve_elapsed = time.perf_counter() - solve_start
            for rank, result in enumerate(results, 1):
                flag = "" if result.status == "ok" else f" [{result.status}]"
                print(
                    f"#{rank}: center=({result.point.x:.2f}, {result.point.y:.2f}) "
                    f"score={result.score:.2f} objects={len(result.object_ids)}{flag}"
                )
            if budget is not None and len(results) < args.topk:
                print(f"note: returned {len(results)}/{args.topk} regions")
        else:
            solve_start = time.perf_counter()
            if args.workers and args.workers > 1:
                # Imported here so serial solves never pay for the
                # multiprocessing stack.
                from repro.parallel import solve_partitioned

                result = solve_partitioned(
                    dataset.points, fn, a, b, n_parts=args.parts,
                    theta=args.theta, workers=args.workers, budget=budget,
                )
            else:
                result = best_region(
                    dataset.points, fn, a, b, method=args.method,
                    theta=args.theta, c=args.c, budget=budget,
                )
            solve_elapsed = time.perf_counter() - solve_start
            print(f"center:  ({result.point.x:.2f}, {result.point.y:.2f})")
            print(f"score:   {result.score:.2f}")
            print(f"objects: {len(result.object_ids)}")
            if budget is not None or result.status != "ok":
                print(f"status:  {result.status}")
                if result.upper_bound is not None:
                    print(
                        f"gap:     <= {result.gap:.2f} "
                        f"(optimum <= {result.upper_bound:.2f})"
                    )
            s = result.stats
            print(
                f"stats:   slices={s.n_slices} scanned={s.n_slices_scanned} "
                f"slabs={s.n_slabs} searched={s.n_slabs_searched} "
                f"candidates={s.n_candidates}"
            )
            if result.cover_stats:
                cs = result.cover_stats
                print(f"cover:   |O|={cs.n_original} |T|={cs.n_cover} level={cs.level}")

    if registry is not None:
        write_metrics(registry, args.metrics_out)
        print(f"metrics: {args.metrics_out}")
    if args.trace:
        print(f"trace:   {args.trace}")
    # Load/setup time is the total minus the solver; reported separately so
    # slow dataset parsing is never mistaken for slow search.
    total_elapsed = time.perf_counter() - total_start
    print(f"[solve {solve_elapsed:.2f}s, total {total_elapsed:.2f}s]")
    return 0


def _load_tenants(path: Optional[str]):
    """``--tenants`` JSON file → a populated TenantRegistry (or None)."""
    if path is None:
        return None
    import json as _json

    from repro.serve.tenancy import TenantRegistry, TenantSpec

    with open(path, "r", encoding="utf-8") as fh:
        docs = _json.load(fh)
    if not isinstance(docs, list):
        raise InvalidQueryError("--tenants file must hold a JSON list")
    registry = TenantRegistry()
    for doc in docs:
        if not isinstance(doc, dict) or "id" not in doc:
            raise InvalidQueryError(
                "each --tenants entry must be an object with an 'id'"
            )
        datasets = doc.get("datasets")
        registry.register(
            TenantSpec(
                id=str(doc["id"]),
                weight=float(doc.get("weight", 1.0)),
                quota=int(doc.get("quota", 16)),
                datasets=frozenset(datasets) if datasets else None,
            )
        )
    return registry


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here so `repro-brs generate/solve` never pay for the
    # serving stack.
    from repro.serve import (
        AsyncBRSServer,
        AsyncServeEngine,
        DatasetStore,
        ResultCache,
    )

    store = DatasetStore()
    for path in args.data:
        entry = store.add_file(path)
        print(f"serving {entry.id}: {len(entry.points)} objects ({entry.kind})")
    engine = AsyncServeEngine(
        store,
        cache=ResultCache(max_entries=args.cache_entries),
        tenants=_load_tenants(args.tenants),
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        default_timeout=args.default_timeout,
    )
    server = AsyncBRSServer(engine, host=args.host, port=args.port)
    # Bind on the background loop first so the real URL (ephemeral
    # ports included) is printable before we block.
    server.start()
    # SIGTERM/SIGINT flush attached pipelines and stop the listener; the
    # blocking call below returns once the handler thread closes it.
    server.install_signal_handlers()
    print(f"listening on {server.url} (SIGTERM/Ctrl-C to stop)")
    try:
        server.wait()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.close()
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve import AsyncServeEngine, DatasetStore
    from repro.serve.loadgen import WorkloadMix, saturation_sweep

    def make_store() -> "DatasetStore":
        store = DatasetStore()
        if args.data:
            for path in args.data:
                store.add_file(path)
            return store
        from repro.datasets.registry import scalability_dataset

        store.add_dataset(
            "demo", scalability_dataset(args.objects, seed=args.seed)
        )
        return store

    if args.data:
        probe = DatasetStore()
        dataset_id = probe.add_file(args.data[0]).id
    else:
        dataset_id = "demo"
    mixes = (
        WorkloadMix(tenant="alpha", share=2.0, dataset=dataset_id,
                    timeout=args.timeout),
        WorkloadMix(tenant="beta", share=1.0, dataset=dataset_id,
                    timeout=args.timeout),
    )

    def make_submit():
        engine = AsyncServeEngine(
            make_store(), cache=None, workers=args.workers,
            queue_capacity=args.queue_capacity,
        )
        engine.start_background()
        return (
            lambda req, tenant: engine.submit_threadsafe(req, tenant=tenant),
            engine.close,
        )

    reports = saturation_sweep(
        make_submit, mixes, qps_points=args.qps,
        duration=args.duration, seed=args.seed,
    )
    rows = [r.row() for r in reports]
    print(f"  {'qps':>7} {'p50ms':>8} {'p99ms':>9} "
          f"{'shed':>6} {'goodput':>8}")
    for row in rows:
        print(
            f"  {row['target_qps']:>7.0f} {row['p50_ms']:>8.2f} "
            f"{row['p99_ms']:>9.2f} {row['shed_rate']:>6.3f} "
            f"{row['goodput_qps']:>8.2f}"
        )
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            _json.dump(rows, fh, indent=2, sort_keys=True)
        print(f"sweep written to {args.json_out}")
    return 0


def _parse_insert(spec: str):
    """``x,y`` or ``x,y,tag+tag+...`` → an Insert event."""
    from repro.ingest import Insert

    parts = spec.split(",")
    if len(parts) not in (2, 3):
        raise InvalidQueryError(
            f"--insert wants 'x,y' or 'x,y,tag+tag', got {spec!r}"
        )
    payload = None
    if len(parts) == 3 and parts[2]:
        payload = sorted(parts[2].split("+"))
    return Insert(x=float(parts[0]), y=float(parts[1]), payload=payload)


def _load_events(args: argparse.Namespace):
    """Collect the events of one ``ingest append`` invocation."""
    import json as _json

    from repro.ingest import Delete, event_from_json

    events = []
    if args.events:
        with open(args.events, "r", encoding="utf-8") as fh:
            docs = _json.load(fh)
        if not isinstance(docs, list):
            raise InvalidQueryError("--events file must hold a JSON list")
        events.extend(event_from_json(doc) for doc in docs)
    events.extend(_parse_insert(spec) for spec in args.insert or ())
    events.extend(Delete(obj_id) for obj_id in args.delete or ())
    return events


def _ingest_pipeline(args: argparse.Namespace):
    """Base dataset + WAL → a standalone (storeless) recovered pipeline."""
    from repro.ingest import IngestLog, IngestPipeline, live_from_diversity

    dataset = load_dataset(args.data)
    live = live_from_diversity(dataset)
    return IngestPipeline(live, IngestLog(args.log))


def _cmd_ingest_append(args: argparse.Namespace) -> int:
    events = _load_events(args)
    if not events:
        raise InvalidQueryError(
            "nothing to append; give --events, --insert, or --delete"
        )
    with _ingest_pipeline(args) as pipe:
        batch = pipe.append(events, batch_id=args.batch_id)
        status = pipe.batch_status(batch.batch_id)
        print(
            f"batch {batch.batch_id} seq={batch.seq}: {status.state} "
            f"({len(events)} events, {pipe.live.n_alive} objects alive)"
        )
        return 0 if status.state == "visible" else EXIT_INTERNAL


def _cmd_ingest_status(args: argparse.Namespace) -> int:
    from repro.ingest import read_log

    replay = read_log(args.log)
    counts = {"pending": 0, "applied": 0, "failed": 0}
    for rb in replay.batches:
        counts[rb.state] += 1
    print(f"log {args.log}: {len(replay.batches)} batches, last seq "
          f"{replay.last_seq}")
    for state, n in counts.items():
        print(f"  {state}: {n}")
    if replay.truncated_tail:
        print("  (torn tail truncated)")
    return 0


def _cmd_ingest_replay(args: argparse.Namespace) -> int:
    with _ingest_pipeline(args) as pipe:
        status = pipe.status()
        print(
            f"replayed {status['replayed']} batches "
            f"(last seq {status['last_seq']}); "
            f"{status['alive_objects']} objects alive"
        )
        if args.out:
            points, ids, _fn = pipe.live.snapshot()
            tag_sets = [
                frozenset(pipe.live.payload_of(i) or ()) for i in ids
            ]
            recovered = DiversityDataset(
                name="recovered", points=points, tag_sets=tag_sets,
                space=pipe.live.space,
            )
            save_dataset(recovered, args.out)
            print(f"wrote recovered dataset to {args.out}")
    return 0


def _cmd_obs_record(args: argparse.Namespace) -> int:
    import json as _json

    # Imported here so solver commands never pay for the ledger stack.
    from repro.obs.ledger import Ledger, record_from_status

    with open(args.status, "r", encoding="utf-8") as fh:
        rows = _json.load(fh)
    if not isinstance(rows, list):
        raise InvalidQueryError(
            "--status file must hold a JSON list of run_all.py status rows"
        )
    record = record_from_status(rows, label=args.label or "")
    Ledger(args.ledger).append(record)
    print(
        f"recorded run {record.run_id} "
        f"({len(record.experiments)} experiments, git {record.git_rev[:12]}) "
        f"to {args.ledger}"
    )
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs.ledger import Ledger

    records = Ledger(args.ledger).read()
    if not records:
        print(f"ledger {args.ledger}: no records")
        return 0
    print(
        f"{'run_id':<16} {'when (UTC)':<16} {'git':<12} "
        f"{'label':<12} {'exps':>4} {'total(s)':>9}"
    )
    for record in records:
        when = time.strftime(
            "%Y-%m-%d %H:%M", time.gmtime(record.created_epoch)
        )
        total = sum(
            row["seconds"]
            for row in record.experiments
            if isinstance(row.get("seconds"), (int, float))
        )
        print(
            f"{record.run_id:<16} {when:<16} {record.git_rev[:12]:<12} "
            f"{record.label:<12} {len(record.experiments):>4} {total:>9.3f}"
        )
    return 0


def _cmd_obs_compare(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.ledger import Ledger, compare

    baseline = Ledger(args.baseline).latest(label=args.label)
    if baseline is None:
        raise InvalidQueryError(
            f"no baseline record in {args.baseline}"
            + (f" with label {args.label!r}" if args.label else "")
        )
    current = Ledger(args.current).latest(label=args.label)
    if current is None:
        raise InvalidQueryError(
            f"no current record in {args.current}"
            + (f" with label {args.label!r}" if args.label else "")
        )
    report = compare(baseline, current, tolerance=args.tolerance)
    print(
        f"baseline {baseline.run_id} (git {baseline.git_rev[:12]}) vs "
        f"current {current.run_id} (git {current.git_rev[:12]})"
    )
    print(report.render())
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            _json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        print(f"report written to {args.json_out}")
    if report.ok:
        return 0
    if args.warn_only:
        print("warn-only: regressions reported but not failing the run")
        return 0
    return 1


def _cmd_obs_breakdown(args: argparse.Namespace) -> int:
    if args.locks is not None:
        from repro.analysis.sanitizer import render_lock_summary, summarize_witness

        summary = summarize_witness(args.locks)
        print(render_lock_summary(summary))
        return 0 if summary["clean"] else 1
    if args.trace is None:
        print("error: one of --trace or --locks is required", file=sys.stderr)
        return 2
    from repro.obs.analyze import render_breakdown, span_breakdown
    from repro.obs.trace import read_trace

    events = read_trace(args.trace)
    print(render_breakdown(span_breakdown(events)))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported here so the solver commands never pay for the linter.
    from repro.analysis.cli import main as lint_main

    return lint_main(args.lint_args)


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.experiments import ALL_EXPERIMENTS

    selected = args.only or list(ALL_EXPERIMENTS)
    for key in selected:
        if key not in ALL_EXPERIMENTS:
            print(f"unknown experiment {key!r}; one of {list(ALL_EXPERIMENTS)}",
                  file=sys.stderr)
            return 2
        for table in ALL_EXPERIMENTS[key]():
            print(table.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro-brs`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-brs", description="Best region search toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset analog")
    gen.add_argument("dataset", choices=sorted(DATASET_BUILDERS))
    gen.add_argument("--out", required=True, help="output JSON path")
    gen.set_defaults(func=_cmd_generate)

    info = sub.add_parser("info", help="describe a dataset file")
    info.add_argument("file")
    info.set_defaults(func=_cmd_info)

    solve = sub.add_parser("solve", help="run a best-region query")
    solve.add_argument("file")
    solve.add_argument("--k", type=float, default=10.0, help="query scale (k*q)")
    solve.add_argument("--aspect", type=float, default=None, help="a/b ratio")
    solve.add_argument(
        "--method", choices=("slice", "cover", "naive"),
        default="slice"
    )
    solve.add_argument("--c", type=float, default=None, help="cover parameter")
    solve.add_argument("--theta", type=float, default=1.0, help="slice width / b")
    solve.add_argument("--topk", type=int, default=1, help="return k disjoint regions")
    solve.add_argument(
        "--timeout", type=float, default=None,
        help="wall-clock budget in seconds; answer degrades instead of overrunning",
    )
    solve.add_argument(
        "--max-evals", type=int, default=None, dest="max_evals",
        help="cap on score-function evaluations",
    )
    solve.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a JSONL span trace of the solve to PATH",
    )
    solve.add_argument(
        "--metrics-out", default=None, dest="metrics_out", metavar="PATH",
        help="write collected metrics to PATH "
             "(.prom/.txt: Prometheus text, else JSON)",
    )
    solve.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and print the hottest functions to stderr",
    )
    solve.add_argument(
        "--workers", type=int, default=None,
        help="solve x-windows across a process pool of this size "
             "(> 1; implies the partitioned exact solver)",
    )
    solve.add_argument(
        "--parts", type=int, default=4,
        help="x-window count for --workers (see plan_shards)",
    )
    solve.set_defaults(func=_cmd_solve)

    serve = sub.add_parser(
        "serve", help="run the HTTP query server",
        description="Serve best-region queries over HTTP.  Each query that "
                    "misses the cache is one exact solve (the columnar "
                    "kernel for SUM and coverage scores, object-path "
                    "SliceBRS otherwise) under its "
                    "deadline; an expired deadline or load shedding returns "
                    "a degraded answer with a sound upper bound.",
    )
    serve.add_argument("data", nargs="+", help="dataset JSON files to serve")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8331, help="TCP port (0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=2, help="solver worker threads")
    serve.add_argument(
        "--queue-capacity", type=int, default=64, dest="queue_capacity",
        help="open queries before admission control rejects (backpressure)",
    )
    serve.add_argument(
        "--cache-entries", type=int, default=2048, dest="cache_entries",
        help="result-cache bound (LRU entries)",
    )
    serve.add_argument(
        "--default-timeout", type=float, default=None, dest="default_timeout",
        help="per-query deadline in seconds for requests without their own",
    )
    serve.add_argument(
        "--tenants", default=None, metavar="PATH",
        help="JSON list of tenant specs ({id, weight, quota, datasets})",
    )
    serve.set_defaults(func=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="open-loop Poisson load generator / saturation sweep",
    )
    loadgen.add_argument(
        "data", nargs="*",
        help="dataset JSON files (default: a synthetic diversity dataset)",
    )
    loadgen.add_argument(
        "--objects", type=int, default=400,
        help="synthetic dataset size when no files are given",
    )
    loadgen.add_argument(
        "--qps", type=float, nargs="+", default=[25.0, 50.0, 100.0],
        help="target arrival rates, one open-loop run each",
    )
    loadgen.add_argument(
        "--duration", type=float, default=2.0,
        help="seconds of offered load per QPS point",
    )
    loadgen.add_argument(
        "--timeout", type=float, default=1.0,
        help="per-request deadline forwarded with every query",
    )
    loadgen.add_argument("--workers", type=int, default=2,
                         help="solver worker threads")
    loadgen.add_argument(
        "--queue-capacity", type=int, default=64, dest="queue_capacity",
        help="admission capacity of the engine under test",
    )
    loadgen.add_argument("--seed", type=int, default=0,
                         help="arrival-process seed")
    loadgen.add_argument(
        "--json", default=None, dest="json_out", metavar="PATH",
        help="write the sweep rows as JSON to PATH",
    )
    loadgen.set_defaults(func=_cmd_loadgen)

    ingest = sub.add_parser(
        "ingest", help="durable mutations against a dataset (WAL-backed)"
    )
    ingest_sub = ingest.add_subparsers(dest="ingest_command", required=True)

    ing_append = ingest_sub.add_parser(
        "append", help="durably append and apply one mutation batch"
    )
    ing_append.add_argument("data", help="base dataset JSON file")
    ing_append.add_argument("--log", required=True, help="write-ahead log path")
    ing_append.add_argument(
        "--events", help="JSON file with a list of event records"
    )
    ing_append.add_argument(
        "--insert", action="append", metavar="X,Y[,TAG+TAG]",
        help="insert an object (repeatable)",
    )
    ing_append.add_argument(
        "--delete", action="append", type=int, metavar="ID",
        help="delete an object by stable id (repeatable)",
    )
    ing_append.add_argument("--batch-id", help="explicit batch id")
    ing_append.set_defaults(func=_cmd_ingest_append)

    ing_status = ingest_sub.add_parser(
        "status", help="summarize a write-ahead log"
    )
    ing_status.add_argument("--log", required=True, help="write-ahead log path")
    ing_status.set_defaults(func=_cmd_ingest_status)

    ing_replay = ingest_sub.add_parser(
        "replay", help="recover: base dataset + log replay"
    )
    ing_replay.add_argument("data", help="base dataset JSON file")
    ing_replay.add_argument("--log", required=True, help="write-ahead log path")
    ing_replay.add_argument(
        "--out", help="write the recovered dataset to this JSON file"
    )
    ing_replay.set_defaults(func=_cmd_ingest_replay)

    obs = sub.add_parser(
        "obs", help="telemetry tooling: run ledger and trace analysis"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    obs_record = obs_sub.add_parser(
        "record", help="append a run_all.py --json snapshot to a ledger"
    )
    obs_record.add_argument(
        "--status", required=True,
        help="status JSON written by benchmarks/run_all.py --json",
    )
    obs_record.add_argument(
        "--ledger", required=True, help="ledger JSONL path (appended)"
    )
    obs_record.add_argument(
        "--label", default="", help="free-form label (e.g. 'nightly', 'ci')"
    )
    obs_record.set_defaults(func=_cmd_obs_record)

    obs_report = obs_sub.add_parser(
        "report", help="print a ledger's run history"
    )
    obs_report.add_argument(
        "--ledger", required=True, help="ledger JSONL path"
    )
    obs_report.set_defaults(func=_cmd_obs_report)

    obs_compare = obs_sub.add_parser(
        "compare",
        help="regression-compare the latest records of two ledgers",
    )
    obs_compare.add_argument(
        "--baseline", required=True, help="baseline ledger JSONL path"
    )
    obs_compare.add_argument(
        "--current", required=True, help="current ledger JSONL path"
    )
    obs_compare.add_argument(
        "--tolerance", type=float, default=0.2,
        help="allowed wall-time growth before an experiment regresses "
             "(0.2 = 20%%)",
    )
    obs_compare.add_argument(
        "--label", default=None,
        help="compare only records carrying this label",
    )
    obs_compare.add_argument(
        "--json-out", default=None, dest="json_out", metavar="PATH",
        help="also write the regression report as JSON to PATH",
    )
    obs_compare.add_argument(
        "--warn-only", action="store_true", dest="warn_only",
        help="report regressions but exit 0 (CI soft gate)",
    )
    obs_compare.set_defaults(func=_cmd_obs_compare)

    obs_breakdown = obs_sub.add_parser(
        "breakdown",
        help=(
            "per-phase time attribution of a JSONL trace, or lock "
            "contention from a sanitizer witness (--locks)"
        ),
    )
    obs_breakdown.add_argument(
        "--trace", default=None, help="JSONL trace written by --trace"
    )
    obs_breakdown.add_argument(
        "--locks", default=None, metavar="PATH",
        help=(
            "summarize a lock-sanitizer witness JSONL "
            "(see repro.analysis.sanitizer) instead of a trace"
        ),
    )
    obs_breakdown.set_defaults(func=_cmd_obs_breakdown)

    bench = sub.add_parser("bench", help="regenerate paper tables/figures")
    bench.add_argument("--only", nargs="+", help="experiment ids")
    bench.set_defaults(func=_cmd_bench)

    lint = sub.add_parser(
        "lint",
        help="run the AST invariant linter (see docs/static-analysis.md)",
        add_help=False,
    )
    lint.add_argument(
        "lint_args", nargs=argparse.REMAINDER,
        help="arguments for the linter; `repro-brs lint --help` lists them",
    )
    lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point.

    Failures print a one-line diagnosis instead of a traceback and map to
    distinct exit codes: bad input (:data:`EXIT_BAD_INPUT`), budget expiry
    with nothing to return (:data:`EXIT_TIMEOUT`), evaluation or internal
    errors (:data:`EXIT_INTERNAL`).
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["lint"]:
        # Handed off before argparse: the linter owns its whole option
        # surface (argparse.REMAINDER drops leading options, so a stub
        # subparser cannot forward `lint --format json` faithfully).
        return _cmd_lint(argparse.Namespace(lint_args=argv[1:]))
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidQueryError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except LogCorruptionError as exc:
        print(f"error: write-ahead log corrupted: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except IngestError as exc:
        print(f"error: ingest rejected: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except BudgetExceededError as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    except EvaluationError as exc:
        print(f"error: score evaluation failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BRSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (OSError, ValueError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
