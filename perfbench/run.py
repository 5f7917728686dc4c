"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then again with layer wrappers installed, and prints
the per-layer metrics (spans go to ``perfbench/results/``).  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it gives the end-to-end figures as the clock read them,
before scaling to the reference speed (see ``common.Speed``), with the
unbounded ``read_p90_ms``.  Progress and failure details go to standard
error.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("explore", "serve", "churn", "solve")
#: Set-ups per run: this process's own and the rest in fresh processes
#: (``--setup-only``); ``setup_s`` is their median.
SETUPS = 3


def _parse() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up once and print the seconds since process start")
    return parser.parse_args()


def _setup(wl, args: argparse.Namespace) -> tuple:
    """Set the workload up in this process, then ``SETUPS - 1`` times in
    fresh ones, each timed from process start until ready; returns this
    process's state and every time."""
    state = wl.setup(args.seed)
    times = [time.perf_counter() - _T0]
    for _ in range(SETUPS - 1):
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            capture_output=True, text=True, timeout=170, check=True,
        )
        times.append(float(child.stdout.splitlines()[-1]))
    return state, times


def main() -> int:
    args = _parse()
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, HERE]
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"repro was imported from {repro.__file__}, not from {src}", file=sys.stderr)
        return 2
    import common

    try:
        return _measure(args, common)
    finally:
        common.stop_probe()


def _measure(args: argparse.Namespace, common) -> int:
    wl = importlib.import_module(f"wl_{args.workload}")
    if args.setup_only:
        state = wl.setup(args.seed)
        ready = time.perf_counter() - _T0
        wl.close(state)
        print(ready)
        return 0
    state, setups = _setup(wl, args)
    print(f"set-ups from process start: {', '.join(f'{t:.4f}' for t in setups)} s", file=sys.stderr)
    # As the clock read them, not scaled by the reference loop: a set-up
    # lasts about as long as the gap between two probes, too short to
    # average out their noise, and scaled set-up times spread three to
    # five times wider over five or six runs than unscaled ones.
    setup_s = statistics.median(setups)
    record = common.Record()
    wl.run(state, args.seed, args.seconds, record)
    if args.trace:
        import tracing

        untraced = wl.end_to_end(record)
        wl.close(state)
        state = None
        rec = tracing.install()
        try:
            state = wl.setup(args.seed)
            record = common.Record()
            wl.run(state, args.seed, args.seconds, record)
        finally:
            rec.uninstall()
        for target in rec.skipped:
            print(f"note: trace target {target} not found; its layer reads 0", file=sys.stderr)
        traced = wl.end_to_end(record)
        extra = wl.layer_extra(state, record, rec)
        for key, label in (("read_p50_ms", "obs.overhead_pct"), ("heavy_p50_ms", "obs.overhead_heavy_pct")):
            extra[label] = 100.0 * (traced[key] - untraced[key]) / untraced[key]
        values = tracing.per_layer(rec, record.attempted, extra)
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit in _metrics("per_layer")}
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        rec.dump(os.path.join(HERE, "results", f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        # Read before the checks, whose oracle tables are not the program's.
        values = dict(wl.end_to_end(record), peak_rss_mb=common.peak_rss_mb())
        values["setup_s"] = setup_s
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in _metrics("end_to_end")}
    wl.check(state, record)
    for name, count in sorted(record.failures.items()):
        print(f"{count} of {record.attempted} operations failed: {name}", file=sys.stderr)
    wl.close(state)
    # The same figures as the clock read them, before scaling to the
    # reference speed, so that a divergence between the two shows.
    print(json.dumps({
        "unscaled": wl.end_to_end(record, scaled=False),
        "loop_factor": record.speed.median_factor(),
    }))
    print(json.dumps({
        "correct": not record.wrong,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": metrics,
    }))
    return 0


def _metrics(kind: str) -> list:
    """``(name, unit)`` of the ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


if __name__ == "__main__":
    sys.exit(main())
