"""Steadiness check: two interleaved sets of runs of the same code.

Usage (from the repository root)::

    python3 perfbench/steady.py [--out FILE]

For every workload of ``BENCHMARK.json``, set A runs seeds ``1..RUNS`` and
set B seeds ``101..100+RUNS``, each at the file's ``run_seconds``; runs
alternate A, B, A, B so both sets see the same drift of the host.  For
every end-to-end metric it prints each set's median and quartiles, the
spread (quartile distance over median), the metric's bound, and whether
the sets agree: both spreads within the bound and the two medians apart
by no more than the bound, in either direction.  It also compares the
share of failed operations, which must be identical.  Exits 1 when
anything disagrees.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Runs per set and workload: a spread is judged over ten runs.
RUNS = 10


def _run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="also write every run's result here (JSON)")
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(RUNS):
        for workload in workloads:
            for label, seed in (("A", 1 + i), ("B", 101 + i)):
                result = _run(workload, seed, spec["run_seconds"])
                results[workload][label].append(result)
                print(f"{workload} set {label} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", file=sys.stderr, flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(results, out, indent=1)
    ok = True
    for workload in workloads:
        sets = results[workload]
        shares = {label: (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
                  for label, runs in sets.items()}
        same_share = shares["A"][0] * shares["B"][1] == shares["B"][0] * shares["A"][1]
        correct = all(r["correct"] for runs in sets.values() for r in runs)
        ok &= same_share and correct
        print(f"\n{workload}: correct={correct} failed A {shares['A'][0]}/{shares['A'][1]}, "
              f"B {shares['B'][0]}/{shares['B'][1]} -> {'same share' if same_share else 'SHARES DIFFER'}")
        print(f"  {'metric':<14}{'set':>4}{'q1':>12}{'median':>12}{'q3':>12}{'spread':>9}{'bound':>8}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {label: _spread([r["metrics"][name]["value"] for r in runs]) for label, runs in sets.items()}
            med_a, med_b = stats["A"][1], stats["B"][1]
            worse = (med_b - med_a) / med_a if metric["better"] == "lower" else (med_a - med_b) / med_a
            agree = all(s[3] <= bound for s in stats.values()) and abs(worse) <= bound
            ok &= agree
            for label in ("A", "B"):
                q1, med, q3, spread = stats[label]
                verdict = ("agree" if agree else "DISAGREE") + f" (B vs A {100 * worse:+.1f}% worse)" if label == "B" else ""
                print(f"  {name:<14}{label:>4}{q1:>12.4g}{med:>12.4g}{q3:>12.4g}{spread:>9.3f}{bound:>8.2f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
