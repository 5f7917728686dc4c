"""Crash-recovery differential check: ``python -m repro.ingest.selfcheck``.

The durability claim under test: **SIGKILL the ingest process anywhere —
mid-append, mid-apply, mid-mark — restart, replay the write-ahead log,
and the recovered dataset is identical to one rebuilt from scratch by
applying the same durably-logged batches in order.**

Each trial (one per ``--trials``, seeds ``--seed + i``):

1. a child process (``--child``) builds the seeded base dataset, opens a
   fresh WAL, and feeds it the seeded mutation workload, pausing a few
   milliseconds per batch so there is always a mid-flight moment to kill;
2. the parent sleeps a seeded-random offset and SIGKILLs the child;
3. the parent recovers: base dataset + WAL replay through the real
   :class:`~repro.ingest.pipeline.IngestPipeline` recovery path;
4. **differential**: a second dataset is rebuilt from scratch by applying
   the logged batches directly; both must have identical alive objects
   (stable id, coordinates, payload — compared by canonical-JSON SHA256),
   and each one's snapshot must show exactly its alive objects
   (:func:`check_snapshot`);
5. **oracle**: :class:`~repro.core.naive.NaiveBRS` solves seeded queries
   on both snapshots; the optimal scores must match exactly.

A JSON summary plus the last replayed WAL are written to ``--out`` for
artifact upload.  Exit code 0 iff every trial passes.  Stdlib + repro
only; all randomness is seeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import random
import shutil
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.naive import NaiveBRS
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.ingest.events import Delete, Event, Insert
from repro.ingest.live import LiveDataset, coverage_fn_builder
from repro.ingest.pipeline import IngestPipeline
from repro.ingest.wal import IngestLog, read_log

#: The space all workloads live in.
SPACE = Rect(0.0, 10.0, 0.0, 10.0)


def base_points(seed: int, n: int = 40) -> Tuple[List[Point], List[List[int]]]:
    """The seeded base dataset: ``n`` points with small tag payloads."""
    rng = random.Random(seed)
    points = [
        Point(rng.uniform(0.5, 9.5), rng.uniform(0.5, 9.5)) for _ in range(n)
    ]
    payloads = [
        sorted(rng.sample(range(25), rng.randint(1, 4))) for _ in range(n)
    ]
    return points, payloads


def seeded_workload(
    seed: int, n_batches: int, n_base: int = 40
) -> List[List[Event]]:
    """A deterministic mutation stream over the seeded base dataset.

    Tracks its own alive-set so deletes always target objects that are
    alive at that point of the stream (and never empty the dataset).
    """
    rng = random.Random(seed * 7919 + 17)
    alive = set(range(n_base))
    next_id = n_base
    batches: List[List[Event]] = []
    for _ in range(n_batches):
        events: List[Event] = []
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.6 or len(alive) <= 2:
                events.append(
                    Insert(
                        x=rng.uniform(0.5, 9.5),
                        y=rng.uniform(0.5, 9.5),
                        payload=sorted(rng.sample(range(25), rng.randint(1, 4))),
                    )
                )
                alive.add(next_id)
                next_id += 1
            else:
                victim = rng.choice(sorted(alive))
                events.append(Delete(victim))
                alive.discard(victim)
        batches.append(events)
    return batches


def fingerprint(live: LiveDataset) -> str:
    """SHA256 over the canonical alive-object state (id, x, y, payload)."""
    alive = [
        [i, live.point_of(i).x, live.point_of(i).y, live.payload_of(i)]
        for i in live.alive_ids()
    ]
    blob = json.dumps(alive, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def check_snapshot(live: LiveDataset) -> List[str]:
    """What readers see against the alive set; returns the mismatches.

    The snapshot's ids must be :meth:`~LiveDataset.alive_ids` and each
    snapshot point the :meth:`~LiveDataset.point_of` its id.
    """
    points, ids, _fn = live.snapshot()
    failures = []
    if ids != live.alive_ids():
        failures.append(f"snapshot ids {ids} != alive ids {live.alive_ids()}")
    for p, i in zip(points, ids):
        if p != live.point_of(i):
            failures.append(f"snapshot shows id {i} at {p}, not {live.point_of(i)}")
    return failures


def rebuild_from_log(seed: int, wal: pathlib.Path) -> Tuple[LiveDataset, int]:
    """From-scratch reference: base dataset + raw log batches, no pipeline."""
    points, payloads = base_points(seed)
    live = LiveDataset(points, payloads, fn_builder=coverage_fn_builder, space=SPACE)
    replay = read_log(wal)
    n = 0
    for rb in replay.batches:
        if rb.state == "failed":
            continue
        live.apply(rb.batch)
        n += 1
    return live, n


def recover_with_pipeline(seed: int, wal: pathlib.Path) -> LiveDataset:
    """The real recovery path: pipeline replay over a fresh base."""
    points, payloads = base_points(seed)
    live = LiveDataset(points, payloads, fn_builder=coverage_fn_builder, space=SPACE)
    with IngestPipeline(live, IngestLog(wal)):
        pass
    return live


def check_trial(seed: int, wal: pathlib.Path) -> Dict[str, Any]:
    """Recover, rebuild, and compare.  Returns a JSON-able verdict."""
    recovered = recover_with_pipeline(seed, wal)
    reference, n_batches = rebuild_from_log(seed, wal)
    failures: List[str] = []

    fp_rec, fp_ref = fingerprint(recovered), fingerprint(reference)
    if fp_rec != fp_ref:
        failures.append(f"state fingerprint mismatch: {fp_rec} != {fp_ref}")

    failures += check_snapshot(recovered) + check_snapshot(reference)

    # Oracle: the recovered snapshot must solve identically to the
    # reference one (exhaustive exact solver — no solver-specific bias).
    rng = random.Random(seed * 13 + 3)
    naive = NaiveBRS()
    for _ in range(2):
        a = rng.uniform(0.8, 2.0)
        b = rng.uniform(0.8, 2.0)
        pts_rec, _, fn_rec = recovered.snapshot()
        pts_ref, _, fn_ref = reference.snapshot()
        score_rec = naive.solve(pts_rec, fn_rec, a, b).score
        score_ref = naive.solve(pts_ref, fn_ref, a, b).score
        if score_rec != score_ref:
            failures.append(
                f"oracle mismatch for {a:.3f}x{b:.3f}: "
                f"{score_rec} != {score_ref}"
            )

    return {
        "seed": seed,
        "replayed_batches": n_batches,
        "alive_objects": recovered.n_alive,
        "fingerprint": fp_rec,
        "failures": failures,
        "ok": not failures,
    }


def run_child(seed: int, wal: pathlib.Path, n_batches: int, pause: float) -> int:
    """Child body: feed the seeded workload through a real pipeline."""
    points, payloads = base_points(seed)
    live = LiveDataset(points, payloads, fn_builder=coverage_fn_builder, space=SPACE)
    pipe = IngestPipeline(live, IngestLog(wal))
    for events in seeded_workload(seed, n_batches):
        pipe.append(events)
        if pause > 0:
            time.sleep(pause)
    pipe.close()
    return 0


def run_trial(
    seed: int, wal: pathlib.Path, n_batches: int, pause: float
) -> Dict[str, Any]:
    """Spawn the child, SIGKILL it at a seeded-random offset, verify."""
    if wal.exists():
        wal.unlink()
    child = subprocess.Popen(
        [
            sys.executable, "-m", "repro.ingest.selfcheck",
            "--child", "--seed", str(seed), "--wal", str(wal),
            "--batches", str(n_batches), "--pause", str(pause),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    # Wait out interpreter startup (first WAL bytes), then kill at a
    # seeded-random offset inside the workload window so different trials
    # die in different protocol states — mid-append, mid-apply, mid-mark.
    deadline = time.perf_counter() + 30.0
    while time.perf_counter() < deadline and child.poll() is None:
        if wal.exists() and wal.stat().st_size > 0:
            break
        time.sleep(0.005)
    rng = random.Random(seed * 104729 + 7)
    time.sleep(rng.uniform(0.0, max(0.05, n_batches * pause)))
    killed = child.poll() is None
    if killed:
        child.send_signal(signal.SIGKILL)
    child.wait(timeout=30)

    verdict = check_trial(seed, wal)
    verdict["killed_midflight"] = killed
    return verdict


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--batches", type=int, default=30)
    parser.add_argument("--pause", type=float, default=0.01)
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="directory for the JSON summary + WAL artifact")
    parser.add_argument("--wal", type=pathlib.Path, default=None,
                        help="(child mode) write-ahead log path")
    parser.add_argument("--child", action="store_true",
                        help="run the workload-feeding child body")
    args = parser.parse_args(argv)

    if args.child:
        if args.wal is None:
            parser.error("--child needs --wal")
        return run_child(args.seed, args.wal, args.batches, args.pause)

    out_dir = args.out
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    wal = (out_dir or pathlib.Path(".")) / "selfcheck-wal.jsonl"

    results = []
    n_killed = 0
    for i in range(args.trials):
        verdict = run_trial(args.seed + i, wal, args.batches, args.pause)
        results.append(verdict)
        n_killed += int(verdict["killed_midflight"])
        state = "ok" if verdict["ok"] else "FAIL"
        print(
            f"trial seed={verdict['seed']}: {state} "
            f"(replayed {verdict['replayed_batches']} batches, "
            f"{verdict['alive_objects']} alive, "
            f"killed={verdict['killed_midflight']})"
        )
        for failure in verdict["failures"]:
            print(f"  {failure}", file=sys.stderr)

    summary = {
        "trials": len(results),
        "killed_midflight": n_killed,
        "passed": sum(1 for r in results if r["ok"]),
        "results": results,
    }
    if out_dir is not None:
        (out_dir / "ingest-selfcheck.json").write_text(
            json.dumps(summary, indent=2) + "\n"
        )
        if wal.exists():
            shutil.copy(wal, out_dir / "replayed-wal.jsonl")
    ok = summary["passed"] == summary["trials"]
    print(
        f"{summary['passed']}/{summary['trials']} trials passed "
        f"({n_killed} killed mid-flight)"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
