"""Shared pieces of the benchmark: run bookkeeping, statistics, output.

A workload module (``wl_<name>.py``) provides ``setup(seed)`` (in-memory
state only: it runs several times per run), ``run(state, seed, seconds,
record)``, ``check(state, record)``, ``end_to_end(record, scaled)``,
``layer_extra(state, record, recorder)`` and ``close(state)``; see
``run.py`` for how they are driven.
"""

from __future__ import annotations

import atexit
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

#: Name under which operations hit by the SliceBRS center-rounding fault
#: (``search_slab`` places a center on a one-ulp gap) are counted.
CENTER_ROUNDING = "slicebrs_center_rounding"


#: Iterations of the reference loop, and the seconds it takes at the
#: reference speed.  Only the ratio matters: times are reported as
#: they would read on a host where this loop takes ``REF_NOMINAL_S``.
REF_LOOP = 100_000
REF_NOMINAL_S = 0.005

#: The probe process: per line read, times the loop once on each CPU this
#: process may run on (pinning itself to each in turn) and prints the mean
#: seconds.  The host's CPUs slow down apart from each other, and the
#: program's threads run on any of them.  With more than ``MAX_PINNED``
#: CPUs a round would take too long; the loop then runs where the
#: scheduler puts it.
MAX_PINNED = 4
_PROBE_SOURCE = f"""
import os, sys, time
cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
if len(cpus) > {MAX_PINNED}:
    cpus = []
def loop():
    start = time.perf_counter()
    total = 0
    for i in range({REF_LOOP}):
        total += i
    return time.perf_counter() - start
def each_cpu():
    if len(cpus) < 2:
        return loop()
    times = []
    for cpu in cpus:
        os.sched_setaffinity(0, {{cpu}})
        times.append(loop())
    os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)
for _ in sys.stdin:
    print(repr(each_cpu()), flush=True)
"""
_probe_process: "Optional[subprocess.Popen]" = None


def _probe_loop() -> float:
    """Seconds the reference loop takes in the probe process (mean over
    its CPUs), started on first use."""
    global _probe_process
    if _probe_process is None:
        _probe_process = subprocess.Popen(
            [sys.executable, "-c", _PROBE_SOURCE],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )
        atexit.register(stop_probe)
    _probe_process.stdin.write("\n")
    _probe_process.stdin.flush()
    return float(_probe_process.stdout.readline())


def stop_probe() -> None:
    """End the probe process, if one runs, and wait for it."""
    global _probe_process
    if _probe_process is not None:
        _probe_process.stdin.close()
        _probe_process.wait(timeout=30)
        _probe_process.stdout.close()
        _probe_process = None


#: Seconds the program is left alone after its last answer before the
#: loop is timed: more than the serve engine's 5 ms batch window, so that
#: the bookkeeping of the program's own threads (the serve engine, the
#: HTTP server) for that answer has ended.
QUIET_S = 0.01


#: Probes within this many seconds of an operation scale it: the host's
#: speed changes within seconds, and single probes are noisy.
WINDOW_S = 1.0


class Speed:
    """The host's speed over a run, from a fixed pure-Python loop.

    The benchmark host's speed drifts by up to 1.7x within a minute, and
    every timing of the program drifts with it.  A run times this loop by
    the wall clock in a separate probe process, so that no thread of the
    program can share its interpreter lock, once on each CPU (the host's
    CPUs slow down apart from each other), at moments when the program
    has no work in flight (between operations).  Each operation's time is
    then scaled by the loop's nominal over its measured time around that
    operation.

    The probe must not overlap the program's own work: on a two-core host
    a busy thread of the program slowed the probe process's loop from
    5.3 to 8.3 ms (scheduling after interpreter-lock hand-offs puts the
    two on one core), while a busy separate process did not slow it.
    """

    def __init__(self) -> None:
        self.probes: List[Tuple[float, float]] = []

    def probe(self) -> None:
        """Time the loop once in the probe process, after ``QUIET_S`` of rest."""
        time.sleep(QUIET_S)
        at = time.perf_counter()
        self.probes.append((at, _probe_loop()))

    def factor(self, start: float, end: float) -> float:
        """How much slower than nominal the host ran from ``start`` to ``end``.

        The median of the probes taken in that interval or within
        ``WINDOW_S`` of its middle, or of the three probes nearest its
        middle when there are fewer.
        """
        if not self.probes:
            return 1.0
        middle = (start + end) / 2.0
        near = [loop for at, loop in self.probes if start <= at <= end or abs(at - middle) <= WINDOW_S]
        if len(near) < 3:
            near = [loop for _, loop in sorted(self.probes, key=lambda p: abs(p[0] - middle))[:3]]
        return statistics.median(near) / REF_NOMINAL_S

    def median_factor(self) -> float:
        """How much slower than nominal the host ran over every probe so far."""
        return statistics.median(loop for _, loop in self.probes) / REF_NOMINAL_S


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent, reproducible random stream per (seed, purpose)."""
    return random.Random(f"{seed}:{stream}")


def stratified(rng: random.Random, n: int, lo: float, hi: float, log: bool = False) -> List[float]:
    """``n`` seeded draws, one from each of ``n`` equal strata of [lo, hi].

    Every run then covers the whole range evenly, so seeds differ in the
    exact values but hardly in the total work.  Returned in seeded order.
    """
    if log:
        return [math.exp(v) for v in stratified(rng, n, math.log(lo), math.log(hi))]
    values = [lo + (i + rng.random()) * (hi - lo) / n for i in range(n)]
    rng.shuffle(values)
    return values


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def served_focus(focus):
    """A focus window at the six significant digits a served request is keyed at."""
    return None if focus is None else tuple(float(f"{v:.6g}") for v in focus)


def same_score(x: float, y: float) -> bool:
    """Scores agree up to summation-order rounding."""
    return abs(x - y) <= 1e-9 * max(1.0, abs(x), abs(y))


def is_center_rounding(inst, focus, a: float, b: float, served: float, optimum: float,
                       labels=None, weights=None) -> bool:
    """Whether a focused answer scoring ``served`` below ``optimum`` shows
    the SliceBRS center-rounding fault's signature.

    ``best_region`` solves the same query on the benchmark's own copy of
    the objects strictly inside ``focus`` (``inst`` is the oracle's view of
    the data; ``labels`` or ``weights`` give the score per object).  The
    fault shows as that solve reporting the optimum while its own region,
    recounted by the oracle, holds just the served score.  A shortfall of
    any other kind (a stale cache entry, a focus filter or shard reduction
    that loses objects) does not reproduce on the one-call path.
    """
    from repro import CoverageFunction, Point, SumFunction, best_region

    ids = inst.in_focus(focus)
    points = [Point(float(inst.xs[i]), float(inst.ys[i])) for i in ids]
    if weights is not None:
        fn = SumFunction(len(ids), [float(weights[i]) for i in ids])
    else:
        fn = CoverageFunction([labels[i] for i in ids], scale=inst.scale)
    result = best_region(points, fn, a, b)
    held = inst.value(inst.inside(result.point.x, result.point.y, a, b, focus))
    return same_score(result.score, optimum) and same_score(held, served) and held < optimum


class Record:
    """What one pass over a workload did: samples, answers, failures."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[Tuple[float, float]]] = {}
        self.speed = Speed()
        self.attempted = 0
        self.failures: Counter = Counter()
        self.wrong: List[str] = []
        self.answers: list = []
        self.extra: Dict[str, float] = {}

    def sample(self, kind: str, start: float, end: float, count: bool = True) -> None:
        """Keep the latency of one operation of ``kind`` (``count``: attempted)."""
        self.attempted += count
        self.samples.setdefault(kind, []).append((start, end - start))

    def scaled(self, *kinds: str) -> List[float]:
        """Latencies of ``kinds`` in seconds at the reference speed."""
        return [s / self.speed.factor(at, at + s) for kind in kinds for at, s in self.samples.get(kind, [])]

    def raw(self, *kinds: str) -> List[float]:
        """Latencies of ``kinds`` in seconds as the clock read them."""
        return [s for kind in kinds for _, s in self.samples.get(kind, [])]

    def fail(self, name: str, detail: str) -> None:
        """An operation failed for a named, known reason."""
        self.failures[name] += 1
        if self.failures[name] <= 3:
            print(f"failed [{name}]: {detail}", file=sys.stderr)

    def wrong_answer(self, detail: str) -> None:
        """An answer failed a check for no known reason: the run is wrong."""
        self.wrong.append(detail)
        print(f"WRONG: {detail}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def latency_metrics(record: Record, read: Sequence[str], heavy: Sequence[str],
                    scaled: bool = True) -> dict:
    """p50/p90 of the read kinds and p50 of the heavy kinds, in ms."""
    pick = record.scaled if scaled else record.raw
    reads, heavies = pick(*read), pick(*heavy)
    return {
        "read_p50_ms": 1000.0 * statistics.median(reads),
        "read_p90_ms": 1000.0 * percentile(reads, 90),
        "heavy_p50_ms": 1000.0 * statistics.median(heavies),
    }
