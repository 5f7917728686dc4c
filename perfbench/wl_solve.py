"""``solve``: one-shot exact solves at scale through the one-call APIs.

Each pass solves a fixed batch: SUM (MaxRS) on 60,000 weighted
Gaussian-mixture points and coverage on the paper's Section 6.5
construction (``scalability_dataset``, 4,000 objects) through
``best_region(method="columnar")``; influence on ``gowalla_like`` through
``best_region``; and the coverage instance again through
``solve_partitioned(workers=2)``.  Today SUM runs on the columnar kernels
while coverage falls back to object-path SliceBRS.

The instances are fixed so that their optima can be stored
(``optima.json``; recomputing them takes about 20 s, too long to repeat
in every run).  The seed only orders each pass.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Tuple

import numpy as np

from repro import datasets as D
from repro import SumFunction, best_region
from repro import parallel
from repro.geometry import Rect

import common
from oracle import Instance, label_bitsets

HERE = os.path.dirname(os.path.abspath(__file__))
OPTIMA = os.path.join(HERE, "optima.json")
SUM_OBJECTS = 60_000
COVERAGE_OBJECTS = 4_000
#: Pass length on this host; ``--seconds`` buys whole passes.  Solves vary
#: by a fifth from pass to pass here, so a run holds many short passes.
PASS_S = 2.8
_SPACE = Rect(0.0, 10_000.0, 0.0, 10_000.0)

#: (solve name, instance, k, entry point).  Five solves, so that the
#: median of a run's solves falls inside one kind's times, not between two.
BATCH: List[Tuple[str, str, float, str]] = [
    ("sum-k3", "sum", 3.0, "columnar"),
    ("sum-k5", "sum", 5.0, "columnar"),
    ("coverage-k5", "coverage", 5.0, "columnar"),
    ("coverage-k5-partitioned", "coverage", 5.0, "partitioned"),
    ("influence-k10", "influence", 10.0, "slice"),
]


class State:
    def __init__(self) -> None:
        points = D.gaussian_mixture_points(SUM_OBJECTS, _SPACE, seed=61)
        self.weights = np.random.default_rng(62).integers(1, 10, len(points)).astype(float)
        cov = D.scalability_dataset(COVERAGE_OBJECTS, seed=67)
        inf = D.gowalla_like()
        self.data = {
            "sum": (points, SumFunction(len(points), list(self.weights))),
            "coverage": (cov.points, cov.score_function()),
            "influence": (inf.points, inf.score_function()),
        }
        # Every instance lives in the same 10,000 x 10,000 space.
        self.sizes = {name: D.query_size(_SPACE, len(self.data[inst][0]), k)
                      for name, inst, k, _ in BATCH}
        self.tags = cov.tag_sets
        self.results: list = []


def setup(seed: int) -> State:
    return State()


def solve_one(state: State, name: str) -> object:
    _, inst, _, entry = next(item for item in BATCH if item[0] == name)
    points, fn = state.data[inst]
    a, b = state.sizes[name]
    if entry == "partitioned":
        return parallel.solve_partitioned(points, fn, a, b, workers=2)
    return best_region(points, fn, a, b, method=entry)


def run(state: State, seed: int, seconds: float, record: common.Record) -> None:
    rng = common.rng_for(seed, "solve")
    for _ in range(max(1, round(seconds / PASS_S))):
        order = [item[0] for item in BATCH]
        rng.shuffle(order)
        pass_start = time.perf_counter()
        for name in order:
            record.speed.probe()
            start = time.perf_counter()
            result = solve_one(state, name)
            record.sample("solve", start, time.perf_counter())
            state.results.append((name, result))
        record.sample("pass", pass_start, time.perf_counter(), count=False)
    record.speed.probe()


def instances(state: State) -> Dict[str, Instance]:
    """The oracle's own view of the three instances."""
    inf_points, inf_fn = state.data["influence"]
    return {
        "sum": Instance.of(state.data["sum"][0], weights=state.weights),
        "coverage": Instance.of(state.data["coverage"][0], bits=label_bitsets(state.tags)),
        "influence": Instance.of(inf_points, scale=inf_fn.scale,
                                 bits=label_bitsets([inf_fn.labels_of(i) for i in range(len(inf_points))])),
    }


def check(state: State, record: common.Record) -> None:
    """Recount every answer; compare its score with the stored optimum."""
    with open(OPTIMA, encoding="utf-8") as fh:
        optima = json.load(fh)
    insts = instances(state)
    for name, result in state.results:
        inst = insts[next(item[1] for item in BATCH if item[0] == name)]
        a, b = state.sizes[name]
        recount = inst.value(inst.inside(result.point.x, result.point.y, a, b))
        if result.status != "ok" or not common.same_score(recount, result.score):
            record.wrong_answer(f"{name}: status {result.status}, reports {result.score}, region holds {recount}")
        elif not common.same_score(result.score, optima[name]):
            record.wrong_answer(f"{name}: reports {result.score}, stored optimum {optima[name]}")


def end_to_end(record: common.Record, scaled: bool = True) -> dict:
    out = common.latency_metrics(record, ("solve",), ("pass",), scaled)
    timed = (record.scaled if scaled else record.raw)("solve")
    out["ops_per_s"] = len(timed) / sum(timed)
    return out


def layer_extra(state: State, record: common.Record, rec) -> dict:
    return {}


def close(state: State) -> None:
    pass
