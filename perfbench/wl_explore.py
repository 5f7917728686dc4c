"""``explore``: one analyst refining and re-running coverage queries.

An :class:`~repro.core.session.ExplorationSession` over ``yelp_like``
(coverage, the paper's diversity score) answers a seeded script of rounds.
Each round explores a ``k*q`` rectangle of seeded scale and aspect, refines
it three times (``a`` or ``b`` scaled), confirms the explored size exactly,
and re-runs one fixed query that the SliceBRS center-rounding fault
answers wrongly.  Closed loop, no cache.

The dataset does not depend on the seed, so seeds differ in the script
alone: sizes and aspects are drawn one per stratum of their range, and the
refine steps are seeded.
"""

from __future__ import annotations

import time

from repro import datasets as D
from repro import CoverageFunction, ExplorationSession, best_region

import common
from oracle import Instance, label_bitsets

N_OBJECTS = 2000
#: Rounds per second of ``--seconds`` (a constant, never measured).
ROUNDS_PER_S = 3.7
#: Confirms per run whose optimality the brute force re-derives.
EXACT_CHECKS = 8
#: The fault reproduction: yelp_like(1500) inside this focus, a = b.
PROBE_FOCUS = (2823.01, 7427.15, 3999.69, 8603.83)
PROBE_SIDE = 729.52


class State:
    def __init__(self) -> None:
        self.ds = D.yelp_like(N_OBJECTS)
        self.session = ExplorationSession(self.ds.points, self.ds.score_function())
        probe = D.yelp_like(1500)
        x0, x1, y0, y1 = PROBE_FOCUS
        ids = [i for i, p in enumerate(probe.points) if x0 < p.x < x1 and y0 < p.y < y1]
        self.probe_points = [probe.points[i] for i in ids]
        self.probe_tags = [probe.tag_sets[i] for i in ids]
        self.probe_fn = CoverageFunction(self.probe_tags)


def setup(seed: int) -> State:
    return State()


def run(state: State, seed: int, seconds: float, record: common.Record) -> None:
    rng = common.rng_for(seed, "explore")
    session = state.session
    rounds = max(1, round(ROUNDS_PER_S * seconds))
    ks = common.stratified(rng, rounds, 2.0, 30.0, log=True)
    aspects = common.stratified(rng, rounds, 0.5, 2.0)
    for k, aspect in zip(ks, aspects):
        record.speed.probe()
        a, b = state.ds.query(k, aspect=aspect)
        start = time.perf_counter()
        result = session.explore(a, b)
        record.sample("explore", start, time.perf_counter())
        record.answers.append(("cover", a, b, result))
        for _ in range(3):
            scale = rng.uniform(0.7, 1.4)
            tall = rng.random() < 0.5
            start = time.perf_counter()
            result = session.refine(scale_a=scale if tall else 1.0,
                                    scale_b=1.0 if tall else scale)
            record.sample("refine", start, time.perf_counter())
            last = session.last
            record.answers.append(("cover", last.a, last.b, result))
        start = time.perf_counter()
        result = session.confirm(a, b)
        record.sample("confirm", start, time.perf_counter())
        record.answers.append(("exact", a, b, result))
        start = time.perf_counter()
        result = best_region(state.probe_points, state.probe_fn, PROBE_SIDE, PROBE_SIDE)
        record.sample("probe", start, time.perf_counter())
        record.answers.append(("probe", PROBE_SIDE, PROBE_SIDE, result))


def check(state: State, record: common.Record) -> None:
    """Recount every answer; bound every CoverBRS answer; re-derive optima."""
    ds = state.ds
    main = Instance.of(ds.points, bits=label_bitsets(ds.tag_sets))
    probe = Instance.of(state.probe_points, bits=label_bitsets(state.probe_tags))
    exact = [i for i, ans in enumerate(record.answers) if ans[0] == "exact"]
    sampled = set(common.rng_for(0, "explore-check").sample(exact, min(EXACT_CHECKS, len(exact))))
    for i, (kind, a, b, res) in enumerate(record.answers):
        inst = probe if kind == "probe" else main
        recount = inst.value(inst.inside(res.point.x, res.point.y, a, b))
        if kind == "cover":
            # score <= optimum holds once the region really scores it.
            if not common.same_score(recount, res.score):
                record.wrong_answer(f"explore a={a} b={b}: reports {res.score}, region holds {recount}")
            elif inst.optimum(a, b, floor=4 * res.score) > 4 * res.score:
                record.wrong_answer(f"explore a={a} b={b}: {res.score} below a quarter of the optimum")
            continue
        if kind == "exact" and i not in sampled and common.same_score(recount, res.score):
            continue
        best = inst.optimum(a, b, floor=min(recount, res.score))
        if common.same_score(recount, res.score) and common.same_score(best, res.score):
            continue
        if common.same_score(best, res.score) and recount < res.score:
            record.fail(common.CENTER_ROUNDING,
                        f"{kind} a={a} b={b}: reports the optimum {res.score} but its region holds {recount}")
        else:
            record.wrong_answer(f"{kind} a={a} b={b}: reports {res.score}, region holds {recount}, optimum {best}")


def end_to_end(record: common.Record, scaled: bool = True) -> dict:
    out = common.latency_metrics(record, ("explore", "refine"), ("confirm",), scaled)
    timed = (record.scaled if scaled else record.raw)("explore", "refine", "confirm")
    out["ops_per_s"] = len(timed) / sum(timed)
    return out


def layer_extra(state: State, record: common.Record, rec) -> dict:
    return {}


def close(state: State) -> None:
    pass
