"""Show that every answer check of the benchmark catches a planted wrong answer.

Usage (from the repository root)::

    python3 perfbench/selfcheck.py

Each case takes a real answer from a short run of a workload (or makes one
up), breaks it in one way, hands it to that workload's ``check``, and
expects the check to flag it: as a wrong answer, or under the name of the
fault it matches.  Exits 1 if any planted error goes unnoticed.
"""

from __future__ import annotations

import dataclasses
import io
import os
import sys
from contextlib import redirect_stderr

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from repro import BRSResult, CoverageFunction, Point  # noqa: E402
from repro.serve.model import QueryRequest, QueryResponse  # noqa: E402

import common  # noqa: E402
import wl_churn  # noqa: E402
import wl_explore  # noqa: E402
import wl_serve  # noqa: E402
import wl_solve  # noqa: E402

RESULTS = []


def expect(case: str, record: common.Record, failure: str = "") -> None:
    """The planted answer must make ``record`` wrong (or fail as ``failure``)."""
    caught = record.failures[failure] > 0 if failure else bool(record.wrong)
    RESULTS.append((case, caught))
    print(f"{'caught ' if caught else 'MISSED '} {case}")
    if caught and not failure:
        print(f"         ...{record.wrong[0][-100:]}")


def checked(module, state, answers=None, **attrs) -> common.Record:
    record = common.Record()
    if answers is not None:
        record.answers = answers
    for key, value in attrs.items():
        setattr(state, key, value)
    with redirect_stderr(io.StringIO()):
        module.check(state, record)
    return record


def explore_cases() -> None:
    state = wl_explore.setup(0)
    a, b = state.ds.query(8.0)
    good = state.session.explore(a, b)
    exact = state.session.confirm(a, b)
    inflated = dataclasses.replace(good, score=good.score + 5)
    expect("explore: score above its region", checked(wl_explore, state, [("cover", a, b, inflated)]))
    # A lone object far from everything: self-consistent, far below OPT/4.
    lone = min(state.ds.points, key=lambda p: p.x)
    ids = [i for i, p in enumerate(state.ds.points) if abs(p.x - lone.x) < b / 2 and abs(p.y - lone.y) < a / 2]
    poor = BRSResult(point=lone, score=state.ds.score_function().value(ids), object_ids=ids, a=a, b=b)
    expect("explore: answer below a quarter of the optimum", checked(wl_explore, state, [("cover", a, b, poor)]))
    worse = dataclasses.replace(good, score=good.score) if good.score < exact.score else poor
    expect("confirm: self-consistent but not optimal",
           checked(wl_explore, state, [("exact", a, b, worse)] * (wl_explore.EXACT_CHECKS + 1)))
    probe = wl_explore.best_region(state.probe_points, state.probe_fn, wl_explore.PROBE_SIDE, wl_explore.PROBE_SIDE)
    side = wl_explore.PROBE_SIDE
    expect("probe: center-rounding fault counted by name",
           checked(wl_explore, state, [("probe", side, side, probe)]), common.CENTER_ROUNDING)


def _served(state, request: QueryRequest) -> QueryResponse:
    state.engine.start_background()
    try:
        return state.engine.query(request, timeout=60.0)
    finally:
        state.engine.close()


def serve_cases() -> None:
    state = wl_serve.setup(0)
    pool = state.pool[0]
    request = QueryRequest(dataset="inf", k=6.0)
    state.engine = wl_serve.AsyncServeEngine(state.store)
    good = _served(state, request)
    state.engine = wl_serve.AsyncServeEngine(state.store)
    focused = _served(state, pool)

    def entries(req, resp):
        return {"sent": [{"request": req, "response": resp}], "capacity_sent": []}

    expect("serve: degraded answer", checked(wl_serve, state, **entries(request, dataclasses.replace(good, status="degraded"))))
    expect("serve: an object id missing",
           checked(wl_serve, state, **entries(request, dataclasses.replace(good, object_ids=good.object_ids[1:]))))
    expect("serve: score above its region",
           checked(wl_serve, state, **entries(request, dataclasses.replace(good, score=good.score + 1))))
    # An influence answer at one object: consistent, beaten by an anchored placement.
    p = state.points["inf"][0]
    inst_ids = [i for i, q in enumerate(state.points["inf"]) if abs(q.x - p.x) < good.b / 2 and abs(q.y - p.y) < good.a / 2]
    fn = state.store.resolve("inf").fn
    low = dataclasses.replace(good, center=(p.x, p.y), object_ids=tuple(inst_ids), score=fn.value(inst_ids))
    expect("serve: influence answer below an anchored placement", checked(wl_serve, state, **entries(request, low)))
    # A self-consistent focused answer below the optimum that is not the
    # center-rounding fault (a stale or wrongly filtered answer would look
    # like this): it must not be filed under the fault's name.
    entry = state.store.resolve(pool.dataset)
    x0, x1, y0, y1 = pool.focus
    inside = [i for i, q in enumerate(entry.points) if x0 < q.x < x1 and y0 < q.y < y1]
    worse = next(w for w in (_region_answer(focused, entry.points, entry.fn, inside, i) for i in inside)
                 if w.score < focused.score)
    expect("serve: focused answer below the optimum, not the known fault",
           checked(wl_serve, state, **entries(pool, worse)))


def _region_answer(response: QueryResponse, points, fn, candidates, at: int) -> QueryResponse:
    """``response`` moved to centre on object ``at``, ids and score recounted."""
    p = points[at]
    ids = [i for i in candidates
           if abs(points[i].x - p.x) < response.b / 2 and abs(points[i].y - p.y) < response.a / 2]
    return dataclasses.replace(response, center=(p.x, p.y), object_ids=tuple(ids), score=fn.value(ids))


def churn_cases() -> None:
    state = wl_churn.setup(0)
    state.batches = state.batches[:4]
    record = common.Record()
    wl_churn.run(state, 0, 1.0, record)
    rnd = state.rounds[0]
    try:
        clean = checked(wl_churn, state)
        if clean.wrong or clean.failed:
            RESULTS.append(("churn: the unplanted run itself fails its checks", False))
        b, visible, alive = rnd["snapshots"][1]
        rnd["snapshots"][1] = (b, visible[1:], alive)
        expect("churn: visible snapshot differs from the fed alive set", checked(wl_churn, state))
        rnd["snapshots"][1] = (b, visible, alive)
        with open(rnd["path"], encoding="utf-8") as fh:
            lines = fh.readlines()
        keep = [line for line in lines if '"batch_id":"b00000003"' not in line]
        with open(rnd["path"], "w", encoding="utf-8") as fh:
            fh.writelines(keep)
        expect("churn: WAL replay loses a batch", checked(wl_churn, state))
        with open(rnd["path"], "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        i = next(i for i, ans in enumerate(rnd["answers"]) if ans[0] == 0 and ans[1].focus is None)
        batch_no, req, resp, snap = rnd["answers"][i]
        rnd["answers"][i] = (batch_no, req, dataclasses.replace(resp, score=resp.score + 1), snap)
        expect("churn: score above its region", checked(wl_churn, state))
        lone = min(snap, key=lambda k: snap[k][0])
        x, y, _ = snap[lone]
        ids = sorted(k for k in snap if abs(snap[k][0] - x) < resp.b / 2 and abs(snap[k][1] - y) < resp.a / 2)
        labels = set().union(*(snap[k][2] for k in ids))
        rnd["answers"][i] = (batch_no, req, dataclasses.replace(resp, center=(x, y), object_ids=tuple(ids),
                                                               score=float(len(labels))), snap)
        expect("churn: unfocused answer below the optimum", checked(wl_churn, state))
        rnd["answers"][i] = (batch_no, req, resp, snap)
        j = next(j for j, ans in enumerate(rnd["answers"]) if ans[0] == 0 and ans[1].focus is not None)
        batch_no, req, resp, snap = rnd["answers"][j]
        ids = sorted(snap)
        points = [Point(snap[k][0], snap[k][1]) for k in ids]
        fn = CoverageFunction([snap[k][2] for k in ids])
        x0, x1, y0, y1 = common.served_focus(req.focus)
        inside = [n for n, p in enumerate(points) if x0 < p.x < x1 and y0 < p.y < y1]
        worse = next(w for w in (_region_answer(resp, points, fn, inside, n) for n in inside) if w.score < resp.score)
        worse = dataclasses.replace(worse, object_ids=tuple(ids[n] for n in worse.object_ids))
        rnd["answers"][j] = (batch_no, req, worse, snap)
        expect("churn: focused answer below the optimum, not the known fault", checked(wl_churn, state))
    finally:
        wl_churn.close(state)


def solve_cases() -> None:
    state = wl_solve.setup(0)
    name = "influence-k10"
    result = wl_solve.solve_one(state, name)
    expect("solve: score above its region", checked(wl_solve, state, results=[(name, dataclasses.replace(result, score=result.score + 1))]))
    points, fn = state.data["influence"]
    a, b = state.sizes[name]
    p = points[0]
    ids = [i for i, q in enumerate(points) if abs(q.x - p.x) < b / 2 and abs(q.y - p.y) < a / 2]
    low = BRSResult(point=Point(p.x, p.y), score=fn.value(ids), object_ids=ids, a=a, b=b)
    expect("solve: answer below the stored optimum", checked(wl_solve, state, results=[(name, low)]))


def main() -> int:
    try:
        for cases in (explore_cases, serve_cases, churn_cases, solve_cases):
            cases()
    finally:
        common.stop_probe()
    missed = [case for case, caught in RESULTS if not caught]
    print(f"{len(RESULTS) - len(missed)} of {len(RESULTS)} planted errors caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
