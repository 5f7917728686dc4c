"""``churn``: a write feed beside an HTTP reader on one coverage dataset.

A feed appends spatially local insert/delete batches through
:class:`~repro.ingest.pipeline.IngestPipeline` (WAL on local disk, fsync on
commit, synchronous drain, regional cache invalidation).  After each batch
one client asks the dataset, over HTTP (``AsyncBRSServer`` with
``ServeClient``, one connection at a time), every popular focused window
and an unfocused size, so invalidation decides which cached answers
survive.  Sizes are explicit rectangles: a ``k*q`` request resolves
against the live object count, so it would change key with every batch.
Closed loop.

The base dataset, the feed and the popular windows do not depend on the
seed: every focused answer is then computed on the same snapshot in every
run, and a focused query that the SliceBRS center-rounding fault answers
wrongly fails in every run alike.  The seed draws the unfocused sizes and
the order of the queries after each batch.  Each round replays the same
feed from the base dataset under a fresh dataset id and WAL.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Dict, List, Tuple

import numpy as np

from repro import datasets as D
from repro import DatasetStore, QueryRequest, ServeClient
from repro.ingest import Delete, IngestLog, IngestPipeline, Insert, live_from_diversity
from repro.serve.aio.engine import AsyncServeEngine
from repro.serve.aio.http import AsyncBRSServer

import common
from oracle import Instance, label_bitsets

N_OBJECTS = 800
BATCHES = 84
INSERTS, DELETES = 4, 2
#: Tag vocabulary of ``yelp_like`` (15 downtown + 3 x 90 district categories).
CATEGORIES = 285
WINDOWS = 6
#: Round length on this host; ``--seconds`` buys whole rounds.
ROUND_S = 20.0
#: Every n-th batch has all its answers re-derived by the brute force.
EXACT_EVERY = 4
HERE = os.path.dirname(os.path.abspath(__file__))


def _feed(ds) -> Tuple[list, list]:
    """The fixed batches (events, in ids of the benchmark's own copy) and windows."""
    rng = np.random.default_rng(59)
    alive = {i: (p.x, p.y, sorted(t)) for i, (p, t) in enumerate(zip(ds.points, ds.tag_sets))}
    next_id = len(ds.points)
    batches = []
    for _ in range(BATCHES):
        anchor = alive[int(rng.choice(sorted(alive)))]
        events = []
        for _ in range(INSERTS):
            x = float(np.clip(rng.normal(anchor[0], 200.0), 1.0, 9999.0))
            y = float(np.clip(rng.normal(anchor[1], 200.0), 1.0, 9999.0))
            tags = sorted(int(t) for t in rng.choice(CATEGORIES, size=int(rng.integers(1, 6)), replace=False))
            events.append(Insert(x, y, tags))
            alive[next_id] = (x, y, tags)
            next_id += 1
        near = sorted(alive, key=lambda i: (alive[i][0] - anchor[0]) ** 2 + (alive[i][1] - anchor[1]) ** 2)
        for obj in near[1:1 + DELETES]:
            events.append(Delete(obj))
            del alive[obj]
        batches.append(events)
    windows = []
    for _ in range(WINDOWS):
        c = ds.points[int(rng.integers(len(ds.points)))]
        w, h = rng.uniform(800, 1600, size=2)
        a, b = ds.query(float(rng.uniform(2.0, 10.0)))
        windows.append(((float(c.x - w / 2), float(c.x + w / 2), float(c.y - h / 2), float(c.y + h / 2)), a, b))
    return batches, windows


class State:
    def __init__(self) -> None:
        self.base = D.yelp_like(N_OBJECTS, seed=53)
        self.batches, self.windows = _feed(self.base)
        self.store = DatasetStore()
        self.engine = AsyncServeEngine(self.store)
        self.server = AsyncBRSServer(self.engine)
        self.workdir = os.path.join(HERE, "results", f"wal-{os.getpid()}-{id(self)}")
        self.rounds: List[dict] = []


def setup(seed: int) -> State:
    return State()


def _start_round(state: State, r: int) -> dict:
    """A fresh dataset id, live copy, WAL and pipeline over the base data."""
    name = f"live{r}"
    state.store.add_dataset(name, state.base)
    os.makedirs(state.workdir, exist_ok=True)
    path = os.path.join(state.workdir, f"{name}.wal")
    pipeline = IngestPipeline(live_from_diversity(state.base), IngestLog(path), store=state.store,
                              cache=state.engine.cache, dataset_id=name)
    alive = {i: (p.x, p.y, t) for i, (p, t) in enumerate(zip(state.base.points, state.base.tag_sets))}
    return {"name": name, "path": path, "pipeline": pipeline, "alive": alive,
            "next_id": len(state.base.points), "answers": [], "events": 0, "snapshots": []}


def run(state: State, seed: int, seconds: float, record: common.Record) -> None:
    rng = common.rng_for(seed, "churn")
    state.server.start()
    client = ServeClient(state.server.url)
    try:
        for r in range(max(1, round(seconds / ROUND_S))):
            rnd = _start_round(state, r)
            state.rounds.append(rnd)
            # One unfocused query per batch; any batch evicts it, so its
            # size is drawn afresh, one per stratum over the round.
            sizes = [state.base.query(k, aspect=aspect) for k, aspect in zip(
                common.stratified(rng, len(state.batches), 2.0, 12.0, log=True),
                common.stratified(rng, len(state.batches), 0.6, 1.6))]
            for batch_no, events in enumerate(state.batches):
                # Every query so far is answered: the server and engine
                # are idle once their bookkeeping for the last one ends.
                record.speed.probe()
                start = time.perf_counter()
                rnd["pipeline"].append(events)
                record.sample("ingest", start, time.perf_counter())
                _mirror(rnd, events)
                visible = state.store.resolve(rnd["name"]).external_ids
                rnd["snapshots"].append((batch_no, sorted(visible), sorted(rnd["alive"])))
                snapshot = dict(rnd["alive"])
                queries = [QueryRequest(dataset=rnd["name"], a=a, b=b, focus=focus)
                           for focus, a, b in state.windows]
                a, b = sizes[batch_no]
                queries.append(QueryRequest(dataset=rnd["name"], a=a, b=b))
                rng.shuffle(queries)
                for request in queries:
                    start = time.perf_counter()
                    response = client.query(request)
                    record.sample("query_cached" if response.cached else "query", start, time.perf_counter())
                    rnd["answers"].append((batch_no, request, response, snapshot))
            rnd["pipeline"].close()
    finally:
        state.server.close()


def _mirror(rnd: dict, events) -> None:
    """Apply a batch to the benchmark's own copy (ids as the pipeline assigns)."""
    rnd["events"] += len(events)
    for event in events:
        if isinstance(event, Insert):
            rnd["alive"][rnd["next_id"]] = (event.x, event.y, frozenset(event.payload))
            rnd["next_id"] += 1
        else:
            del rnd["alive"][event.obj_id]


def check(state: State, record: common.Record) -> None:
    """Snapshots match the own alive set, WAL replay rebuilds it, answers hold."""
    for rnd in state.rounds:
        for b, visible, alive in rnd["snapshots"]:
            if visible != alive:
                record.wrong_answer(f"{rnd['name']}: visible ids after batch {b} differ from the fed alive set")
        replayed = IngestPipeline(live_from_diversity(state.base), IngestLog(rnd["path"]))
        if replayed.live.alive_ids() != sorted(rnd["alive"]):
            record.wrong_answer(f"{rnd['name']}: replaying the WAL does not rebuild the alive set")
        replayed.close()
        instances: Dict[int, Tuple[Instance, list, list]] = {}
        for b, request, response, snapshot in rnd["answers"]:
            if b not in instances:
                ids = sorted(snapshot)
                labels = [snapshot[i][2] for i in ids]
                instances[b] = (Instance([snapshot[i][0] for i in ids], [snapshot[i][1] for i in ids],
                                         bits=label_bitsets(labels)), ids, labels)
            inst, ids, labels = instances[b]
            if response.status != "ok":
                record.wrong_answer(f"{request}: status {response.status} ({response.error})")
                continue
            focus = common.served_focus(request.focus)
            inside = inst.inside(response.center[0], response.center[1], response.a, response.b, focus)
            recount = inst.value(inside)
            if [ids[i] for i in inside] != list(response.object_ids) or not common.same_score(recount, response.score):
                record.wrong_answer(f"{request} after batch {b}: reports {response.score}, region holds {recount}")
                continue
            if b % EXACT_EVERY:
                continue
            best = inst.optimum(response.a, response.b, focus, floor=recount)
            if common.same_score(best, response.score):
                continue
            detail = f"{request} after batch {b}: served {response.score}, optimum {best}"
            if focus is not None and common.is_center_rounding(
                    inst, focus, response.a, response.b, response.score, best, labels=labels):
                record.fail(common.CENTER_ROUNDING, detail)
            else:
                record.wrong_answer(detail)


def end_to_end(record: common.Record, scaled: bool = True) -> dict:
    # Reads are the answers a solve gave (the cache missed).  About 62 % of
    # the queries hit the cache, so the median of all of them would fall in
    # the slow end of the hits: HTTP round trips of about 1.5 ms, mostly
    # thread wake-ups, which the reference loop does not scale (in a noisy
    # minute that median moved between 1.4 and 4 ms from run to run).  The
    # hits' round trip shows in ``http.overhead_ms``.
    out = common.latency_metrics(record, ("query",), ("ingest",), scaled)
    timed = (record.scaled if scaled else record.raw)("query", "query_cached", "ingest")
    out["ops_per_s"] = len(timed) / sum(timed)
    return out


def layer_extra(state: State, record: common.Record, rec) -> dict:
    queries = record.raw("query", "query_cached")
    hist = state.engine.registry.snapshot().get("brs_serve_request_seconds", {})
    engine_s = float(hist.get("sum", 0.0))
    stats = state.engine.cache.stats
    lookups = stats.hits + stats.misses
    wal_bytes = sum(os.path.getsize(r["path"]) for r in state.rounds)
    events = sum(r["events"] for r in state.rounds)
    return {
        "http.overhead_ms": 1000.0 * (sum(queries) - engine_s) / max(1, len(queries)),
        "serve.cache_hits": float(stats.hits),
        "serve.cache_lookups": float(lookups),
        "serve.cache_hit_ratio": stats.hits / lookups if lookups else 0.0,
        "wal.bytes_per_event": wal_bytes / max(1, events),
    }


def close(state: State) -> None:
    for rnd in state.rounds:
        rnd["pipeline"].close()
    shutil.rmtree(state.workdir, ignore_errors=True)
