"""``serve``: independent users of the default asyncio serve engine.

Three datasets, one per score function — coverage (``yelp_like``),
influence (``brightkite_like``, RIS) and SUM (weighted Gaussian-mixture
points) — sit in one :class:`~repro.serve.store.DatasetStore`.  One
generator thread sends a seeded Poisson schedule at a fixed rate through
``AsyncServeEngine.submit_threadsafe``.  Each round of the schedule holds
unfocused queries at seeded continuous sizes, every query of a fixed pool
of focused windows (answered from the cache after the first round), and
repeats of unfocused queries sent about three seconds earlier, which the
cache answers.  Then ``nproc``
closed-loop clients send ``CAPACITY_ROUNDS`` more rounds of the same mix,
in bursts of half a round, to a fresh engine and cache, which gives the
capacity figure.

The datasets and the focused pool do not depend on the seed: a focused
query that the SliceBRS center-rounding fault answers wrongly then fails
in every run alike.  The seed draws the unfocused sizes, the repeats, the
order and the arrival times.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time
from typing import List, Tuple

import numpy as np

from repro import datasets as D
from repro import DatasetStore, QueryRequest, SumFunction
from repro.geometry import Rect
from repro.serve.aio.engine import AsyncServeEngine
from repro.serve.solvecore import QuerySolver

import common
from oracle import Instance, label_bitsets

#: Fixed arrival rate, queries per second: the engine is busy about a
#: tenth of the time, so a slow spell of the host (the loop up to six
#: times slower for a second or two) hardly queues requests behind it.
RATE_QPS = 8.0
#: Objects per dataset, and the RIS sample size of the influence one.
N_OBJECTS = 300
RR_SETS = 500
#: Requests per round: a focused pool and unfocused queries per dataset,
#: plus repeats of unfocused queries sent REPEAT_GAP arrivals earlier.
POOL_PER_DATASET = 6
UNFOCUSED = 16
REPEATS = 14
REPEAT_GAP = 24
PER_ROUND = 3 * (POOL_PER_DATASET + UNFOCUSED) + REPEATS
#: Round length at the fixed rate; ``--seconds`` buys whole rounds.
ROUND_S = PER_ROUND / RATE_QPS
#: Rounds of the same mix the closed-loop clients send (unpaced), in
#: bursts of half a round.
CAPACITY_ROUNDS = 4
BURSTS = 2 * CAPACITY_ROUNDS
#: Unfocused answers per run whose optimality the brute force re-derives.
EXACT_CHECKS = 12
CLIENTS = os.cpu_count() or 1
#: The generator has the reference loop timed once every request sent is
#: answered, if the next is still PROBE_GAP_S away (at most once per
#: PROBE_EVERY_S): the quiet time and the loop on both CPUs take about
#: 25 ms.
PROBE_GAP_S = 0.05
PROBE_EVERY_S = 0.1
#: Reference-loop timings between two capacity bursts.
BURST_PROBES = 3

_SPACE = Rect(0.0, 10_000.0, 0.0, 10_000.0)


class State:
    def __init__(self) -> None:
        self.store = DatasetStore()
        cov = D.yelp_like(N_OBJECTS, seed=41)
        inf = D.brightkite_like(N_OBJECTS, n_users=N_OBJECTS // 2, seed=43)
        points = D.gaussian_mixture_points(N_OBJECTS, _SPACE, seed=47)
        weights = np.random.default_rng(48).integers(1, 10, len(points)).astype(float)
        self.store.add_dataset("cov", cov)
        self.store.add_dataset("inf", inf, n_rr_sets=RR_SETS)
        self.store.add_points("sum", points, SumFunction(len(points), list(weights)), fn_key="sum")
        self.points = {"cov": cov.points, "inf": inf.points, "sum": points}
        self.labels = {
            "cov": cov.tag_sets,
            "inf": [self.store.resolve("inf").fn.labels_of(i) for i in range(len(inf.points))],
        }
        self.weights = weights
        self.engine = AsyncServeEngine(self.store)
        self.capacity_engine = AsyncServeEngine(self.store)
        self.pool = _focused_pool(self.points)


def _focused_pool(points) -> List[QueryRequest]:
    """The fixed focused windows: centred on an object, so never empty."""
    rng = common.rng_for(0, "serve-pool")
    pool = []
    for name in ("cov", "inf", "sum"):
        for _ in range(POOL_PER_DATASET):
            c = points[name][rng.randrange(len(points[name]))]
            w, h = rng.uniform(2000, 5000), rng.uniform(2000, 5000)
            k = math.exp(rng.uniform(math.log(2.0), math.log(12.0)))
            pool.append(QueryRequest(dataset=name, k=k, focus=(c.x - w / 2, c.x + w / 2, c.y - h / 2, c.y + h / 2)))
    return pool


def setup(seed: int) -> State:
    return State()


def schedule(state: State, seed: int, rounds: int, stream: str = "serve") -> List[Tuple[float, QueryRequest]]:
    """Seeded arrival times and requests; the same requests in every round.

    A repeat copies an unfocused request at least ``REPEAT_GAP`` arrivals
    earlier (``REPEAT_GAP / RATE_QPS`` seconds on average).
    """
    rng = common.rng_for(seed, stream)
    requests: List[QueryRequest] = []
    for _ in range(rounds):
        start = len(requests)
        firsts = list(state.pool)
        for name in ("cov", "inf", "sum"):
            ks = common.stratified(rng, UNFOCUSED, 2.0, 20.0, log=True)
            aspects = common.stratified(rng, UNFOCUSED, 0.6, 1.6)
            firsts += [QueryRequest(dataset=name, k=k, aspect=r) for k, r in zip(ks, aspects)]
        rng.shuffle(firsts)
        requests += firsts
        for _ in range(REPEATS):
            earlier: List[QueryRequest] = []
            while not earlier:
                at = rng.randrange(start + REPEAT_GAP, len(requests) + 1)
                earlier = [r for r in requests[: at - REPEAT_GAP] if r.focus is None]
            requests.insert(at, rng.choice(earlier))
    # Exponential gaps (Poisson arrivals), one drawn per stratum of their
    # distribution: every run offers the same load, in a seeded order.
    gaps = [-math.log(1.0 - u) / RATE_QPS for u in common.stratified(rng, len(requests), 0.0, 1.0)]
    out: List[Tuple[float, QueryRequest]] = []
    t = 0.0
    for gap, request in zip(gaps, requests):
        t += gap
        out.append((t, request))
    return out


def _open_loop(engine: AsyncServeEngine, plan, record: common.Record, sent: list) -> None:
    """One generator thread: submit each request at its intended time."""
    done = threading.Semaphore(0)
    idle = threading.Event()
    idle.set()
    lock = threading.Lock()
    in_flight = [0]
    t0 = time.perf_counter()
    last_probe = -1.0
    for intended, request in plan:
        if intended - last_probe > PROBE_EVERY_S:
            # Wait for every request sent so far to be answered — then the
            # engine holds no queued or running work — while the next send
            # leaves time for the reference loop.
            idle.wait(timeout=max(0.0, intended - PROBE_GAP_S - (time.perf_counter() - t0)))
            if idle.is_set() and intended - (time.perf_counter() - t0) > PROBE_GAP_S:
                record.speed.probe()
                last_probe = intended
        delay = intended - (time.perf_counter() - t0)
        if delay > 0:
            time.sleep(delay)
        actual = time.perf_counter() - t0
        entry = {"request": request, "intended": intended, "lag": actual - intended,
                 "submitted": t0 + actual}
        sent.append(entry)

        def _done(future, entry=entry) -> None:
            entry["latency"] = time.perf_counter() - t0 - entry["intended"]
            entry["response"] = future.result()
            with lock:
                in_flight[0] -= 1
                if in_flight[0] == 0:
                    idle.set()
            done.release()

        with lock:
            in_flight[0] += 1
            idle.clear()
        engine.submit_threadsafe(request).add_done_callback(_done)
    for _ in plan:
        if not done.acquire(timeout=120.0):
            raise RuntimeError("serve: an answer did not arrive within 120 s")
    for entry in sent:
        start = t0 + entry["intended"]
        record.sample("query_cached" if entry["response"].cached else "query", start, start + entry["latency"])


def _closed_loop(engine: AsyncServeEngine, plan, record: common.Record, sent: list) -> int:
    """``CLIENTS`` threads, each sending its next request on an answer.

    The engine is never idle while they run, so the requests go in
    ``BURSTS`` bursts, and the reference loop is timed in the quiet
    between bursts.
    """
    requests = [request for _, request in plan]
    per_burst = len(requests) // BURSTS
    lock = threading.Lock()

    def client(cursor) -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            start = time.perf_counter()
            response = engine.query(requests[i], timeout=120.0)
            end = time.perf_counter()
            with lock:
                sent.append({"request": requests[i], "response": response, "span": (start, end)})

    for burst in range(BURSTS):
        for _ in range(BURST_PROBES):
            record.speed.probe()
        cursor = iter(range(burst * per_burst, (burst + 1) * per_burst))
        threads = [threading.Thread(target=client, args=(cursor,)) for _ in range(CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        record.sample("capacity_burst", start, time.perf_counter(), count=False)
    for _ in range(BURST_PROBES):
        record.speed.probe()
    for entry in sent:
        kind = "capacity_cached" if entry["response"].cached else "capacity"
        record.sample(kind, *entry["span"])
    return per_burst * BURSTS


def run(state: State, seed: int, seconds: float, record: common.Record) -> None:
    plan = schedule(state, seed, max(1, round(seconds / ROUND_S)))
    state.sent, state.capacity_sent = [], []
    state.engine.start_background()
    try:
        _open_loop(state.engine, plan, record, state.sent)
    finally:
        state.engine.close()
    state.open_loop_end = time.perf_counter()
    state.capacity_engine.start_background()
    try:
        capacity_plan = schedule(state, seed, CAPACITY_ROUNDS, "serve-capacity")
        record.extra["capacity_requests"] = _closed_loop(
            state.capacity_engine, capacity_plan, record, state.capacity_sent)
    finally:
        state.capacity_engine.close()


def check(state: State, record: common.Record) -> None:
    """Every answer: ok, its ids and score recounted, optimal (sampled)."""
    insts = {
        "cov": Instance.of(state.points["cov"], bits=label_bitsets(state.labels["cov"])),
        "inf": Instance.of(state.points["inf"], bits=label_bitsets(state.labels["inf"]),
                           scale=state.store.resolve("inf").fn.scale),
        "sum": Instance.of(state.points["sum"], weights=state.weights),
    }
    entries = state.sent + state.capacity_sent
    unfocused = sorted({_key(e["request"], e["response"]) for e in entries if e["request"].focus is None})
    sampled = set(common.rng_for(0, "serve-check").sample(unfocused, min(EXACT_CHECKS, len(unfocused))))
    for entry in entries:
        request, response = entry["request"], entry["response"]
        if response.status != "ok":
            record.wrong_answer(f"{request}: status {response.status} ({response.error})")
            continue
        inst = insts[request.dataset]
        focus = common.served_focus(request.focus)
        a, b = response.a, response.b
        ids = inst.inside(response.center[0], response.center[1], a, b, focus)
        recount = inst.value(ids)
        if sorted(ids.tolist()) != list(response.object_ids) or not common.same_score(recount, response.score):
            record.wrong_answer(f"{request}: reports {response.score} over {len(response.object_ids)} ids, "
                                f"region holds {recount} over {len(ids)}")
            continue
        key = _key(request, response)
        if focus is None and key not in sampled:
            continue
        best = inst.optimum(a, b, focus, floor=recount)
        if common.same_score(best, response.score):
            continue
        detail = f"{request}: served {response.score}, optimum {best}"
        if focus is not None and common.is_center_rounding(
                inst, focus, a, b, response.score, best,
                labels=state.labels.get(request.dataset),
                weights=state.weights if request.dataset == "sum" else None):
            # The pool is fixed, so this fails alike in every run.
            record.fail(common.CENTER_ROUNDING, detail)
        else:
            record.wrong_answer(detail)


def _key(request: QueryRequest, response) -> tuple:
    return (request.dataset, response.a, response.b, request.focus)


def end_to_end(record: common.Record, scaled: bool = True) -> dict:
    pick = record.scaled if scaled else record.raw
    queries = pick("query")
    bursts = pick("capacity_burst")
    return {
        # Over the whole open loop, from each request's intended send time,
        # of the answers the engine solved: a cache hit (well under a
        # millisecond) is mostly thread wake-ups, which the reference loop
        # does not scale, and with the hits in, the median would fall among
        # the smallest solves.  The cache shows in ``serve.cache_hit_ratio``.
        "read_p50_ms": 1000.0 * statistics.median(queries),
        "read_p90_ms": 1000.0 * common.percentile(queries, 90),
        # Closed-loop latency of the answers the engine solved (cache hits
        # answer in well under a millisecond).
        "heavy_p50_ms": 1000.0 * statistics.median(pick("capacity")),
        "ops_per_s": record.extra["capacity_requests"] / sum(bursts),
    }


def layer_extra(state: State, record: common.Record, rec) -> dict:
    """Generator lag, queue wait, cache and dedup counts of the traced pass."""
    lags = [e["lag"] for e in state.sent]
    submits = {}
    for entry in state.sent:
        key = QuerySolver.resolve_key(entry["request"].validated(), state.store.resolve(entry["request"].dataset))
        submits.setdefault(key, []).append(entry["submitted"])
    waits = []
    for span in rec.select("serve.solve"):
        if span["start"] > state.open_loop_end:
            continue  # the capacity phase: a fresh engine, not this schedule
        before = [t for t in submits.get(span["key"], []) if t <= span["start"]]
        if before:
            waits.append(span["start"] - max(before))
    stats = state.engine.cache.stats
    lookups = stats.hits + stats.misses
    counters = state.engine.registry.snapshot()

    def count(name: str) -> float:
        return float(counters.get(name, {}).get("value", 0.0))

    return {
        "loadgen.lag_p50_ms": 1000.0 * statistics.median(lags),
        "loadgen.lag_max_ms": 1000.0 * max(lags),
        "serve.queue_wait_ms": 1000.0 * sum(waits) / max(1, len(waits)),
        "serve.cache_hits": float(stats.hits),
        "serve.cache_lookups": float(lookups),
        "serve.cache_hit_ratio": stats.hits / lookups if lookups else 0.0,
        "serve.dedup_joins": count("brs_serve_dedup_joins_total"),
        "serve.fallback_calls": count("brs_serve_shed_cover_total") + count("brs_serve_shed_grid_total")
        + count("brs_serve_degraded_total"),
    }


def close(state: State) -> None:
    pass
