"""One function per paper experiment (see DESIGN.md, Section 4).

Every function returns one or more :class:`~repro.bench.harness.Table`
objects whose rows mirror the series of the corresponding paper table or
figure.  Dataset analogs are cached per process, and every experiment is
deterministic (fixed seeds), so re-runs produce identical counts and
quality values (runtimes vary with the machine, their *ratios* are the
reproduced signal).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Sequence, Tuple

from repro.bench.harness import Table, timed
from repro.core.coverbrs import CoverBRS
from repro.core.maxrs import oe_maxrs, slicebrs_maxrs
from repro.core.slicebrs import SliceBRS
from repro.core.siri import build_siri_rows
from repro.core.sweep import count_maximal_regions, scan_slabs
from repro.cover.quadtree_cover import select_cover
from repro.datasets.registry import (
    brightkite_like,
    gowalla_like,
    meetup_like,
    query_size,
    scalability_dataset,
    yelp_like,
)
from repro.functions.reduced import reduce_over_cover
from repro.geometry.arrangement import count_arrangement_cells
from repro.geometry.rect import Rect

#: Query scale factors used throughout Section 6.
K_VALUES = (1, 5, 10, 15, 20)

#: RR-set sample size for the influence applications.
N_RR_SETS = 2000


@lru_cache(maxsize=None)
def _dataset(name: str):
    builders = {
        "brightkite_like": brightkite_like,
        "gowalla_like": gowalla_like,
        "yelp_like": yelp_like,
        "meetup_like": meetup_like,
    }
    return builders[name]()


@lru_cache(maxsize=None)
def _score_function(name: str):
    ds = _dataset(name)
    if name in ("brightkite_like", "gowalla_like"):
        return ds.score_function(n_rr_sets=N_RR_SETS, seed=0)
    return ds.score_function()


_INFLUENCE = ("brightkite_like", "gowalla_like")
_DIVERSITY = ("yelp_like", "meetup_like")


def _quality_and_runtime(datasets: Sequence[str], figure_q: str, figure_t: str,
                         app_name: str) -> List[Table]:
    """Shared driver for Figures 10/11 (influence) and 12/13 (diversity)."""
    quality_rows: List[Sequence] = []
    runtime_rows: List[Sequence] = []
    for name in datasets:
        ds = _dataset(name)
        fn = _score_function(name)
        for k in K_VALUES:
            a, b = ds.query(k)
            exact, t_exact = timed(lambda: SliceBRS().solve(ds.points, fn, a, b))
            tree = ds.quadtree()
            c4, t_c4 = timed(
                lambda: CoverBRS(c=1 / 3).solve(ds.points, fn, a, b, quadtree=tree)
            )
            c9, t_c9 = timed(
                lambda: CoverBRS(c=1 / 2).solve(ds.points, fn, a, b, quadtree=tree)
            )
            oe, t_oe = timed(lambda: oe_maxrs(ds.points, a, b))
            oe_quality = fn.value(oe.object_ids)
            quality_rows.append(
                (name, k, exact.score, c4.score, c9.score, oe_quality)
            )
            runtime_rows.append((name, k, t_exact, t_c4, t_c9, t_oe))
    return [
        Table(
            figure_q,
            f"quality vs k*q — {app_name}",
            ("dataset", "k", "SliceBRS", "CoverBRS4", "CoverBRS9", "OE"),
            quality_rows,
            notes=[
                "expected shape: SliceBRS highest; CoverBRS4/9 comparable; OE lowest",
            ],
        ),
        Table(
            figure_t,
            f"runtime (s) vs k*q — {app_name}",
            ("dataset", "k", "SliceBRS", "CoverBRS4", "CoverBRS9", "OE"),
            runtime_rows,
            notes=["expected shape: CoverBRS faster than SliceBRS, gap grows with k"],
        ),
    ]


def fig10_fig11_influence() -> List[Table]:
    """E1+E2: quality and runtime for the most-influential-region search."""
    return _quality_and_runtime(
        _INFLUENCE, "Figure 10", "Figure 11", "Application 1 (influence)"
    )


def fig12_fig13_diversity() -> List[Table]:
    """E3+E4: quality and runtime for the most-diversified-region search."""
    return _quality_and_runtime(
        _DIVERSITY, "Figure 12", "Figure 13", "Application 2 (diversity)"
    )


def _global_slabs_and_rows(name: str, k: float):
    ds = _dataset(name)
    fn = _score_function(name)
    a, b = ds.query(k)
    rows = build_siri_rows(ds.points, a, b)
    slabs = scan_slabs(rows, fn.evaluator())
    return rows, slabs


@lru_cache(maxsize=None)
def _region_census(name: str, k: float) -> Tuple[int, int]:
    """(#DR, #MR) at scale k; cached because Tables 4 and 5 share it."""
    rows, slabs = _global_slabs_and_rows(name, k)
    n_dr = count_arrangement_cells(Rect(r[0], r[1], r[2], r[3]) for r in rows)
    n_mr = count_maximal_regions(rows, slabs)
    return n_dr, n_mr


def table4_regions() -> List[Table]:
    """E5: number of disjoint regions (#DR) vs maximal regions (#MR)."""
    out: List[Sequence] = []
    for name in _INFLUENCE + _DIVERSITY:
        n_dr, n_mr = _region_census(name, 10)
        out.append((name, n_dr, n_mr, f"{n_mr / n_dr:.2%}"))
    return [
        Table(
            "Table 4",
            "effectiveness of maximal regions (10q query)",
            ("dataset", "#DR", "#MR", "#MR/#DR"),
            out,
            notes=[
                "#DR counted as arrangement cells (see DESIGN.md); expected "
                "shape: #MR is a small percentage of #DR",
            ],
        )
    ]


def table5_slabs() -> List[Table]:
    """E6: maximal-slab pruning effectiveness."""
    out: List[Sequence] = []
    for name in _INFLUENCE + _DIVERSITY:
        ds = _dataset(name)
        fn = _score_function(name)
        a, b = ds.query(10)
        _, n_mr = _region_census(name, 10)
        # prune_slices=False scans every slice so #MS is the full census.
        result = SliceBRS(prune_slices=False).solve(ds.points, fn, a, b)
        s = result.stats
        out.append(
            (name, n_mr, s.n_slabs, s.n_slabs_searched, s.n_candidates,
             f"{s.n_slabs_searched / max(1, s.n_slabs):.1%}")
        )
    return [
        Table(
            "Table 5",
            "effectiveness of maximal slabs (10q query)",
            ("dataset", "#MR", "#MS", "#MSP", "#DRP", "#MSP/#MS"),
            out,
            notes=[
                "expected shape: #MSP << #MS everywhere; the processed "
                "fraction is worst on meetup_like (shared tags give loose, "
                "tie-heavy upper bounds)",
            ],
        )
    ]


def fig14_noslice_ablation() -> List[Table]:
    """E7: usefulness of cutting the space into slices."""
    name = "brightkite_like"
    ds = _dataset(name)
    fn = _score_function(name)
    out: List[Sequence] = []
    for k in (1, 5, 10, 15):
        a, b = ds.query(k)
        _, t_sliced = timed(lambda: SliceBRS().solve(ds.points, fn, a, b))
        _, t_noslice = timed(
            lambda: SliceBRS(slicing=False).solve(ds.points, fn, a, b)
        )
        out.append((name, k, t_sliced, t_noslice, t_noslice / max(t_sliced, 1e-9)))
    return [
        Table(
            "Figure 14",
            "SliceBRS vs SliceBRS-NSlice runtime (s)",
            ("dataset", "k", "SliceBRS", "NSlice", "slowdown"),
            out,
            notes=["expected shape: NSlice much slower, gap grows with k"],
        )
    ]


def table6_cover() -> List[Table]:
    """E8: usefulness of the c-cover (c = 1/3, 10q query)."""
    out: List[Sequence] = []
    for name in _INFLUENCE + _DIVERSITY:
        ds = _dataset(name)
        fn = _score_function(name)
        a, b = ds.query(10)
        cover = select_cover(ds.points, 1 / 3, a, b)
        reduced_f = reduce_over_cover(fn, cover.groups)
        ra, rb = (2 / 3) * a, (2 / 3) * b
        reduced_rows = build_siri_rows(cover.points, ra, rb)
        n_dr = count_arrangement_cells(
            Rect(r[0], r[1], r[2], r[3]) for r in reduced_rows
        )
        reduced_slabs = scan_slabs(reduced_rows, reduced_f.evaluator())
        n_mr = count_maximal_regions(reduced_rows, reduced_slabs)
        result = CoverBRS(c=1 / 3).solve(ds.points, fn, a, b)
        out.append(
            (name, len(ds.points), cover.size, n_dr, n_mr,
             result.stats.n_candidates)
        )
    return [
        Table(
            "Table 6",
            "usefulness of the c-cover (c=1/3, 10q query)",
            ("dataset", "|O|", "|T|", "#DR", "#MR", "#DRP"),
            out,
            notes=["expected shape: |T| < |O|; reduced #DR/#MR/#DRP shrink"],
        )
    ]


def fig15_17_theta() -> List[Table]:
    """E9: effect of the slice width theta (Figures 15 and 17)."""
    tables: List[Table] = []
    for figure, datasets, app in (
        ("Figure 15", _INFLUENCE, "Application 1 (influence)"),
        ("Figure 17", _DIVERSITY, "Application 2 (diversity)"),
    ):
        rows: List[Sequence] = []
        for name in datasets:
            ds = _dataset(name)
            fn = _score_function(name)
            a, b = ds.query(10)
            for theta in (1, 2, 3, 4, 5):
                _, t_exact = timed(
                    lambda: SliceBRS(theta=theta).solve(ds.points, fn, a, b)
                )
                tree = ds.quadtree()
                _, t_c4 = timed(
                    lambda: CoverBRS(c=1 / 3, theta=theta).solve(
                        ds.points, fn, a, b, quadtree=tree
                    )
                )
                _, t_c9 = timed(
                    lambda: CoverBRS(c=1 / 2, theta=theta).solve(
                        ds.points, fn, a, b, quadtree=tree
                    )
                )
                rows.append((name, theta, t_exact, t_c4, t_c9))
        tables.append(
            Table(
                figure,
                f"runtime (s) vs slice width theta — {app}",
                ("dataset", "theta", "SliceBRS", "CoverBRS4", "CoverBRS9"),
                rows,
                notes=[
                    "expected shape: SliceBRS degrades as theta grows; "
                    "CoverBRS variants are insensitive",
                ],
            )
        )
    return tables


def fig16_scalability(sizes: Tuple[int, ...] = (5000, 10000, 20000, 40000)) -> List[Table]:
    """E10: scalability with the number of objects (Gaussian synthetic)."""
    rows: List[Sequence] = []
    # Fixed query size across sizes, as in the paper's setup.
    reference = scalability_dataset(sizes[0])
    a, b = query_size(reference.space, sizes[0], k=10)
    for n in sizes:
        ds = scalability_dataset(n)
        fn = ds.score_function()
        _, t_exact = timed(lambda: SliceBRS().solve(ds.points, fn, a, b))
        tree = ds.quadtree()
        _, t_c4 = timed(
            lambda: CoverBRS(c=1 / 3).solve(ds.points, fn, a, b, quadtree=tree)
        )
        _, t_c9 = timed(
            lambda: CoverBRS(c=1 / 2).solve(ds.points, fn, a, b, quadtree=tree)
        )
        rows.append((n, t_exact, t_c4, t_c9))
    return [
        Table(
            "Figure 16",
            "runtime (s) vs dataset size (388 categories, 3 labels/object)",
            ("n_objects", "SliceBRS", "CoverBRS4", "CoverBRS9"),
            rows,
            notes=[
                "expected shape: approximate algorithms scale mildly; the "
                "exact algorithm degrades fastest as density grows",
                "paper sizes (20M-120M) scaled down for pure Python",
            ],
        )
    ]


def table7_maxrs() -> List[Table]:
    """E11: adapted SliceBRS vs OE on the MaxRS problem."""
    rows: List[Sequence] = []
    for name in _INFLUENCE + _DIVERSITY:
        ds = _dataset(name)
        for k in (5, 10, 15, 20):
            a, b = ds.query(k)
            adapted, t_adapted = timed(lambda: slicebrs_maxrs(ds.points, a, b))
            oe, t_oe = timed(lambda: oe_maxrs(ds.points, a, b))
            assert abs(adapted.score - oe.score) < 1e-6, "MaxRS solvers disagree"
            rows.append((name, k, t_adapted, t_oe, f"{t_adapted / max(t_oe, 1e-9):.0%}"))
    return [
        Table(
            "Table 7",
            "adapted SliceBRS runtime as a fraction of OE (MaxRS)",
            ("dataset", "k", "SliceBRS-MaxRS (s)", "OE (s)", "ratio"),
            rows,
            notes=["paper reports 20%-40%; shape to check: ratio well below 100%"],
        )
    ]


def fig19_aspect_ratio() -> List[Table]:
    """E12: effect of the query rectangle's aspect ratio (Gowalla)."""
    name = "gowalla_like"
    ds = _dataset(name)
    fn = _score_function(name)
    rows: List[Sequence] = []
    for label, aspect in (("1:3", 1 / 3), ("1:2", 0.5), ("1:1", 1.0),
                          ("2:1", 2.0), ("3:1", 3.0)):
        a, b = ds.query(10, aspect=aspect)
        _, t_exact = timed(lambda: SliceBRS().solve(ds.points, fn, a, b))
        tree = ds.quadtree()
        _, t_c4 = timed(
            lambda: CoverBRS(c=1 / 3).solve(ds.points, fn, a, b, quadtree=tree)
        )
        _, t_c9 = timed(
            lambda: CoverBRS(c=1 / 2).solve(ds.points, fn, a, b, quadtree=tree)
        )
        rows.append((label, t_exact, t_c4, t_c9))
    return [
        Table(
            "Figure 19",
            "runtime (s) vs query aspect ratio (a:b), 10q area, gowalla_like",
            ("aspect", "SliceBRS", "CoverBRS4", "CoverBRS9"),
            rows,
            notes=["expected shape: square queries slightly slower than skewed"],
        )
    ]


def serve_throughput() -> List[Table]:
    """E13: query-serving throughput — cold wave vs cache-warm wave.

    Not a paper experiment: it measures the `repro.serve` subsystem the
    ROADMAP adds on top.  The same burst of distinct queries is fired
    twice at one engine; the second wave must be served from the result
    cache (hit-rate >= 90%, lower p50) while staying byte-identical.
    """
    import time

    from repro.serve.aio import AsyncServeEngine
    from repro.serve.cache import ResultCache
    from repro.serve.model import QueryRequest
    from repro.serve.store import DatasetStore

    ds = scalability_dataset(800, seed=3)
    store = DatasetStore()
    store.add_dataset("bench", ds)
    space = ds.space
    width = space.x_max - space.x_min
    height = space.y_max - space.y_min
    requests = [
        QueryRequest(
            dataset="bench",
            a=round(width * (0.02 + 0.011 * i), 4),
            b=round(height * (0.028 + 0.011 * i), 4),
        )
        for i in range(16)
    ]
    rows: List[Sequence] = []
    with AsyncServeEngine(store, cache=ResultCache(256), workers=4) as engine:
        for wave in ("cold", "warm"):
            hits_before = engine.cache.stats.hits
            start = time.perf_counter()
            futures = [engine.submit_threadsafe(req) for req in requests]
            responses = [f.result(timeout=300) for f in futures]
            elapsed = time.perf_counter() - start
            assert all(r.status == "ok" for r in responses), "serve wave failed"
            latencies = sorted(r.seconds for r in responses)

            def quantile(p: float) -> float:
                return latencies[min(len(latencies) - 1, int(p * len(latencies)))]

            hit_rate = (engine.cache.stats.hits - hits_before) / len(requests)
            rows.append(
                (wave, len(requests), len(requests) / max(elapsed, 1e-9),
                 quantile(0.5) * 1e3, quantile(0.99) * 1e3, hit_rate)
            )
    return [
        Table(
            "Serve",
            "serve-mode throughput: identical burst, cold vs warm cache",
            ("wave", "queries", "qps", "p50_ms", "p99_ms", "hit_rate"),
            rows,
            notes=[
                "expected shape: warm wave >= 90% cache hits, lower p50, "
                "higher QPS than the cold wave",
            ],
        )
    ]


def serve_saturation(
    qps_points: Tuple[float, ...] = (6.0, 14.0, 30.0),
    duration: float = 1.2,
) -> List[Table]:
    """E16: open-loop saturation sweep of the serve engine.

    Not a paper experiment: it is the load story ROADMAP item 2 asks
    for.  The engine faces an open-loop Poisson arrival process (two
    tenants, 2:1 traffic shares, per-request deadlines) at three target
    rates.  Latency is measured from *intended* send times
    (:mod:`repro.serve.loadgen`), so the p99 column is honest under
    saturation.  Goodput — served (ok + degraded) responses per second —
    must keep up with the offered rate at the lowest point and must not
    collapse as the offered rate climbs past what two workers can
    solve.  ``degraded_rate`` counts answers the pressure ladder shed
    (exact -> cover -> gridscan) or that hit their one-second deadline;
    each carries a sound upper bound.
    """
    from repro.serve.aio import AsyncServeEngine
    from repro.serve.loadgen import SubmitFn, WorkloadMix, saturation_sweep
    from repro.serve.store import DatasetStore

    def make_store() -> DatasetStore:
        store = DatasetStore()
        store.add_dataset("bench", scalability_dataset(1200, seed=3))
        return store

    # Wide, disjoint k choices per tenant keep the coalescer from
    # collapsing the stream to a handful of unique solves, so every
    # point measures solver throughput rather than cache hits.
    mixes = (
        WorkloadMix(tenant="alpha", share=2.0, dataset="bench",
                    k_choices=tuple(round(1.0 + 0.8 * i, 2)
                                    for i in range(24)),
                    timeout=1.0),
        WorkloadMix(tenant="beta", share=1.0, dataset="bench",
                    k_choices=tuple(round(1.4 + 1.1 * i, 2)
                                    for i in range(17)),
                    timeout=1.0),
    )

    def factory() -> Tuple[SubmitFn, Callable[[], None]]:
        engine = AsyncServeEngine(
            make_store(), cache=None, workers=2, queue_capacity=16,
        )
        engine.start_background()
        return (
            lambda req, tenant: engine.submit_threadsafe(req, tenant=tenant),
            engine.close,
        )

    rows: List[Sequence] = [
        (
            report.target_qps,
            round(report.p50_seconds * 1e3, 3),
            round(report.p99_seconds * 1e3, 3),
            round(report.shed_rate, 4),
            round(report.degraded_rate, 4),
            round(report.goodput_qps, 3),
        )
        for report in saturation_sweep(
            factory, mixes, qps_points, duration, seed=11
        )
    ]
    return [
        Table(
            "Serve-Saturation",
            "open-loop saturation sweep of the serve engine",
            ("target_qps", "p50_ms", "p99_ms", "shed_rate",
             "degraded_rate", "goodput_qps"),
            rows,
            notes=[
                "expected shape: goodput >= 0.9x offered at the lowest "
                "point, and each higher point keeps >= 0.9x the goodput "
                "of the point below (no collapse past saturation)",
                "p50/p99 measured from intended send times (no "
                "coordinated omission)",
            ],
        )
    ]


def ingest_churn(n_objects: int = 600, n_rounds: int = 8) -> List[Table]:
    """E15: query serving under a live mutation stream.

    Not a paper experiment: it measures the `repro.ingest` subsystem the
    ROADMAP adds on top.  One engine answers a fixed wave of focused
    queries while a durable ingest pipeline applies batches confined to
    one corner of the space.  Regional cache invalidation is the claim
    under test: mutations evict only the entries whose query window
    touches them, so the churn wave keeps a non-zero hit-rate where a
    whole-dataset version bump would start cold every round.
    """
    import pathlib
    import random
    import tempfile
    import time

    from repro.ingest import IngestLog, IngestPipeline, live_from_diversity
    from repro.ingest.events import Insert
    from repro.serve.aio import AsyncServeEngine
    from repro.serve.cache import ResultCache
    from repro.serve.model import QueryRequest
    from repro.serve.store import DatasetStore

    ds = scalability_dataset(n_objects, seed=3)
    live = live_from_diversity(ds)
    store = DatasetStore()
    cache = ResultCache(256)
    points, _, fn = live.snapshot()
    store.add_points("bench", points, fn, fn_key="coverage", space=ds.space)

    space = ds.space
    width = space.x_max - space.x_min
    height = space.y_max - space.y_min
    # Focus windows centered on actual objects (never empty), spread over
    # the space; mutations land inside the *first* window only, so each
    # round must evict that one entry and keep the other eleven warm.
    rng = random.Random(17)
    anchors = rng.sample(ds.points, 12)
    hot = anchors[0]
    requests = [
        QueryRequest(
            dataset="bench",
            a=round(height * 0.04, 4),
            b=round(width * 0.04, 4),
            focus=(
                max(space.x_min, p.x - width * 0.08),
                min(space.x_max, p.x + width * 0.08),
                max(space.y_min, p.y - height * 0.08),
                min(space.y_max, p.y + height * 0.08),
            ),
        )
        for p in anchors
    ]

    def wave(engine: AsyncServeEngine) -> Tuple[float, float]:
        hits_before = engine.cache.stats.hits
        start = time.perf_counter()
        responses = [engine.query(req, timeout=300) for req in requests]
        elapsed = time.perf_counter() - start
        assert all(r.status == "ok" for r in responses), "churn wave failed"
        hit_rate = (engine.cache.stats.hits - hits_before) / len(requests)
        return len(requests) / max(elapsed, 1e-9), hit_rate

    rows: List[Sequence] = []
    with tempfile.TemporaryDirectory() as tmp:
        wal = pathlib.Path(tmp) / "churn-wal.jsonl"
        with AsyncServeEngine(store, cache=cache, workers=2) as engine:
            pipe = IngestPipeline(
                live, IngestLog(wal), store=store, cache=cache,
                dataset_id="bench",
            )
            try:
                wave(engine)  # cold fill
                qps, hit_rate = wave(engine)
                rows.append(("warm", len(requests), qps, hit_rate, 0, 0))

                queries = hits = 0
                evicted_before = cache.stats.invalidations
                elapsed = 0.0
                for round_no in range(n_rounds):
                    pipe.append(
                        [
                            Insert(
                                hot.x + width * rng.uniform(-0.02, 0.02),
                                hot.y + height * rng.uniform(-0.02, 0.02),
                                payload=[round_no % 5],
                            )
                            for _ in range(3)
                        ]
                    )
                    hits_before = engine.cache.stats.hits
                    start = time.perf_counter()
                    responses = [
                        engine.query(req, timeout=300) for req in requests
                    ]
                    elapsed += time.perf_counter() - start
                    assert all(r.status == "ok" for r in responses)
                    queries += len(requests)
                    hits += engine.cache.stats.hits - hits_before
                evicted = cache.stats.invalidations - evicted_before
                rows.append(
                    ("churn", queries, queries / max(elapsed, 1e-9),
                     hits / queries, n_rounds, evicted)
                )
            finally:
                pipe.close()
    return [
        Table(
            "Ingest",
            "serving under churn: regional invalidation keeps the cache warm",
            ("phase", "queries", "qps", "hit_rate", "batches", "evicted"),
            rows,
            notes=[
                "expected shape: churn hit-rate > 0 (untouched focus windows "
                "survive each flip) with > 0 regional evictions",
            ],
        )
    ]


def parallel_speedup(
    n_objects: int = 0, workers: int = 4, n_parts: int = 8
) -> List[Table]:
    """E14: multiprocessing shard backend — serial vs process pool.

    Not a paper experiment: it measures the `repro.parallel` backend the
    ROADMAP adds on top.  One instance (Gaussian points, seeded uniform
    SumFunction weights) is solved twice through ``solve_partitioned`` —
    once without workers (one exact in-process call), once with its
    windows across a pool — and the scores must be identical.

    Sized to 200k objects on machines with at least 4 cores; scaled down
    elsewhere so the correctness half of the shape check still runs
    everywhere.  The speedup half is expected to fail there: on 2 cores
    one exact call beat the pool at every size measured (0.23-0.37 s
    against 4.3 s for 4 workers at 200k), because the windows give up
    the kernel's single best-first order.
    """
    import os
    import random

    from repro.functions.weighted_sum import SumFunction
    from repro.parallel import solve_partitioned

    cores = os.cpu_count() or 1
    if n_objects <= 0:
        n_objects = 200_000 if cores >= 4 else 20_000
    ds = scalability_dataset(n_objects, seed=7)
    rng = random.Random(99)
    fn = SumFunction(n_objects, [rng.random() for _ in range(n_objects)])
    a, b = query_size(ds.space, n_objects, k=10)

    serial, t_serial = timed(
        lambda: solve_partitioned(ds.points, fn, a, b, n_parts=n_parts)
    )
    pool, t_pool = timed(
        lambda: solve_partitioned(
            ds.points, fn, a, b, n_parts=n_parts, workers=workers
        )
    )
    speedup = t_serial / max(t_pool, 1e-9)
    rows: List[Sequence] = [
        ("serial", n_objects, cores, 0, t_serial, serial.score, 1.0),
        ("pool", n_objects, cores, workers, t_pool, pool.score, speedup),
    ]
    return [
        Table(
            "Parallel",
            "multiprocessing shard backend: serial vs pool, one instance",
            ("mode", "n_objects", "cores", "workers", "seconds", "score",
             "speedup"),
            rows,
            notes=[
                "expected shape: identical scores; speedup >= 1.5x with 4 "
                "workers on a >= 4-core machine at 200k objects",
                "the speedup half is expected to fail: the serial row is "
                "one exact call, which beat the pool at every size "
                "measured on 2 cores",
            ],
        )
    ]


#: E15's coverage instance size: the object path takes a minute at 100k.
COLUMNAR_COVERAGE_OBJECTS = 20_000


def columnar_speedup(n_objects: int = 100_000) -> List[Table]:
    """E15: columnar data plane — object-path solvers vs NumPy kernels.

    Not a paper experiment: it measures the `repro.columnar` subsystem
    the ROADMAP adds on top.  One instance (Gaussian points, seeded
    uniform SumFunction weights, a fixed 100x100 query) is solved four
    ways — SliceBRS and OE MaxRS through the object path, then the same
    two searches through the vectorized kernels — so the runtimes differ
    only by the data plane and the scores must be identical.  A second
    instance runs the paper's diversity score: coverage on the Section 6.5
    construction (:data:`COLUMNAR_COVERAGE_OBJECTS` objects, a k = 5
    query), object-path SliceBRS against the kernel's label-union sweeps.

    Single-core by construction: the speedup is algorithmic (contiguous
    arrays + searchsorted/prefix-sum kernels), not parallelism, so it is
    expected to hold on any machine at the full 100k instance.
    """
    import random

    from repro.columnar.solvers import columnar_oe_maxrs, columnar_slicebrs
    from repro.functions.weighted_sum import SumFunction

    ds = scalability_dataset(n_objects, seed=7)
    rng = random.Random(99)
    weights = [rng.random() for _ in range(n_objects)]
    fn = SumFunction(n_objects, weights)
    a = b = 100.0
    points = ds.points  # materialize outside the timed sections
    ds.columns()  # warm the facade cache: solver time is the signal

    obj_slice, t_obj_slice = timed(lambda: SliceBRS().solve(points, fn, a, b))
    col_slice, t_col_slice = timed(lambda: columnar_slicebrs(ds, fn, a, b))
    obj_oe, t_obj_oe = timed(lambda: oe_maxrs(points, a, b, weights=weights))
    col_oe, t_col_oe = timed(lambda: columnar_oe_maxrs(ds, a, b, weights=weights))

    cov = scalability_dataset(COLUMNAR_COVERAGE_OBJECTS, seed=7)
    cov_fn = cov.score_function()
    ca, cb = cov.query(5)
    cov_points = cov.points
    cov.columns()
    cov_fn._code_csr()  # the label CSR is cached per function, like columns
    obj_cov, t_obj_cov = timed(
        lambda: SliceBRS().solve(cov_points, cov_fn, ca, cb)
    )
    col_cov, t_col_cov = timed(lambda: columnar_slicebrs(cov, cov_fn, ca, cb))

    rows: List[Sequence] = [
        ("slicebrs", "object", n_objects, t_obj_slice, obj_slice.score, 1.0),
        ("slicebrs", "columnar", n_objects, t_col_slice, col_slice.score,
         t_obj_slice / max(t_col_slice, 1e-9)),
        ("oe_maxrs", "object", n_objects, t_obj_oe, obj_oe.score, 1.0),
        ("oe_maxrs", "columnar", n_objects, t_col_oe, col_oe.score,
         t_obj_oe / max(t_col_oe, 1e-9)),
        ("slicebrs-coverage", "object", COLUMNAR_COVERAGE_OBJECTS, t_obj_cov,
         obj_cov.score, 1.0),
        ("slicebrs-coverage", "columnar", COLUMNAR_COVERAGE_OBJECTS, t_col_cov,
         col_cov.score, t_obj_cov / max(t_col_cov, 1e-9)),
    ]
    return [
        Table(
            "Columnar",
            "NumPy data plane: object-path vs vectorized solver kernels",
            ("solver", "plane", "n_objects", "seconds", "score", "speedup"),
            rows,
            notes=[
                "expected shape: identical scores per solver; columnar "
                ">= 10x per SUM solver at the full 100k instance, single "
                "core; coverage (20k) is checked for identical scores only",
            ],
        )
    ]


#: experiment id -> callable, in presentation order.
ALL_EXPERIMENTS: Dict[str, Callable[[], List[Table]]] = {
    "fig10_11": fig10_fig11_influence,
    "fig12_13": fig12_fig13_diversity,
    "table4": table4_regions,
    "table5": table5_slabs,
    "fig14": fig14_noslice_ablation,
    "table6": table6_cover,
    "fig15_17": fig15_17_theta,
    "fig16": fig16_scalability,
    "table7": table7_maxrs,
    "fig19": fig19_aspect_ratio,
    "serve": serve_throughput,
    "serve-saturation": serve_saturation,
    "ingest": ingest_churn,
    "parallel": parallel_speedup,
    "columnar": columnar_speedup,
}


def _check_quality_runtime(tables: List[Table]) -> List[str]:
    """Shared shape check for Figures 10/11 and 12/13."""
    failures: List[str] = []
    quality, runtime = tables
    for name, k, exact, c4, c9, oe in quality.rows:
        if not exact >= c4 - 1e-9:
            failures.append(f"{quality.experiment}: SliceBRS < CoverBRS4 on {name} k={k}")
        if not c4 >= 0.25 * exact - 1e-9:
            failures.append(f"{quality.experiment}: CoverBRS4 below 1/4 bound on {name} k={k}")
        if not c9 >= exact / 9.0 - 1e-9:
            failures.append(f"{quality.experiment}: CoverBRS9 below 1/9 bound on {name} k={k}")
        if k == 10 and not oe <= exact:
            failures.append(f"{quality.experiment}: OE above exact on {name} k={k}")
    # Runtime: at the largest query on the largest dataset the approximate
    # solvers must win (the headline of Figures 11/13).
    last = runtime.rows[-1]
    _, _, t_exact, t_c4, t_c9, _ = last
    if not (t_c4 < t_exact and t_c9 < t_exact):
        failures.append(f"{runtime.experiment}: CoverBRS not faster at the largest query")
    return failures


def _check_table4(tables: List[Table]) -> List[str]:
    failures = []
    for name, n_dr, n_mr, _ in tables[0].rows:
        if not n_mr < 0.05 * n_dr:
            failures.append(f"Table 4: #MR not << #DR on {name}")
    return failures


def _check_table5(tables: List[Table]) -> List[str]:
    failures = []
    fractions = {}
    for name, _, n_ms, n_msp, _, _ in tables[0].rows:
        fractions[name] = n_msp / max(1, n_ms)
        if not n_msp <= 0.5 * n_ms:
            failures.append(f"Table 5: #MSP not << #MS on {name}")
    if max(fractions, key=fractions.get) != "meetup_like":
        failures.append("Table 5: meetup_like is not the worst-pruning dataset")
    return failures


def _check_fig14(tables: List[Table]) -> List[str]:
    failures = []
    for _, k, _, _, slowdown in tables[0].rows:
        if k >= 5 and not slowdown > 2.0:
            failures.append(f"Figure 14: NSlice not decisively slower at k={k}")
    return failures


def _check_table6(tables: List[Table]) -> List[str]:
    failures = []
    for name, n_o, n_t, _, n_mr, _ in tables[0].rows:
        if not n_t < n_o:
            failures.append(f"Table 6: |T| not smaller than |O| on {name}")
        if not n_mr >= 0:
            failures.append(f"Table 6: bad #MR on {name}")
    return failures


def _check_theta(tables: List[Table]) -> List[str]:
    failures = []
    for table in tables:
        by_dataset: Dict[str, Dict[int, float]] = {}
        for name, theta, t_exact, _, _ in table.rows:
            by_dataset.setdefault(name, {})[theta] = t_exact
        # SliceBRS at theta=5 should not beat theta=1 on the slowest
        # dataset of the pair (the trend Figures 15/17 show).
        slowest = max(by_dataset, key=lambda n: by_dataset[n][5])
        if not by_dataset[slowest][5] > by_dataset[slowest][1]:
            failures.append(f"{table.experiment}: no theta degradation on {slowest}")
    return failures


def _check_fig16(tables: List[Table]) -> List[str]:
    failures = []
    rows = tables[0].rows
    exact_times = [row[1] for row in rows]
    if exact_times != sorted(exact_times):
        failures.append("Figure 16: exact runtime not increasing with n")
    first_gap = rows[0][1] / max(rows[0][2], 1e-9)
    last_gap = rows[-1][1] / max(rows[-1][2], 1e-9)
    if not last_gap > first_gap:
        failures.append("Figure 16: exact/approx gap does not widen with n")
    return failures


def _check_table7(tables: List[Table]) -> List[str]:
    rows = tables[0].rows
    below = sum(1 for row in rows if row[2] < row[3])
    if below < len(rows) * 0.6:
        return ["Table 7: adapted SliceBRS not faster than OE on most rows"]
    return []


def _check_serve(tables: List[Table]) -> List[str]:
    failures = []
    rows = {row[0]: row for row in tables[0].rows}
    cold, warm = rows["cold"], rows["warm"]
    if not warm[5] >= 0.9:
        failures.append(f"Serve: warm hit-rate {warm[5]:.0%} below 90%")
    if not warm[3] <= cold[3]:
        failures.append("Serve: warm p50 not lower than cold p50")
    return failures


def _check_saturation(tables: List[Table]) -> List[str]:
    """Shape check: >=3 QPS points, full goodput at the lowest, no collapse."""
    (table,) = tables
    goodput = sorted((row[0], row[-1]) for row in table.rows)
    if len(goodput) < 3:
        return [f"serve-saturation: {len(goodput)} QPS points, need >= 3"]
    failures: List[str] = []
    low_qps, low_goodput = goodput[0]
    if not low_goodput >= 0.9 * low_qps:
        failures.append(
            f"serve-saturation: goodput {low_goodput:.2f} qps below 0.9x "
            f"the offered {low_qps:.0f} qps at the lowest point"
        )
    for (qps_below, below), (qps, gput) in zip(goodput, goodput[1:]):
        if not gput >= 0.9 * below:
            failures.append(
                f"serve-saturation: goodput collapsed past saturation "
                f"({below:.2f} qps at {qps_below:.0f} offered, "
                f"{gput:.2f} at {qps:.0f})"
            )
    return failures


def _check_ingest(tables: List[Table]) -> List[str]:
    failures = []
    rows = {row[0]: row for row in tables[0].rows}
    churn = rows["churn"]
    if not churn[3] > 0:
        failures.append(
            f"Ingest: churn hit-rate {churn[3]:.0%} is zero — regional "
            "invalidation is over-evicting"
        )
    if not churn[5] > 0:
        failures.append("Ingest: no regional evictions under churn")
    if not churn[4] > 0:
        failures.append("Ingest: no mutation batches were applied")
    return failures


def _check_parallel(tables: List[Table]) -> List[str]:
    import os

    failures = []
    rows = {row[0]: row for row in tables[0].rows}
    serial, pool = rows["serial"], rows["pool"]
    if abs(serial[5] - pool[5]) > 1e-9:
        failures.append(
            f"Parallel: scores differ between serial ({serial[5]}) and "
            f"pool ({pool[5]})"
        )
    # The speedup claim only binds where the pool can physically win:
    # enough cores for the configured workers, at the full instance size.
    if (os.cpu_count() or 1) >= 4 and pool[1] >= 200_000 and pool[6] < 1.5:
        failures.append(
            f"Parallel: speedup {pool[6]:.2f}x below 1.5x with "
            f"{pool[3]} workers"
        )
    return failures


def _check_columnar(tables: List[Table]) -> List[str]:
    failures = []
    rows = {(row[0], row[1]): row for row in tables[0].rows}
    obj, col = rows[("slicebrs-coverage", "object")], rows[("slicebrs-coverage", "columnar")]
    if obj[4] != col[4]:
        failures.append(
            f"Columnar: slicebrs-coverage scores differ between object "
            f"({obj[4]}) and columnar ({col[4]}) planes"
        )
    for solver in ("slicebrs", "oe_maxrs"):
        obj, col = rows[(solver, "object")], rows[(solver, "columnar")]
        if abs(obj[4] - col[4]) > 1e-9:
            failures.append(
                f"Columnar: {solver} scores differ between object "
                f"({obj[4]}) and columnar ({col[4]}) planes"
            )
        # The 10x claim binds only at the full instance size; smoke runs
        # at reduced n still get a warn-level 3x floor via --check logs.
        if col[2] >= 100_000 and col[5] < 10.0:
            failures.append(
                f"Columnar: {solver} speedup {col[5]:.1f}x below 10x at "
                f"n={col[2]}"
            )
        elif col[2] < 100_000 and col[5] < 3.0:
            failures.append(
                f"Columnar: {solver} speedup {col[5]:.1f}x below the 3x "
                f"smoke floor at n={col[2]}"
            )
    return failures


def _check_fig19(tables: List[Table]) -> List[str]:
    times = {row[0]: row[1] for row in tables[0].rows}
    if not (times["1:1"] > times["1:3"] and times["1:1"] > times["3:1"]):
        return ["Figure 19: square query not the slowest"]
    return []


#: experiment id -> shape validator over its tables; returns failures.
SHAPE_CHECKS: Dict[str, Callable[[List[Table]], List[str]]] = {
    "fig10_11": _check_quality_runtime,
    "fig12_13": _check_quality_runtime,
    "table4": _check_table4,
    "table5": _check_table5,
    "fig14": _check_fig14,
    "table6": _check_table6,
    "fig15_17": _check_theta,
    "fig16": _check_fig16,
    "table7": _check_table7,
    "fig19": _check_fig19,
    "serve": _check_serve,
    "serve-saturation": _check_saturation,
    "ingest": _check_ingest,
    "parallel": _check_parallel,
    "columnar": _check_columnar,
}
