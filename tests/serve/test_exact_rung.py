"""The serve tier's exact rung: one exact solve per query.

``QuerySolver``'s exact rung is one ``columnar_best_region`` call on the
focus-restricted candidates — no CoverBRS incumbent pass (and so no
quadtree) and no x-window split.  These tests pin that mechanism on
coverage, influence and SUM data, focused and unfocused, together with
the submit-time contract for an empty focus window and the stable ``k``
sizing across ingest flips.
"""

import pytest

from repro.core.naive import NaiveBRS
from repro.core.siri import objects_in_region
from repro.datasets.registry import brightkite_like, scalability_dataset, yelp_like
from repro.functions.reduced import reduce_over_cover
from repro.functions.weighted_sum import SumFunction
from repro.geometry.point import Point
from repro.index.quadtree import Quadtree
from repro.ingest import IngestLog, IngestPipeline, live_from_diversity
from repro.ingest.events import Insert
from repro.obs.metrics import MetricsRegistry, metrics_scope
from repro.runtime.budget import Budget
from repro.runtime.errors import InvalidQueryError
from repro.serve.aio import AsyncServeEngine
from repro.serve.cache import ResultCache
from repro.serve.model import QueryRequest, normalize_query
from repro.serve.solvecore import QuerySolver
from repro.serve.store import DatasetStore

KINDS = ("coverage", "influence", "sum")


@pytest.fixture(scope="module")
def store():
    store = DatasetStore()
    store.add_dataset("coverage", scalability_dataset(40, seed=5))
    store.add_dataset(
        "influence", brightkite_like(40, n_users=80, seed=3), n_rr_sets=300
    )
    data = scalability_dataset(40, seed=8)
    weights = [float(1 + (7 * i) % 5) for i in range(40)]
    store.add_points(
        "sum", data.points, SumFunction(40, weights), fn_key="sum",
        space=data.space,
    )
    return store


def _request(entry, focused):
    space = entry.space
    width = space.x_max - space.x_min
    height = space.y_max - space.y_min
    focus = None
    if focused:
        focus = (
            space.x_min + 0.2 * width, space.x_max - 0.2 * width,
            space.y_min + 0.2 * height, space.y_max - 0.2 * height,
        )
    return QueryRequest(
        dataset=entry.id, a=0.25 * height, b=0.3 * width, focus=focus
    )


def _candidates(entry, key):
    """The focus-restricted instance, built apart from the solver."""
    ids = list(range(len(entry.points)))
    if key.focus is not None:
        x_min, x_max, y_min, y_max = key.focus
        ids = [
            i for i in ids
            if x_min < entry.points[i].x < x_max
            and y_min < entry.points[i].y < y_max
        ]
    points = [entry.points[i] for i in ids]
    return points, reduce_over_cover(entry.fn, [[i] for i in ids])


@pytest.mark.parametrize("focused", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_exact_rung_is_one_solve_at_the_optimum(store, kind, focused, monkeypatch):
    builds = []
    real_init = Quadtree.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Quadtree, "__init__", counting_init)
    entry = store.resolve(kind)
    key = QuerySolver.resolve_key(_request(entry, focused).validated(), entry)
    registry = MetricsRegistry()
    with metrics_scope(registry):
        resp = QuerySolver().solve(key, entry)

    points, fn = _candidates(entry, key)
    optimum = NaiveBRS().solve(points, fn, key.a, key.b).score
    assert resp.status == "ok"
    assert resp.score == pytest.approx(optimum, abs=1e-9)
    held = objects_in_region(points, Point(*resp.center), key.a, key.b)
    assert fn.value(held) == pytest.approx(resp.score, abs=1e-9)
    assert builds == []
    solves = registry.snapshot()["brs_serve_exact_solves_total"]["value"]
    assert solves == 1


@pytest.mark.parametrize("focused", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_exhausted_budget_degrades_with_a_sound_bound(store, kind, focused):
    entry = store.resolve(kind)
    key = QuerySolver.resolve_key(_request(entry, focused).validated(), entry)
    resp = QuerySolver().solve(key, entry, budget=Budget.of(max_evals=3))

    points, fn = _candidates(entry, key)
    optimum = NaiveBRS().solve(points, fn, key.a, key.b).score
    assert resp.status == "degraded"
    assert resp.solver_status in ("timeout", "degraded")
    assert resp.upper_bound is not None
    assert resp.upper_bound >= optimum - 1e-9
    assert resp.score <= optimum + 1e-9


def test_engine_counts_one_exact_solve_per_solved_query(store):
    requests = [
        QueryRequest(dataset=kind, k=k) for kind in KINDS for k in (1.0, 2.0)
    ]
    with AsyncServeEngine(store, cache=ResultCache(64)) as engine:
        responses = [engine.query(r, timeout=60) for r in requests]
        counters = engine.registry.snapshot()
    assert all(r.status == "ok" and not r.cached for r in responses)
    assert counters["brs_serve_exact_solves_total"]["value"] == len(requests)


def test_empty_focus_is_rejected_at_submit_and_sheds_nobody():
    data = yelp_like(600)
    store = DatasetStore()
    store.add_dataset("demo", data)
    space = data.space
    span = 0.05 * (space.x_max - space.x_min)

    def around(p, k):
        return QueryRequest(
            dataset="demo", k=k,
            focus=(p.x - span, p.x + span, p.y - span, p.y + span),
        )

    with AsyncServeEngine(store) as engine:
        first = [
            engine.query(around(p, 1 + i % 3), timeout=60)
            for i, p in enumerate(data.points[:60])
        ]
        assert all(r.status == "ok" for r in first)
        window_before = engine.slo_snapshot()["window_requests"]
        with pytest.raises(InvalidQueryError, match="no objects"):
            engine.query(
                QueryRequest(dataset="demo", k=2, focus=(0, 0.5, 0, 0.5)),
                timeout=60,
            )
        assert engine.slo_snapshot()["window_requests"] == window_before
        after = [
            engine.query(around(p, 2), timeout=60)
            for p in data.points[60:80]
        ]
    assert [r.status for r in after] == ["ok"] * 20


def test_focus_emptiness_uses_the_solver_open_window():
    """An object on the window's edge is outside it, as for the solve."""
    store = DatasetStore()
    points = [Point(1.0, 1.0), Point(3.0, 3.0)]
    store.add_points("pts", points, SumFunction(2), fn_key="sum")
    entry = store.resolve("pts")

    def resolve(focus):
        request = QueryRequest(dataset="pts", a=1.0, b=1.0, focus=focus)
        return QuerySolver.resolve_key(request, entry)

    with pytest.raises(InvalidQueryError, match="no objects"):
        resolve((1.0, 2.0, 0.5, 1.5))
    assert resolve((0.5, 2.0, 0.5, 1.5)).focus == (0.5, 2.0, 0.5, 1.5)


def test_object_on_the_focus_edge_is_outside_submit_and_solve():
    """One open-window lookup decides both the submit check and the
    candidates: an object exactly on the edge is in neither."""
    store = DatasetStore()
    points = [Point(1.0, 2.0), Point(3.0, 2.0), Point(2.0, 2.0)]
    store.add_points(
        "pts", points, SumFunction(3, [10.0, 1.0, 1.0]), fn_key="sum"
    )
    entry = store.resolve("pts")
    # x_min = 1.0 runs through the heavy object at (1, 2).
    focus = (1.0, 4.0, 1.0, 3.0)
    assert entry.columns().count_in_rect(*focus) == 2
    assert entry.columns().ids_in_rect(*focus).tolist() == [1, 2]
    request = QueryRequest(dataset="pts", a=3.0, b=3.0, focus=focus)
    key = QuerySolver.resolve_key(request, entry)
    resp = QuerySolver().solve(key, entry)
    assert resp.status == "ok"
    assert resp.score == 2.0
    assert resp.object_ids == (1, 2)
    with pytest.raises(InvalidQueryError, match="no objects"):
        QuerySolver.resolve_key(
            QueryRequest(dataset="pts", a=3.0, b=3.0, focus=(1.0, 1.5, 1.0, 3.0)),
            entry,
        )


def test_window_emptied_after_submit_is_an_exact_empty_answer(store):
    entry = store.resolve("coverage")
    key = normalize_query(
        entry.id, entry.version, entry.fn_key, 1.0, 1.0,
        focus=(-10.0, -9.0, -10.0, -9.0),
    )
    resp = QuerySolver().solve(key, entry)
    assert resp.status == "ok"
    assert resp.score == 0.0
    assert resp.object_ids == ()
    assert resp.center == (-9.5, -9.5)


def test_k_sized_windows_stay_cached_across_ingest_flips(tmp_path):
    data = scalability_dataset(300, seed=3)
    live = live_from_diversity(data)
    points, _, fn = live.snapshot()
    store = DatasetStore()
    store.add_points("bench", points, fn, fn_key="coverage", space=data.space)
    cache = ResultCache(256)
    space = data.space
    width = space.x_max - space.x_min
    height = space.y_max - space.y_min
    # Popular windows in the left half; every batch lands in the right.
    windows = [
        QueryRequest(
            dataset="bench", k=2,
            focus=(p.x - 0.1 * width, p.x + 0.1 * width,
                   p.y - 0.1 * height, p.y + 0.1 * height),
        )
        for p in points
        if p.x < space.x_min + 0.3 * width
    ][:8]
    assert len(windows) == 8
    pipe = IngestPipeline(
        live, IngestLog(tmp_path / "wal.jsonl"), store=store, cache=cache,
        dataset_id="bench",
    )
    try:
        with AsyncServeEngine(store, cache=cache) as engine:
            cold = [engine.query(r, timeout=60) for r in windows]
            hits = 0
            for batch in range(4):
                pipe.append([
                    Insert(space.x_max - 0.05 * width * (i + 1),
                           space.y_max - 0.05 * height * (batch + 1),
                           payload=[batch])
                    for i in range(3)
                ])
                warm = [engine.query(r, timeout=60) for r in windows]
                assert [r.score for r in warm] == [r.score for r in cold]
                hits += sum(r.cached for r in warm)
    finally:
        pipe.close()
    assert len(store.resolve("bench").points) == len(points) + 12
    assert hits == 4 * len(windows)
