"""Conformance of every caller of the one degradation ladder.

``best_region`` (slice, columnar, cover), ``ExplorationSession``
(explore, confirm) and ``QuerySolver`` (each rung, focused and
unfocused) all answer through :func:`repro.core.brs.solve`.  Each is run
on coverage, influence and SUM instances with no budget, with an
evaluation cap of 1, 3, 10, 30 and 60, and with a deadline that has
already passed, and every answer is held to the same invariants:

* no call raises;
* an ``ok`` exact answer equals the ``NaiveBRS`` optimum;
* every other answer satisfies ``score <= OPT <= upper_bound``;
* every reported region recounts to its reported score;
* each call makes exactly one ladder call;
* a non-final rung whose budget has already expired is skipped.

``topk_regions`` makes one ladder call per round on its shared budget,
so each round's exact rung gets the ladder's fraction of what is left.
"""

import itertools
import math

import pytest

from repro.core.brs import RUNG_COVER, RUNG_EXACT, RUNG_GRID, best_region
from repro.core.naive import NaiveBRS
from repro.core.session import ExplorationSession
from repro.core.siri import objects_in_region
from repro.datasets.registry import brightkite_like, scalability_dataset
from repro.functions.reduced import reduce_over_cover
from repro.functions.weighted_sum import SumFunction
from repro.geometry.point import Point
from repro.obs.trace import Tracer, trace_scope
from repro.runtime.budget import Budget, budget_scope
from repro.runtime.errors import InvalidQueryError
from repro.serve.model import normalize_query
from repro.serve.solvecore import QuerySolver
from repro.serve.store import DatasetStore

KINDS = ("coverage", "influence", "sum")
#: 30 and 60 evaluations let a later rung complete after the first ran out.
BUDGETS = ("none", "evals-1", "evals-3", "evals-10", "evals-30", "evals-60", "expired")
CALLERS = (
    "best_region:slice",
    "best_region:columnar",
    "best_region:cover",
    "session:explore",
    "session:confirm",
    "serve:exact",
    "serve:cover",
    "serve:grid",
    "serve:exact:focused",
    "serve:cover:focused",
    "serve:grid:focused",
)
TOL = 1e-9


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


def _budget(kind):
    if kind == "none":
        return None
    if kind == "expired":
        # The clock reads 0 at construction and 5 s later ever after.
        ticks = itertools.chain([0.0], itertools.repeat(5.0))
        return Budget(deadline=1.0, clock=lambda: next(ticks))
    return Budget(max_evals=int(kind.split("-")[1]))


def _key(entry, focused):
    space = entry.space
    width = space.x_max - space.x_min
    height = space.y_max - space.y_min
    focus = None
    if focused:
        focus = (
            space.x_min + 0.2 * width, space.x_max - 0.2 * width,
            space.y_min + 0.2 * height, space.y_max - 0.2 * height,
        )
    return normalize_query(
        entry.id, entry.version, entry.fn_key, 0.25 * height, 0.3 * width,
        focus,
    )


def _instance(entry, key):
    """The candidates a query is answered over, built apart from the solver."""
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


def _call(caller, entry, key, budget):
    """Run one caller.

    Returns ``(center, score, ok, exact, upper_bound)``: ``ok`` is the
    answer's own status, ``exact`` whether the caller asked for an exact
    answer.
    """
    points, fn, a, b = entry.points, entry.fn, key.a, key.b
    if caller.startswith("best_region:"):
        method = caller.split(":")[1]
        r = best_region(points, fn, a, b, method=method, budget=budget)
        return r.point, r.score, r.status == "ok", method != "cover", r.upper_bound
    if caller.startswith("session:"):
        session = ExplorationSession(points, fn)
        with budget_scope(budget):
            if caller == "session:explore":
                r = session.explore(a, b)
            else:
                r = session.confirm(a, b)
        method = session.last.method
        assert method == {"exact": "slice"}.get(r.rung, r.rung)
        exact = caller == "session:confirm"
        return r.point, r.score, r.status == "ok", exact, r.upper_bound
    rung = caller.split(":")[1]
    resp = QuerySolver().solve(key, entry, budget=budget, rung=rung)
    assert resp.status in ("ok", "degraded")
    if rung != RUNG_EXACT:
        assert resp.status == "degraded"
        assert resp.solver_status in ("cover", "gridscan")
    else:
        assert resp.solver_status in ("ok", "degraded", "timeout")
    ok = resp.status == "ok"
    return Point(*resp.center), resp.score, ok, rung == RUNG_EXACT, resp.upper_bound


@pytest.fixture(scope="module")
def optima():
    """NaiveBRS optima, computed once per (dataset, focus)."""
    return {}


@pytest.mark.parametrize("budget_kind", BUDGETS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("caller", CALLERS)
def test_every_caller_keeps_the_ladder_contract(
    store, optima, caller, kind, budget_kind
):
    entry = store.resolve(kind)
    key = _key(entry, caller.endswith(":focused"))
    if not caller.startswith("serve:"):
        # The direct callers answer over the whole instance.
        key = normalize_query(entry.id, entry.version, entry.fn_key, key.a, key.b)
    points, fn = _instance(entry, key)
    events = []
    with trace_scope(Tracer(events)):
        center, score, ok, exact, upper = _call(
            caller, entry, key, _budget(budget_kind)
        )

    if (entry.id, key.focus) not in optima:
        optima[entry.id, key.focus] = NaiveBRS().solve(points, fn, key.a, key.b).score
    optimum = optima[entry.id, key.focus]
    held = fn.value(objects_in_region(points, center, key.a, key.b))
    assert held == pytest.approx(score, abs=TOL)
    if ok and exact:
        assert score == pytest.approx(optimum, abs=TOL)
    else:
        assert upper is not None
        assert score <= optimum + TOL
        assert optimum <= upper + TOL

    ladder_calls = [
        e for e in events if e["ev"] == "enter" and e["span"] == "ladder.solve"
    ]
    assert len(ladder_calls) == 1
    ran = [e["rung"] for e in events if e.get("name") == "ladder.rung"]
    if ok:
        # Only the starting rung completing answers "ok".
        assert ran == [ladder_calls[0]["rung"]]
    if budget_kind == "expired":
        assert ran == [RUNG_GRID]
    if budget_kind == "none":
        assert ran == [ladder_calls[0]["rung"]]


def test_expired_budget_never_reaches_the_exact_or_cover_solver(
    store, monkeypatch
):
    import repro.columnar.solvers as columnar_solvers
    from repro.core.coverbrs import CoverBRS
    from repro.core.slicebrs import SliceBRS

    def refuse(*args, **kwargs):
        raise AssertionError("a rung with an expired budget ran")

    monkeypatch.setattr(columnar_solvers, "columnar_best_region", refuse)
    monkeypatch.setattr(CoverBRS, "solve", refuse)
    monkeypatch.setattr(SliceBRS, "solve", refuse)
    entry = store.resolve("coverage")
    key = _key(entry, focused=False)
    result = best_region(
        entry.points, entry.fn, key.a, key.b, budget=_budget("expired")
    )
    assert result.rung == RUNG_GRID
    assert result.status == "timeout"
    resp = QuerySolver().solve(key, entry, budget=_budget("expired"))
    assert resp.status == "degraded"
    assert resp.solver_status == "timeout"


def test_each_rung_gets_the_ladder_fraction_of_what_is_left(store, monkeypatch):
    import repro.columnar.solvers as columnar_solvers
    import repro.core.brs as ladder
    from repro.core.coverbrs import CoverBRS

    top = Budget(max_evals=20)
    seen = []

    def spy(rung, solve):
        def run(*args, **kwargs):
            seen.append((rung, kwargs["budget"].max_evals, top.remaining_evals()))
            return solve(*args, **kwargs)
        return run

    monkeypatch.setattr(
        columnar_solvers, "columnar_best_region",
        spy(RUNG_EXACT, columnar_solvers.columnar_best_region),
    )
    monkeypatch.setattr(CoverBRS, "solve", spy(RUNG_COVER, CoverBRS.solve))
    monkeypatch.setattr(
        ladder, "coarse_grid_scan", spy(RUNG_GRID, ladder.coarse_grid_scan)
    )
    entry = store.resolve("coverage")
    key = _key(entry, focused=False)
    result = best_region(entry.points, entry.fn, key.a, key.b, budget=top)
    # CoverBRS runs the exact entry on its reduced instance: keep each
    # rung's first record.
    firsts = [r for i, r in enumerate(seen) if r[0] not in {s[0] for s in seen[:i]}]
    assert [r[0] for r in firsts] == [RUNG_EXACT, RUNG_COVER, RUNG_GRID]
    for rung, granted, left in firsts:
        share = 1.0 if rung == RUNG_GRID else ladder.LADDER_FRACTION
        assert granted == max(1, math.ceil(left * share))
    # Every rung ran; the merged answer keeps the best region any of them
    # found.  On this instance the exact rung's partial answer (34) beats
    # the cover rung's partial answer and the grid rung's best cell (32).
    assert result.rung == RUNG_EXACT and result.status == "timeout"
    assert result.score == 34.0 and result.upper_bound is not None


def test_topk_rounds_walk_the_ladder_on_the_shared_budget(store):
    import repro.core.brs as ladder
    from repro.core.topk import topk_regions

    entry = store.resolve("coverage")
    key = _key(entry, focused=False)
    points, fn, a, b = entry.points, entry.fn, key.a, key.b
    # The evaluations each round's exact search charges when nothing caps it.
    needs, spent = [], 0
    for k in (1, 2, 3):
        uncapped = Budget(max_evals=10**9)
        topk_regions(points, fn, a, b, k=k, budget=uncapped)
        needs.append(uncapped.evals - spent)
        spent = uncapped.evals
    for cap in range(1, math.ceil(spent / ladder.LADDER_FRACTION) + 3):
        # A round's exact rung is granted LADDER_FRACTION of what is left,
        # and finishes only while that grant stays above its need.
        left, completed = cap, 0
        for need in needs:
            if math.ceil(left * ladder.LADDER_FRACTION) <= need:
                break
            left -= need
            completed += 1
        results = topk_regions(
            points, fn, a, b, k=3, budget=Budget(max_evals=cap)
        )
        statuses = [r.status for r in results]
        assert statuses[:completed] == ["ok"] * completed, cap
        # The first round the budget cuts short is the last one listed.
        assert len(results) == min(completed + 1, 3), cap
        if completed < 3:
            assert statuses[-1] != "ok", cap


@pytest.mark.parametrize("c", [0.0, 1.0, -0.5, 2.0])
def test_session_rejects_a_bad_cover_parameter_at_construction(store, c):
    entry = store.resolve("coverage")
    with pytest.raises(InvalidQueryError, match="c must be in"):
        ExplorationSession(entry.points, entry.fn, c=c)


@pytest.mark.parametrize("theta", [0.0, -1.0, float("inf"), float("nan")])
def test_session_rejects_a_bad_theta_at_construction(store, theta):
    entry = store.resolve("coverage")
    with pytest.raises(InvalidQueryError, match="theta"):
        ExplorationSession(entry.points, entry.fn, theta=theta)
