"""The exact rung names the plane it ran on, in its trace and its metrics.

Every exact solve opens one ``slicebrs.solve`` span with ``path`` set to
``"columnar"`` (the kernel) or ``"object"`` (object-path SliceBRS).  A
score function the kernel has no bounds for is a counted fallback: a
``columnar.fallback`` event names its class, and both planes publish the
same ``brs_slicebrs_*`` counter family.
"""

import random

from repro.core.brs import best_region
from repro.core.naive import NaiveBRS
from repro.functions.coverage import CoverageFunction
from repro.functions.saturating import CappedSumFunction
from repro.geometry.point import Point
from repro.obs.metrics import MetricsRegistry, metrics_scope
from repro.obs.trace import Tracer, span_tree, trace_scope


def _instance():
    rng = random.Random(5)
    points = [
        Point(rng.randrange(0, 41) / 2.0, rng.randrange(0, 41) / 2.0)
        for _ in range(40)
    ]
    tags = [{rng.randrange(0, 12) for _ in range(3)} for _ in points]
    return points, tags


def _solve(points, f):
    events = []
    registry = MetricsRegistry()
    with trace_scope(Tracer(events)), metrics_scope(registry):
        result = best_region(points, f, 3.0, 3.0)
    return result, events, registry.snapshot()


def _enters(events, name):
    return [e for e in events if e.get("ev") == "enter" and e["span"] == name]


def test_coverage_runs_on_the_columnar_plane():
    points, tags = _instance()
    result, events, metrics = _solve(points, CoverageFunction(tags))
    (solve,) = _enters(events, "slicebrs.solve")
    assert solve["path"] == "columnar"
    assert not [e for e in events if e.get("name") == "columnar.fallback"]
    assert "brs_columnar_fallbacks_total" not in metrics
    assert metrics["brs_slicebrs_solves_total"]["value"] == 1
    assert metrics["brs_slabs_searched_total"]["value"] == result.stats.n_slabs_searched
    assert metrics["brs_slicebrs_solve_seconds"]["count"] == 1


def test_other_scores_fall_back_to_the_object_path_with_a_reason():
    points, _ = _instance()
    f = CappedSumFunction(len(points), cap=3.0)
    result, events, metrics = _solve(points, f)
    (solve,) = _enters(events, "slicebrs.solve")
    assert solve["path"] == "object"
    (fallback,) = [e for e in events if e.get("name") == "columnar.fallback"]
    assert fallback["fallback_reason"] == "CappedSumFunction"
    assert fallback["parent"] == solve["parent"]
    assert metrics["brs_columnar_fallbacks_total"]["value"] == 1
    assert metrics["brs_slicebrs_solves_total"]["value"] == 1
    assert result.score == NaiveBRS().solve(points, f, 3.0, 3.0).score


def test_kernel_spans_nest_like_the_object_path():
    points, tags = _instance()
    result, events, _ = _solve(points, CoverageFunction(tags))
    tree = span_tree(events)
    name_of = {e["id"]: e["span"] for e in events if e.get("ev") == "enter"}
    slices = [i for i, n in name_of.items() if n == "slicebrs.slice"]
    slabs = [i for i, n in name_of.items() if n == "slicebrs.slab"]
    assert len(slices) == result.stats.n_slices_scanned
    assert len(slabs) == result.stats.n_slabs_searched
    for i in slices:
        assert [name_of[c] for c in tree[i]] == ["sweep.scan_slab"]
    for i in slabs:
        assert [name_of[c] for c in tree[i]] == ["sweep.search_mr"]
