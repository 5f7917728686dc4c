"""Fault injection for the process-pool backend.

Faults are threaded through the real dispatch path (the task's ``fault``
field), so retries, pool rebuilds, and the final in-process call are
exercised end to end:

* a worker that *raises* keeps the pool alive — its shard is requeued
  and the final answer is still exact;
* a worker that *crashes* breaks the whole pool — the pool is rebuilt
  and the answer is still exact;
* exhausted retries leave the shard to one in-process exact call on the
  whole instance — still exact while the budget allows;
* a *stalled* worker under a deadline yields an anytime answer: degraded
  but sound (reported score <= reported upper bound);
* windows still undispatched when the deadline passes are not searched;
  each caps the upper bound with ``f`` of its own objects.
"""

from __future__ import annotations

import pytest

from repro.core.naive import NaiveBRS
from repro.core.partitioned import plan_shards
from repro.functions.weighted_sum import SumFunction
from repro.geometry.point import Point
from repro.obs.metrics import MetricsRegistry, metrics_scope
from repro.obs.trace import Tracer, trace_scope
from repro.parallel import solve_partitioned
from repro.runtime.budget import Budget
from repro.runtime.errors import InvalidQueryError
from tests.helpers import random_instance


@pytest.fixture()
def instance():
    points, fn, a, b = random_instance(5, max_objects=30)
    oracle = NaiveBRS().solve(points, fn, a, b)
    return points, fn, a, b, oracle


def _counter(snapshot, name):
    metric = snapshot.get(name)
    return metric["value"] if metric else 0.0


def test_raising_worker_is_retried_exactly(instance):
    points, fn, a, b, oracle = instance
    registry = MetricsRegistry()
    with metrics_scope(registry):
        result = solve_partitioned(
            points, fn, a, b, n_parts=3, workers=2,
            inject_faults={0: ["raise"]},
        )
    snap = registry.snapshot()
    assert result.status == "ok"
    assert result.score == pytest.approx(oracle.score)
    assert _counter(snap, "brs_parallel_retries_total") >= 1
    assert _counter(snap, "brs_parallel_worker_failures_total") >= 1


def test_crashed_worker_rebuilds_pool_exactly(instance):
    points, fn, a, b, oracle = instance
    registry = MetricsRegistry()
    with metrics_scope(registry):
        result = solve_partitioned(
            points, fn, a, b, n_parts=3, workers=2,
            inject_faults={1: ["crash"]},
        )
    snap = registry.snapshot()
    assert result.status == "ok"
    assert result.score == pytest.approx(oracle.score)
    assert _counter(snap, "brs_parallel_pool_rebuilds_total") >= 1
    assert _counter(snap, "brs_parallel_retries_total") >= 1


def test_retry_exhaustion_degrades_to_serial_exactly(instance):
    points, fn, a, b, oracle = instance
    registry = MetricsRegistry()
    with metrics_scope(registry):
        result = solve_partitioned(
            points, fn, a, b, n_parts=3, workers=2, max_retries=0,
            inject_faults={0: ["raise", "raise", "raise"]},
        )
    snap = registry.snapshot()
    # Even with the shard's retry budget gone, the in-process call makes
    # the answer exact.
    assert result.status == "ok"
    assert result.score == pytest.approx(oracle.score)
    assert _counter(snap, "brs_parallel_serial_fallbacks_total") >= 1


def test_every_shard_faulting_still_solves(instance):
    points, fn, a, b, oracle = instance
    result = solve_partitioned(
        points, fn, a, b, n_parts=3, workers=2, max_retries=1,
        inject_faults={0: ["raise"], 1: ["raise"], 2: ["raise"]},
    )
    assert result.status == "ok"
    assert result.score == pytest.approx(oracle.score)


def test_stalled_worker_under_deadline_is_sound(instance):
    points, fn, a, b, _ = instance
    result = solve_partitioned(
        points, fn, a, b, n_parts=3, workers=2,
        budget=Budget(deadline=2.0),
        inject_faults={0: ["stall", "stall", "stall"]},
    )
    # Anytime contract: whatever came back is degraded but sound.
    if result.status != "ok":
        assert result.upper_bound is not None
        assert result.upper_bound >= result.score - 1e-9
    assert result.score >= 0.0


def test_deadline_with_windows_left_searches_no_further():
    # Six windows on two workers: every dispatch stalls past the deadline,
    # so the loop breaks with windows never dispatched.
    points = [Point(float(i), float(i % 3)) for i in range(60)]
    fn = SumFunction(len(points))
    shards = plan_shards(points, 1.0, 6)
    assert len(shards) == 6
    events = []
    with trace_scope(Tracer(events)):
        result = solve_partitioned(
            points, fn, 1.0, 1.0, n_parts=6, workers=2,
            budget=Budget(deadline=0.3),
            inject_faults={s.index: ["stall"] * 3 for s in shards},
        )
    spans = [e["span"] for e in events if e.get("ev") == "enter"]
    assert spans.count("parallel.shard") < len(shards)
    # Windows left over after the deadline get no whole-instance solve.
    assert "ladder.solve" not in spans
    assert result.status == "timeout"
    # Each unsearched window caps the bound with f of its own objects,
    # which is tighter than f of the whole instance.
    window_cap = max(fn.value(s.object_ids) for s in shards)
    assert result.score - 1e-9 <= result.upper_bound <= window_cap
    assert window_cap < fn.value(range(len(points)))


def test_negative_max_retries_rejected(instance):
    points, fn, a, b, _ = instance
    with pytest.raises(InvalidQueryError):
        solve_partitioned(points, fn, a, b, workers=2, max_retries=-1)


def test_unpicklable_function_fails_fast():
    from repro.functions.base import SetFunction
    from repro.geometry.point import Point

    class Local(SetFunction):  # unpicklable: defined in a function body
        def value(self, objects):
            return float(len(set(objects)))

        def marginal(self, obj_id, base):
            ids = set(base)
            return 0.0 if obj_id in ids else 1.0

    points = [Point(float(i), 0.0) for i in range(10)]
    with pytest.raises(InvalidQueryError):
        solve_partitioned(points, Local(), 1.0, 1.0, n_parts=3, workers=2)
