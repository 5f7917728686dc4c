"""Anytime execution: deadlines yield degraded answers, never exceptions.

The headline acceptance check lives here: a 50 ms deadline on a
10,000-object synthetic instance returns a best-so-far region with status
"degraded" or "timeout" and a finite optimality gap.
"""

import math
import random

import pytest

from repro.core.brs import best_region
from repro.core.gridscan import coarse_grid_scan
from repro.core.session import ExplorationSession
from repro.core.slicebrs import SliceBRS
from repro.core.topk import topk_regions
from repro.functions.coverage import CoverageFunction
from repro.geometry.point import Point
from repro.runtime.budget import Budget, budget_scope
from repro.runtime.errors import InvalidQueryError
from tests.helpers import random_instance


def big_instance(n=10_000, seed=0):
    """A 10k-object synthetic diversity instance."""
    rng = random.Random(seed)
    points = [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
    tags = [{rng.randrange(50)} for _ in range(n)]
    return points, CoverageFunction(tags)


class TestDeadlinePressure:
    def test_50ms_deadline_on_10k_objects_degrades_gracefully(self):
        points, f = big_instance()
        result = best_region(
            points, f, a=5.0, b=5.0, budget=Budget(deadline=0.05)
        )
        assert result.status in ("degraded", "timeout")
        assert result.upper_bound is not None
        assert math.isfinite(result.upper_bound)
        assert math.isfinite(result.gap)
        assert result.gap >= 0.0
        assert result.score >= 0.0
        # The answer is a real region with its true score.
        assert result.score == f.value(result.object_ids)

    def test_eval_cap_degrades_gracefully(self):
        points, f = big_instance(n=2_000)
        result = best_region(
            points, f, a=5.0, b=5.0, budget=Budget(max_evals=20)
        )
        assert result.status in ("degraded", "timeout")
        assert result.upper_bound is not None
        assert math.isfinite(result.gap)

    def test_no_budget_is_bit_identical_to_exact(self):
        points, f, a, b = random_instance(seed=5)
        bare = best_region(points, f, a, b)
        unlimited = best_region(points, f, a, b, budget=Budget.unlimited())
        assert bare.status == unlimited.status == "ok"
        assert bare.point == unlimited.point
        assert bare.score == unlimited.score
        assert bare.object_ids == unlimited.object_ids
        assert bare.upper_bound is None and unlimited.upper_bound is None

    def test_ambient_budget_is_picked_up(self):
        points, f = big_instance(n=2_000)
        with budget_scope(Budget(max_evals=20)):
            result = best_region(points, f, a=5.0, b=5.0)
        assert result.status in ("degraded", "timeout")


class TestGridScan:
    def test_completes_without_budget(self):
        points, f, a, b = random_instance(seed=9)
        result = coarse_grid_scan(points, f, a, b)
        assert result.status == "degraded"
        assert result.upper_bound is not None
        assert result.score <= result.upper_bound

    def test_timeout_mid_scan(self):
        points, f = big_instance(n=3_000)
        result = coarse_grid_scan(
            points, f, 5.0, 5.0, budget=Budget(max_evals=3)
        )
        assert result.status == "timeout"
        assert result.score == f.value(result.object_ids)

    def test_score_is_always_real(self):
        points, f, a, b = random_instance(seed=21)
        result = coarse_grid_scan(points, f, a, b, initial_best=1e9)
        # Nothing beats an absurd incumbent: the fallback answer still
        # reports its own true score, not the incumbent.
        assert result.score == f.value(result.object_ids)


class TestTopkUnderBudget:
    def test_budget_shared_across_rounds(self):
        points, f = big_instance(n=2_000)
        results = topk_regions(
            points, f, 5.0, 5.0, k=3, budget=Budget(max_evals=15)
        )
        assert 1 <= len(results) <= 3
        assert results[-1].status == "timeout"
        for result in results[:-1]:
            assert result.status == "ok"

    def test_no_budget_unchanged(self):
        points, f, a, b = random_instance(seed=13)
        results = topk_regions(points, f, a, b, k=2)
        assert all(r.status == "ok" for r in results)


class TestSessionLadder:
    def test_session_deadline_never_raises(self):
        points, f = big_instance(n=5_000)
        session = ExplorationSession(points, f, deadline=0.05)
        result = session.explore(5.0, 5.0)
        assert result.status in ("ok", "degraded", "timeout")
        confirmed = session.confirm()
        assert confirmed.status in ("ok", "degraded", "timeout")
        assert len(session.history) == 2

    def test_confirm_records_fallback_method(self):
        points, f = big_instance(n=5_000)
        session = ExplorationSession(points, f, max_evals=10)
        session.explore(5.0, 5.0)
        assert session.last.method in ("cover", "grid")

    def test_generous_budget_stays_exact(self):
        points, f, a, b = random_instance(seed=17)
        bare = ExplorationSession(points, f).confirm(a, b)
        budgeted = ExplorationSession(points, f, deadline=300.0).confirm(a, b)
        assert budgeted.status == "ok"
        assert budgeted.score == bare.score

    def test_empty_session_rejected(self):
        with pytest.raises(InvalidQueryError):
            ExplorationSession([], CoverageFunction([]))


class TestSliceBRSAnytime:
    def test_timeout_result_is_sound(self):
        points, f = big_instance(n=2_000)
        result = SliceBRS().solve(
            points, f, 5.0, 5.0, budget=Budget(max_evals=5)
        )
        assert result.status == "timeout"
        assert result.upper_bound >= result.score

    def test_statuses_are_valid(self):
        from repro.core.result import RESULT_STATUSES

        points, f, a, b = random_instance(seed=2)
        result = SliceBRS().solve(points, f, a, b, budget=Budget(max_evals=3))
        assert result.status in RESULT_STATUSES
