"""Tests for the x-window plan and ``solve_partitioned``.

The exactness cases run the windows on a 2-worker pool: without one,
``solve_partitioned`` is a single exact call and no window is searched.
"""

import math

import pytest

from tests.helpers import random_instance
from repro.core.naive import NaiveBRS
from repro.core.partitioned import (
    Shard,
    _window_bounds,
    plan_shards,
)
from repro.core.slicebrs import SliceBRS
from repro.functions.weighted_sum import SumFunction
from repro.geometry.point import Point
from repro.obs.trace import Tracer, trace_scope
from repro.parallel import backend, solve_partitioned
from repro.runtime.errors import InvalidQueryError


class TestWindowBounds:
    def test_single_part(self):
        assert _window_bounds(0.0, 10.0, 1, 1.0) == [(0.0, 10.0)]

    def test_windows_overlap_by_b(self):
        windows = _window_bounds(0.0, 100.0, 4, 2.0)
        assert len(windows) == 4
        for (_, hi), (lo, _) in zip(windows, windows[1:]):
            assert hi - lo >= 2.0 - 1e-9

    def test_windows_cover_the_span(self):
        windows = _window_bounds(-5.0, 45.0, 3, 1.0)
        assert windows[0][0] <= -5.0
        assert windows[-1][1] >= 45.0

    def test_tiny_span_collapses(self):
        assert _window_bounds(0.0, 1.0, 8, 2.0) == [(0.0, 1.0)]


class TestWindowBoundsFallback:
    """The over-requested-parts fallback, at adversarial span/b ratios.

    When the requested count makes the stride no wider than ``b``, the
    fallback must keep the *largest* count whose stride stays strictly
    wider than ``b`` — not a truncated guess that halves the usable count
    or collapses a still-sound two-window split to one.
    """

    @pytest.mark.parametrize(
        "span,b,n_req",
        [
            (10.0, 4.9, 8),     # span/b just above 2: two windows are sound
            (10.0, 2.4, 64),    # span/b = 4.167: four windows are sound
            (7.0, 3.3, 5),      # span/b = 2.12
            (100.0, 49.9, 4),   # huge b, ratio barely above 2
            (10.0, 1.999, 16),  # ratio just above an integer (5.0025)
        ],
    )
    def test_keeps_maximal_sound_window_count(self, span, b, n_req):
        windows = _window_bounds(0.0, span, n_req, b)
        expected = max(1, min(n_req, math.ceil(span / b) - 1))
        assert len(windows) == expected
        # Invariants the exactness argument rests on.
        assert windows[0][0] == 0.0
        assert windows[-1][1] == pytest.approx(span)
        for (_, hi), (lo, _) in zip(windows, windows[1:]):
            assert hi - lo >= b - 1e-9
        if len(windows) > 1:
            assert span / len(windows) > b

    def test_ratio_just_above_two_is_not_collapsed(self):
        # The old ``int(span / (2 * b))`` fallback returned a single
        # window here; two windows with stride 5.0 > 4.9 are sound.
        assert len(_window_bounds(0.0, 10.0, 8, 4.9)) == 2

    def test_stride_never_degenerates_to_pure_overlap(self):
        for n_req in range(2, 40):
            for b in (0.3, 0.7, 1.1, 2.9, 4.999):
                windows = _window_bounds(0.0, 10.0, n_req, b)
                if len(windows) > 1:
                    assert 10.0 / len(windows) > b

    @pytest.mark.parametrize("b", [4.9, 2.6, 1.999])
    def test_exact_at_adversarial_ratio(self, b):
        """Fallback-reduced decompositions must still be exact."""
        points = [
            Point(0.17 * i % 10.0, (0.29 * i) % 10.0) for i in range(40)
        ]
        fn = SumFunction(len(points))
        split = solve_partitioned(
            points, fn, a=1.3, b=b, n_parts=16, workers=2
        )
        whole = NaiveBRS().solve(points, fn, a=1.3, b=b)
        assert split.score == pytest.approx(whole.score)


class TestPlanShards:
    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            plan_shards([], 1.0, 2)
        with pytest.raises(ValueError):
            plan_shards([Point(0, 0)], 1.0, 0)

    def test_every_object_belongs_to_a_shard(self):
        points, _, _, b = random_instance(seed=81, max_objects=40)
        shards = plan_shards(points, b, 4)
        covered = set()
        for shard in shards:
            covered.update(shard.object_ids)
        assert covered == set(range(len(points)))

    def test_members_lie_inside_their_window(self):
        points, _, _, b = random_instance(seed=82, max_objects=40)
        for shard in plan_shards(points, b, 5):
            assert isinstance(shard, Shard)
            for i in shard.object_ids:
                assert shard.x_lo <= points[i].x <= shard.x_hi

    def test_indices_are_consecutive(self):
        points, _, _, b = random_instance(seed=83, max_objects=40)
        shards = plan_shards(points, b, 6)
        assert [s.index for s in shards] == list(range(len(shards)))

    def test_some_shard_holds_each_objects_b_neighbourhood(self):
        """The completeness half of the exactness argument.

        For any candidate center (near some object), one shard must
        contain every object within b/2 horizontally — otherwise a shard
        solve could miss the optimum's full object set.
        """
        points, _, _, b = random_instance(seed=84, max_objects=50)
        shards = plan_shards(points, b, 4)
        for i, p in enumerate(points):
            neighbours = {
                j for j, q in enumerate(points) if abs(q.x - p.x) <= b / 2
            }
            assert any(
                neighbours <= set(shard.object_ids) for shard in shards
            ), f"object {i}'s b-neighbourhood split across all shards"


class TestPartitionedSolve:
    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            solve_partitioned([Point(0, 0)], SumFunction(1), 1, 1, n_parts=0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            solve_partitioned([], SumFunction(0), 1, 1)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("n_parts", [1, 2, 5])
    def test_matches_monolithic_exact(self, seed, n_parts):
        points, fn, a, b = random_instance(seed, max_objects=30)
        split = solve_partitioned(
            points, fn, a, b, n_parts=n_parts, workers=2
        )
        whole = NaiveBRS().solve(points, fn, a, b)
        assert split.score == pytest.approx(whole.score)

    def test_score_is_reevaluated_globally(self):
        points, fn, a, b = random_instance(seed=50, max_objects=25)
        result = solve_partitioned(points, fn, a, b, n_parts=3, workers=2)
        assert result.score == pytest.approx(fn.value(result.object_ids))

    def test_parallel_workers_same_answer(self):
        points, fn, a, b = random_instance(seed=60, max_objects=35)
        sequential = solve_partitioned(points, fn, a, b, n_parts=4)
        parallel = solve_partitioned(points, fn, a, b, n_parts=4, workers=2)
        assert parallel.score == pytest.approx(sequential.score)

    def test_optimum_straddling_window_boundary(self):
        """A cluster exactly at a window seam must still be found whole."""
        # 10 objects tightly around x = 5 in a 0..10 span, 2 windows.
        cluster = [Point(5.0 + 0.01 * i, 1.0 + 0.01 * i) for i in range(-5, 5)]
        spread = [Point(0.5, 9.0), Point(9.5, 9.0)]
        points = cluster + spread
        fn = SumFunction(len(points))
        result = solve_partitioned(
            points, fn, a=1.0, b=1.0, n_parts=2, workers=2
        )
        assert result.score == 10.0

    def test_without_a_pool_is_one_exact_call(self):
        points, fn, a, b = random_instance(seed=61, max_objects=35)
        events = []
        with trace_scope(Tracer(events)):
            result = solve_partitioned(points, fn, a, b, n_parts=4)
        spans = [e["span"] for e in events if e.get("ev") == "enter"]
        assert spans.count("ladder.solve") == 1
        assert "parallel.shard" not in spans
        oracle = NaiveBRS().solve(points, fn, a, b)
        assert result.score == pytest.approx(oracle.score)


class TestValidation:
    """Malformed instances fail before any window is planned or pooled."""

    @pytest.fixture(autouse=True)
    def no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(backend, "ProcessPoolExecutor", refuse)

    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_non_finite_coordinate_names_the_object(self, workers, bad, axis):
        points = [Point(0, 0), Point(1, 1), Point(3, 3), Point(4, 4)]
        points[2] = Point(bad, 2.0) if axis == "x" else Point(2.0, bad)
        with pytest.raises(InvalidQueryError, match=r"object 2 "):
            solve_partitioned(
                points, SumFunction(4), 1, 1, n_parts=2, workers=workers
            )

    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize(
        "a,b", [(0.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.inf)]
    )
    def test_bad_rectangle(self, workers, a, b):
        points = [Point(0, 0), Point(1, 1), Point(3, 3), Point(4, 4)]
        with pytest.raises(InvalidQueryError, match="query rectangle"):
            solve_partitioned(
                points, SumFunction(4), a, b, n_parts=2, workers=workers
            )


class TestInitialBest:
    def test_slicebrs_honours_initial_bound(self):
        points, fn, a, b = random_instance(seed=70, max_objects=25)
        optimum = SliceBRS().solve(points, fn, a, b)
        # With the bound set to the optimum, the search prunes everything
        # and falls back — but the fallback score is honest.
        bounded = SliceBRS().solve(points, fn, a, b, initial_best=optimum.score)
        assert bounded.score <= optimum.score + 1e-9
        assert bounded.score == pytest.approx(fn.value(bounded.object_ids))

    def test_initial_bound_prunes_work(self):
        points, fn, a, b = random_instance(seed=71, max_objects=40)
        cold = SliceBRS().solve(points, fn, a, b)
        warm = SliceBRS().solve(points, fn, a, b, initial_best=cold.score * 0.99)
        assert warm.stats.n_slabs_searched <= cold.stats.n_slabs_searched
        assert warm.score == pytest.approx(cold.score)