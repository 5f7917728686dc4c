"""Tests for the exploratory search session."""

import pytest

from tests.helpers import random_instance
from repro.core.session import ExplorationSession
from repro.core.slicebrs import SliceBRS
from repro.functions.coverage import CoverageFunction
from repro.geometry.point import Point


@pytest.fixture()
def session():
    points, fn, _, _ = random_instance(seed=321, max_objects=30)
    return ExplorationSession(points, fn), points, fn


class TestLifecycle:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            ExplorationSession([], CoverageFunction([]))

    def test_explore_appends_history(self, session):
        sess, _, _ = session
        sess.explore(2.0, 2.0)
        sess.explore(3.0, 1.0)
        assert len(sess.history) == 2
        assert sess.last.a == 3.0
        assert sess.last.method == "cover"

    def test_history_is_immutable_view(self, session):
        sess, _, _ = session
        sess.explore(1.0, 1.0)
        assert isinstance(sess.history, tuple)


class TestExploreConfirm:
    def test_explore_is_bounded_approximation(self, session):
        sess, points, fn = session
        approx = sess.explore(2.5, 2.5)
        exact = SliceBRS().solve(points, fn, 2.5, 2.5)
        assert approx.score >= 0.25 * exact.score - 1e-9
        assert approx.score <= exact.score + 1e-9

    def test_confirm_defaults_to_last_size(self, session):
        sess, points, fn = session
        sess.explore(2.0, 3.0)
        confirmed = sess.confirm()
        assert sess.last.method == "slice"
        assert sess.last.a == 2.0 and sess.last.b == 3.0
        assert confirmed.score == pytest.approx(
            SliceBRS().solve(points, fn, 2.0, 3.0).score
        )

    def test_confirm_without_history_requires_size(self, session):
        sess, _, _ = session
        with pytest.raises(ValueError, match="pass a and b"):
            sess.confirm()
        sess.confirm(2.0, 2.0)  # explicit size works from a cold start

    def test_confirm_transposes_the_points_once(self, session, monkeypatch):
        from repro.columnar.dataset import ColumnarDataset
        from repro.core import brs

        sess, points, fn = session
        calls = []
        real = ColumnarDataset.from_points.__func__

        def counting(cls, *args, **kwargs):
            calls.append(1)
            return real(cls, *args, **kwargs)

        sess.explore(2.0, 2.0)
        monkeypatch.setattr(ColumnarDataset, "from_points", classmethod(counting))
        got = [sess.confirm(2.0, 2.0), sess.confirm(3.0, 1.5)]
        assert len(calls) == 1
        monkeypatch.undo()
        for result, (a, b) in zip(got, [(2.0, 2.0), (3.0, 1.5)]):
            want = brs.solve(points, fn, a, b)
            assert (result.score, result.region) == (want.score, want.region)

    def test_confirm_never_below_explore(self, session):
        sess, _, _ = session
        approx = sess.explore(2.0, 2.0)
        exact = sess.confirm()
        assert exact.score >= approx.score - 1e-9


class TestRefine:
    def test_refine_scales_last_rectangle(self, session):
        sess, _, _ = session
        sess.explore(2.0, 4.0)
        sess.refine(scale_a=2.0)
        assert sess.last.a == 4.0 and sess.last.b == 4.0
        sess.refine(scale_b=0.5)
        assert sess.last.a == 4.0 and sess.last.b == 2.0

    def test_refine_requires_history(self, session):
        sess, _, _ = session
        with pytest.raises(ValueError, match="explore"):
            sess.refine()

    def test_refine_rejects_bad_factor(self, session):
        sess, _, _ = session
        sess.explore(1.0, 1.0)
        with pytest.raises(ValueError):
            sess.refine(scale_a=0.0)


class TestInspection:
    def test_inspect_returns_region_contents(self, session):
        sess, points, fn = session
        result = sess.explore(3.0, 3.0)
        contents = sess.inspect(result)
        assert sorted(obj_id for obj_id, _ in contents) == sorted(result.object_ids)
        for obj_id, location in contents:
            assert location == points[obj_id]

    def test_best_so_far(self, session):
        sess, _, _ = session
        assert sess.best_so_far() is None
        sess.explore(0.5, 0.5)
        sess.explore(4.0, 4.0)  # bigger window can only score >= smaller
        best = sess.best_so_far()
        assert best.result.score == max(r.result.score for r in sess.history)


class TestGrowingWindowMonotonicity:
    def test_confirmed_score_monotone_in_window(self):
        """With monotone f, the exact optimum is monotone in (a, b)."""
        points, fn, _, _ = random_instance(seed=99, max_objects=25)
        sess = ExplorationSession(points, fn)
        small = sess.confirm(1.0, 1.0)
        large = sess.confirm(4.0, 4.0)
        assert large.score >= small.score - 1e-9


class TestSessionResultCache:
    def _cached_session(self, seed=321):
        from repro.serve.cache import ResultCache

        points, fn, a, b = random_instance(seed=seed, max_objects=30)
        cache = ResultCache(32)
        sess = ExplorationSession(points, fn, cache=cache, dataset_id="s1")
        return sess, cache, a, b

    def test_uncached_session_records_none(self, session):
        sess, _, _ = session
        sess.explore(2.0, 2.0)
        assert sess.last.cache_hit is None

    def test_repeat_explore_hits_the_cache(self):
        sess, cache, a, b = self._cached_session()
        first = sess.explore(a, b)
        second = sess.explore(a, b)
        assert [r.cache_hit for r in sess.history] == [False, True]
        assert second == first
        assert cache.stats.hits == 1

    def test_explore_and_confirm_never_shadow_each_other(self):
        sess, _, a, b = self._cached_session()
        sess.explore(a, b)
        confirmed = sess.confirm(a, b)
        # The confirm is a miss (different contract), and is exact.
        assert sess.last.cache_hit is False
        assert sess.last.method == "slice"
        exact = SliceBRS().solve(sess._points, sess._f, a, b)
        assert confirmed.score == pytest.approx(exact.score)

    def test_repeat_confirm_hits_and_preserves_method(self):
        sess, _, a, b = self._cached_session(seed=322)
        sess.confirm(a, b)
        again = sess.confirm(a, b)
        assert sess.last.cache_hit is True
        assert sess.last.method == "slice"
        assert again.status == "ok"

    def test_invalidate_cache_forces_a_resolve(self):
        sess, cache, a, b = self._cached_session(seed=323)
        sess.explore(a, b)
        assert sess.invalidate_cache() == 2
        assert len(cache) == 0
        sess.explore(a, b)
        assert sess.last.cache_hit is False

    def test_sessions_with_different_parameters_do_not_share(self):
        from repro.serve.cache import ResultCache

        points, fn, a, b = random_instance(seed=324, max_objects=25)
        cache = ResultCache(32)
        one = ExplorationSession(points, fn, theta=1.0, cache=cache,
                                 dataset_id="shared")
        two = ExplorationSession(points, fn, theta=2.0, cache=cache,
                                 dataset_id="shared")
        one.explore(a, b)
        two.explore(a, b)
        assert two.last.cache_hit is False

    def test_cached_result_has_honest_score(self):
        sess, _, a, b = self._cached_session(seed=325)
        sess.explore(a, b)
        hit = sess.explore(a, b)
        assert hit.score == pytest.approx(sess._f.value(hit.object_ids))
