"""Facade contract: lazy cached columns(), invalidation, batch_value."""

import numpy as np
import pytest

from repro.columnar.dataset import ColumnarDataset
from repro.datasets.registry import meetup_like, scalability_dataset
from repro.datasets.synthetic import (
    gaussian_mixture_dataset,
    gaussian_mixture_points,
    uniform_dataset,
    uniform_points,
)
from repro.functions.base import SetFunction
from repro.functions.coverage import CoverageFunction
from repro.functions.weighted_sum import SumFunction
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.grid import GridIndex

SPACE = Rect(0.0, 100.0, 0.0, 50.0)


class TestGenerators:
    def test_uniform_points_is_a_columns_facade(self):
        ds = uniform_dataset(64, SPACE, seed=9)
        pts = uniform_points(64, SPACE, seed=9)
        assert [p.x for p in pts] == list(ds.xs)
        assert [p.y for p in pts] == list(ds.ys)

    def test_gaussian_points_is_a_columns_facade(self):
        ds = gaussian_mixture_dataset(128, SPACE, seed=4)
        pts = gaussian_mixture_points(128, SPACE, seed=4)
        assert [p.x for p in pts] == list(ds.xs)
        assert [p.y for p in pts] == list(ds.ys)

    def test_generators_stay_inside_the_open_space(self):
        ds = gaussian_mixture_dataset(256, SPACE, seed=11)
        assert float(ds.xs.min()) > SPACE.x_min
        assert float(ds.xs.max()) < SPACE.x_max
        assert float(ds.ys.min()) > SPACE.y_min
        assert float(ds.ys.max()) < SPACE.y_max


class TestRegistryFacade:
    def test_columns_cached_and_consistent(self):
        ds = scalability_dataset(300, seed=2)
        cols = ds.columns()
        assert cols is ds.columns()
        assert isinstance(cols, ColumnarDataset)
        assert [p.x for p in ds.points] == list(cols.xs)

    def test_diversity_columns(self):
        ds = meetup_like(n_objects=200, seed=3)
        cols = ds.columns()
        assert cols is ds.columns()
        assert cols.n == len(ds.points)


class TestServedFacade:
    def _store(self):
        from repro.serve.store import DatasetStore

        store = DatasetStore()
        pts = [Point(float(i), float(i % 5)) for i in range(20)]
        store.add_points("d", pts, SumFunction(20), fn_key="sum")
        return store

    def test_columns_cached_per_version(self):
        store = self._store()
        entry = store.resolve("d")
        cols = entry.columns()
        assert cols is entry.columns()
        # bump_version mutates the entry in place: cache must invalidate.
        store.bump_version("d")
        assert entry.columns() is not cols

    def test_regional_flip_gets_fresh_columns(self):
        store = self._store()
        old_cols = store.resolve("d").columns()
        pts = [Point(float(i), 1.0) for i in range(10)]
        store.apply_regional(
            "d", pts, SumFunction(10), external_ids=list(range(10))
        )
        new_cols = store.resolve("d").columns()
        assert new_cols is not old_cols
        assert new_cols.n == 10


class TestLiveFacade:
    def test_best_region_falls_back_on_live_columns(self):
        """A coverage score on a live dataset solves its snapshot."""
        from repro.columnar.solvers import columnar_best_region
        from repro.core.naive import NaiveBRS
        from repro.ingest.events import Delete, Insert, MutationBatch
        from repro.ingest.live import live_from_diversity

        live = live_from_diversity(meetup_like(n_objects=40, seed=2))
        live.apply(MutationBatch(batch_id="b0", seq=0, events=(
            Delete(3), Insert(live.point_of(5).x, live.point_of(5).y, ["t"]),
        )))
        points, _, fn = live.snapshot()
        got = columnar_best_region(points, fn, 2500.0, 2500.0)
        assert got.status == "ok"
        assert got.score == NaiveBRS().solve(points, fn, 2500.0, 2500.0).score


class TestBatchValue:
    def _groups(self):
        # Ids repeat across groups but are distinct within each group —
        # the documented CSR contract of batch_value.
        members = np.array([0, 2, 1, 2, 3, 0], dtype=np.int64)
        indptr = np.array([0, 2, 2, 5, 6], dtype=np.int64)
        return members, indptr

    def test_sum_function_batches_match_value(self):
        f = SumFunction(4, [1.0, 2.0, 4.0, 8.0])
        members, indptr = self._groups()
        got = f.batch_value(members, indptr)
        expected = [
            f.value(members[indptr[j]:indptr[j + 1]].tolist())
            for j in range(indptr.size - 1)
        ]
        assert got.tolist() == expected
        assert got[1] == 0.0  # empty group

    def test_coverage_function_batches_match_value(self):
        f = CoverageFunction(
            [{"a", "b"}, {"b"}, set(), {"c"}],
            label_weights={"a": 2.0},
            scale=0.5,
        )
        members, indptr = self._groups()
        got = f.batch_value(members, indptr)
        expected = [
            f.value(members[indptr[j]:indptr[j + 1]].tolist())
            for j in range(indptr.size - 1)
        ]
        assert got.tolist() == pytest.approx(expected)

    def test_default_batch_value_loops_over_value(self):
        class Cardinality(SetFunction):
            def value(self, objects):
                return float(len(set(objects)))

            def marginal(self, obj_id, base):
                return float(obj_id not in set(base))

        members, indptr = self._groups()
        got = Cardinality().batch_value(members, indptr)
        assert got.tolist() == [2.0, 0.0, 3.0, 1.0]


class TestGridCountFastPath:
    def test_large_index_counts_identically(self):
        import random

        rng = random.Random(8)
        pts = [
            Point(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(400)
        ]
        grid = GridIndex(pts, cell_size=4.0)
        assert grid.n_objects >= GridIndex.COUNT_FAST_PATH_MIN
        for _ in range(100):
            x0, y0 = rng.uniform(-5, 45), rng.uniform(-5, 45)
            rect = Rect(x0, x0 + 10, y0, y0 + 10)
            assert grid.count_rect(rect) == len(grid.query_rect(rect))
