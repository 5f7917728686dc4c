"""ColumnarDataset: construction contracts, views, and slab slicing."""

import numpy as np
import pytest

from repro.columnar.dataset import ColumnarDataset, as_columnar
from repro.core.siri import objects_in_region
from repro.geometry.point import Point
from repro.runtime.errors import InvalidQueryError


def _dataset():
    xs = np.array([3.0, 1.0, 2.0, 2.0, 0.5])
    ys = np.array([0.0, 2.5, 1.0, 1.0, 3.0])
    return ColumnarDataset(xs, ys)


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(InvalidQueryError):
            ColumnarDataset(np.empty(0), np.empty(0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidQueryError):
            ColumnarDataset(np.zeros(3), np.zeros(2))

    def test_non_finite_rejected_with_position(self):
        with pytest.raises(InvalidQueryError, match=r"xs\[1\]"):
            ColumnarDataset(np.array([0.0, np.nan]), np.zeros(2))

    def test_negative_weights_rejected(self):
        with pytest.raises(InvalidQueryError, match="monotonicity"):
            ColumnarDataset(np.zeros(2), np.zeros(2), weights=[1.0, -0.5])

    def test_weight_count_mismatch_rejected(self):
        with pytest.raises(InvalidQueryError):
            ColumnarDataset(np.zeros(2), np.zeros(2), weights=[1.0])

    def test_columns_are_frozen(self):
        ds = _dataset()
        with pytest.raises(ValueError):
            ds.xs[0] = 9.0
        with pytest.raises(ValueError):
            ds.order_x[0] = 3

    def test_accepts_plain_lists(self):
        ds = ColumnarDataset([1, 2], [3, 4], weights=[1, 2])
        assert ds.xs.dtype == np.float64
        assert ds.weights is not None and ds.weights.dtype == np.float64


class TestViews:
    def test_sorted_views_are_sorted_and_consistent(self):
        ds = _dataset()
        assert np.all(np.diff(ds.xs_sorted) >= 0)
        assert np.all(np.diff(ds.ys_sorted) >= 0)
        assert np.array_equal(ds.xs[ds.order_x], ds.xs_sorted)
        assert np.array_equal(ds.ys[ds.order_y], ds.ys_sorted)

    def test_order_is_stable_on_ties(self):
        ds = _dataset()
        # xs has a tie at 2.0 on positions 2 and 3: stable sort keeps order.
        tied = [int(i) for i in ds.order_x if ds.xs[i] == 2.0]
        assert tied == [2, 3]

    def test_points_roundtrip(self):
        ds = _dataset()
        pts = ds.points()
        assert pts is ds.points()  # cached
        back = ColumnarDataset.from_points(pts)
        assert np.array_equal(back.xs, ds.xs)
        assert np.array_equal(back.ys, ds.ys)

    def test_tag_csr_roundtrip(self):
        tags = [{"a", "b"}, set(), {"b"}, {"c", "a"}, {"c"}]
        ds = ColumnarDataset(np.arange(5.0), np.arange(5.0), tag_sets=tags)
        assert ds.tag_sets() == [frozenset(t) for t in tags]

    def test_tagless_dataset_refuses_decode(self):
        with pytest.raises(InvalidQueryError, match="no tags"):
            _dataset().tag_sets()

    def test_subset_reindexes(self):
        ds = ColumnarDataset(
            np.arange(5.0), np.arange(5.0) * 2,
            weights=np.arange(5.0) + 1,
            tag_sets=[{i} for i in range(5)],
        )
        sub = ds.subset([4, 1])
        assert list(sub.xs) == [4.0, 1.0]
        assert list(sub.weights) == [5.0, 2.0]
        assert sub.tag_sets() == [frozenset({4}), frozenset({1})]


class TestSlabs:
    def test_slab_is_open_on_both_edges(self):
        ds = _dataset()
        # 1.0 and 2.0 are data coordinates: both must be excluded.
        ids = set(int(i) for i in ds.slab_x(1.0, 2.0))
        assert ids == set()
        ids = set(int(i) for i in ds.slab_x(0.5, 2.5))
        assert ids == {1, 2, 3}

    def test_slab_handles_duplicates(self):
        ds = _dataset()
        assert set(int(i) for i in ds.slab_x(1.5, 2.5)) == {2, 3}

    def test_ids_in_region_matches_object_path(self):
        ds = _dataset()
        pts = ds.points()
        for cx, cy, a, b in [
            (2.0, 1.0, 2.0, 2.0), (1.0, 2.5, 1.0, 3.0), (0.0, 0.0, 1.0, 1.0),
        ]:
            assert ds.ids_in_region(cx, cy, a, b) == objects_in_region(
                pts, Point(cx, cy), a, b
            )

    def test_ids_in_region_matches_object_path_at_a_band_edge(self):
        # cx - b/2 rounds onto the object's x although abs(x - cx) < b/2.
        x, half, cx = 1343.6424411240123, 847.4489935635389, 2191.091434687551
        ds = ColumnarDataset.from_points([Point(x, 0.0)])
        assert objects_in_region(ds.points(), Point(cx, 0.0), 1.0, 2 * half) == [0]
        assert ds.ids_in_region(cx, 0.0, 1.0, 2 * half) == [0]

    def test_count_in_rect_matches_brute_force(self):
        ds = _dataset()
        expected = sum(
            1 for p in ds.points() if 0.5 < p.x < 2.5 and 0.5 < p.y < 3.0
        )
        assert ds.count_in_rect(0.5, 2.5, 0.5, 3.0) == expected

    def test_ids_in_rect_is_the_open_window_ascending(self):
        ds = _dataset()
        expected = [
            i for i, p in enumerate(ds.points())
            if 0.5 < p.x < 3.0 and 0.0 < p.y < 2.5
        ]
        got = ds.ids_in_rect(0.5, 3.0, 0.0, 2.5)
        assert got.tolist() == expected == [2, 3]
        assert ds.count_in_rect(0.5, 3.0, 0.0, 2.5) == len(expected)


class TestAsColumnar:
    def test_passthrough(self):
        ds = _dataset()
        assert as_columnar(ds) is ds

    def test_columns_facade(self):
        ds = _dataset()

        class Facade:
            def columns(self):
                return ds

        assert as_columnar(Facade()) is ds

    def test_point_sequence(self):
        pts = [Point(0.0, 1.0), Point(2.0, 3.0)]
        ds = as_columnar(pts)
        assert list(ds.xs) == [0.0, 2.0]
        assert list(ds.ys) == [1.0, 3.0]


class TestNumpyFloor:
    def test_old_numpy_fails_with_clear_message(self, monkeypatch):
        from repro import columnar

        monkeypatch.setattr(np, "__version__", "1.20.3")
        with pytest.raises(ImportError, match="requires numpy>=1.24"):
            columnar._check_numpy_floor()

    def test_unparsable_dev_version_tolerated(self, monkeypatch):
        from repro import columnar

        monkeypatch.setattr(np, "__version__", "weird.dev0")
        columnar._check_numpy_floor()  # must not raise

    def test_current_numpy_passes(self):
        from repro import columnar

        columnar._check_numpy_floor()
