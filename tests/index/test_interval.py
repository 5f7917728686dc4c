"""Tests for 1-D maximum interval stabbing."""

import math
import random

import pytest

from repro.index.interval import max_stabbing


class TestMaxStabbing:
    def test_empty(self):
        assert max_stabbing([]) == (0.0, None)

    def test_single_interval(self):
        value, x = max_stabbing([(0.0, 2.0)])
        assert value == 1.0
        assert 0.0 < x < 2.0

    def test_weighted(self):
        value, x = max_stabbing([(0, 2), (1, 3)], weights=[1.0, 5.0])
        assert value == 6.0
        assert 1.0 < x < 2.0

    def test_disjoint_intervals_pick_heaviest(self):
        value, x = max_stabbing([(0, 1), (5, 6)], weights=[2.0, 3.0])
        assert value == 3.0
        assert 5.0 < x < 6.0

    def test_open_endpoints_do_not_stack(self):
        """(0,1) and (1,2) never share a stabbing point (open intervals)."""
        value, _ = max_stabbing([(0, 1), (1, 2)])
        assert value == 1.0

    def test_one_ulp_gap_reports_a_point_that_stabs_its_weight(self):
        """The two intervals share no float: (0, 1) ends where the other's
        first float, 1.0, begins."""
        intervals = [(0.0, 1.0), (math.nextafter(1.0, 0.0), 2.0)]
        assert max_stabbing(intervals) == (1.0, 0.5)

    def test_one_float_interval(self):
        """(1 - ulp, 1 + ulp) holds the single float 1.0."""
        interval = (math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0))
        assert max_stabbing([interval]) == (1.0, 1.0)

    def test_interval_holding_no_float_stabs_nothing(self):
        assert max_stabbing([(1.0, math.nextafter(1.0, 2.0))]) == (0.0, None)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            max_stabbing([(0, 1)], weights=[1.0, 2.0])

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            max_stabbing([(1.0, 1.0)])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            max_stabbing([(0, 1)], weights=[-1.0])

    def test_returned_x_achieves_value(self):
        rng = random.Random(6)
        for _ in range(50):
            intervals, weights = [], []
            for _ in range(rng.randint(1, 20)):
                lo = rng.uniform(0, 10)
                intervals.append((lo, lo + rng.uniform(0.1, 4)))
                weights.append(rng.uniform(0, 3))
            value, x = max_stabbing(intervals, weights)
            stabbed = sum(
                w for (lo, hi), w in zip(intervals, weights) if lo < x < hi
            )
            assert stabbed == pytest.approx(value)

    def test_matches_bruteforce(self):
        rng = random.Random(7)
        for _ in range(50):
            intervals = []
            for _ in range(rng.randint(1, 15)):
                lo = rng.uniform(0, 10)
                intervals.append((lo, lo + rng.uniform(0.1, 5)))
            value, _ = max_stabbing(intervals)
            # Brute force: probe midpoints between all endpoint pairs.
            coords = sorted({c for iv in intervals for c in iv})
            best = 0
            for lo, hi in zip(coords, coords[1:]):
                mid = (lo + hi) / 2
                best = max(best, sum(1 for l, h in intervals if l < mid < h))
            assert value == best
