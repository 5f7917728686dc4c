"""Tests for SumFunction (the MaxRS special case)."""

import pytest

from repro.functions.weighted_sum import SumFunction


class TestSumFunction:
    def test_default_unit_weights(self):
        fn = SumFunction(4)
        assert fn.value([0, 1, 2]) == 3.0

    def test_explicit_weights(self):
        fn = SumFunction(3, [1.0, 2.0, 4.0])
        assert fn.value([0, 2]) == 5.0

    def test_duplicates_ignored(self):
        fn = SumFunction(2, [3.0, 1.0])
        assert fn.value([0, 0]) == 3.0

    def test_weight_count_mismatch(self):
        with pytest.raises(ValueError):
            SumFunction(3, [1.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            SumFunction(2, [1.0, -0.5])

    def test_marginal(self):
        fn = SumFunction(3, [1.0, 2.0, 4.0])
        assert fn.marginal(2, [0]) == 4.0
        assert fn.marginal(0, [0]) == 0.0

    def test_weights_property_read_only_copy(self):
        fn = SumFunction(2, [1.0, 2.0])
        assert fn.weights == (1.0, 2.0)

    def test_weight_of(self):
        assert SumFunction(2, [1.5, 2.5]).weight_of(1) == 2.5

    def test_weight_array_is_one_read_only_float64_array(self):
        fn = SumFunction(3, [1, 2.5, 4])
        array = fn.weight_array()
        assert array is fn.weight_array()
        assert array.dtype.name == "float64" and array.tolist() == [1.0, 2.5, 4.0]
        with pytest.raises(ValueError):
            array[0] = 9.0


class TestSumEvaluator:
    def test_push_pop(self):
        ev = SumFunction(3, [1.0, 2.0, 4.0]).evaluator()
        ev.push(0)
        ev.push(2)
        assert ev.value == 5.0
        ev.pop(0)
        assert ev.value == 4.0

    def test_multiset(self):
        ev = SumFunction(1, [3.0]).evaluator()
        ev.push(0)
        ev.push(0)
        assert ev.value == 3.0
        ev.pop(0)
        assert ev.value == 3.0
        ev.pop(0)
        assert ev.value == 0.0

    def test_pop_missing_raises(self):
        ev = SumFunction(1).evaluator()
        with pytest.raises(KeyError):
            ev.pop(0)

    def test_reset(self):
        ev = SumFunction(1).evaluator()
        ev.push(0)
        ev.reset()
        assert ev.value == 0.0
