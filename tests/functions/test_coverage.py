"""Tests for CoverageFunction and its incremental evaluator."""

import random

import pytest

from repro.functions.coverage import CoverageFunction
from repro.functions.validate import check_submodular_monotone


class TestCoverageValue:
    def test_empty_set(self):
        fn = CoverageFunction([{"a"}, {"b"}])
        assert fn.value(()) == 0.0

    def test_union_semantics(self):
        fn = CoverageFunction([{"a", "b"}, {"b", "c"}, {"c"}])
        assert fn.value([0]) == 2.0
        assert fn.value([0, 1]) == 3.0
        assert fn.value([0, 1, 2]) == 3.0

    def test_duplicates_ignored(self):
        fn = CoverageFunction([{"a"}, {"b"}])
        assert fn.value([0, 0, 0]) == 1.0

    def test_weighted_labels(self):
        fn = CoverageFunction([{"a", "b"}], label_weights={"a": 3.0})
        assert fn.value([0]) == 4.0  # 3 (a) + default 1 (b)

    def test_scale(self):
        fn = CoverageFunction([{"a"}, {"b"}], scale=2.5)
        assert fn.value([0, 1]) == 5.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            CoverageFunction([{"a"}], label_weights={"a": -1.0})

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            CoverageFunction([{"a"}], scale=-1.0)

    def test_marginal(self):
        fn = CoverageFunction([{"a", "b"}, {"b", "c"}])
        assert fn.marginal(1, [0]) == 1.0
        assert fn.marginal(1, []) == 2.0

    def test_is_submodular_monotone(self):
        rng = random.Random(5)
        labels = [set(rng.sample("abcdefghij", rng.randint(1, 4))) for _ in range(12)]
        check_submodular_monotone(CoverageFunction(labels), range(12), trials=200)

    def test_empty_label_set_contributes_nothing(self):
        fn = CoverageFunction([set(), {"a"}])
        assert fn.value([0]) == 0.0
        assert fn.value([0, 1]) == 1.0


class TestCoverageEvaluator:
    def test_matches_batch_value_under_random_ops(self):
        rng = random.Random(9)
        labels = [frozenset(rng.sample(range(20), rng.randint(1, 5))) for _ in range(15)]
        fn = CoverageFunction(labels, label_weights={3: 2.0, 7: 0.5})
        ev = fn.evaluator()
        active = []
        for _ in range(300):
            if active and rng.random() < 0.45:
                victim = active.pop(rng.randrange(len(active)))
                ev.pop(victim)
            else:
                obj = rng.randrange(15)
                active.append(obj)
                ev.push(obj)
            assert ev.value == pytest.approx(fn.value(active))

    def test_multiset_pop_order_independent(self):
        fn = CoverageFunction([{"a"}, {"a", "b"}])
        ev = fn.evaluator()
        ev.push(0)
        ev.push(1)
        ev.push(0)
        ev.pop(0)
        assert ev.value == 2.0  # 'a' still covered twice over
        ev.pop(1)
        assert ev.value == 1.0
        ev.pop(0)
        assert ev.value == 0.0

    def test_pop_missing_raises(self):
        ev = CoverageFunction([{"a"}]).evaluator()
        with pytest.raises(KeyError):
            ev.pop(0)

    def test_reset(self):
        ev = CoverageFunction([{"a"}]).evaluator()
        ev.push(0)
        ev.reset()
        assert ev.value == 0.0


class TestMerged:
    def test_groups_cover_union_of_labels(self):
        fn = CoverageFunction([{"a"}, {"b"}, {"c"}])
        merged = fn.merged([[0, 1], [2]])
        assert merged.value([0]) == 2.0
        assert merged.value([1]) == 1.0
        assert merged.value([0, 1]) == 3.0

    def test_empty_group(self):
        merged = CoverageFunction([{"a"}]).merged([[], [0]])
        assert merged.value([0]) == 0.0
        assert merged.value([1]) == 1.0

    def test_preserves_weights_and_scale(self):
        fn = CoverageFunction([{"a"}, {"b"}], label_weights={"a": 5.0}, scale=2.0)
        merged = fn.merged([[0, 1]])
        assert merged.value([0]) == 12.0  # 2 * (5 + 1)

    def test_csr_is_derived_from_the_parents(self):
        # The merged function reuses its parent's code space and weights;
        # every group's codes are its members' label union, once each.
        rng = random.Random(3)
        labels = [
            {rng.randrange(0, 9) for _ in range(rng.randint(0, 4))}
            for _ in range(30)
        ]
        weights = {label: rng.randrange(1, 16) / 4.0 for label in range(9)}
        fn = CoverageFunction(labels, label_weights=weights, scale=1.5)
        groups = [
            rng.sample(range(30), rng.randint(0, 5)) for _ in range(12)
        ] + [[], [7, 7]]
        merged = fn.merged(groups)
        codes, indptr, code_weights = merged._code_csr()
        parent_codes, parent_indptr, parent_weights = fn._code_csr()
        assert code_weights is parent_weights
        vocab = {
            int(parent_codes[k]): label
            for i in range(len(labels))
            for k, label in zip(
                range(parent_indptr[i], parent_indptr[i + 1]), fn.labels_of(i)
            )
        }
        for j, group in enumerate(groups):
            row = codes[indptr[j]:indptr[j + 1]].tolist()
            assert len(row) == len(set(row))
            assert {vocab[code] for code in row} == set().union(
                *(labels[i] for i in group)
            )
        ids = list(range(len(groups) - 1))
        assert list(merged.batch_value(ids, [0, len(ids)])) == [
            CoverageFunction(
                [set().union(*(labels[i] for g in groups[:-1] for i in g))],
                label_weights=weights, scale=1.5,
            ).value([0])
        ]
