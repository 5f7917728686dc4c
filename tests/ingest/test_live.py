"""LiveDataset tests: apply, atomicity, snapshots, space.

The central differential: after any event sequence, what a reader sees
(alive ids, the snapshot's points, ids and score function) must equal
what a LiveDataset rebuilt from scratch over the same final history
shows.
"""

import random

import pytest

from repro.geometry.point import Point
from repro.geometry.rect import BBox, Rect
from repro.ingest.events import Delete, Insert, MutationBatch
from repro.ingest.live import LiveDataset, coverage_fn_builder, live_from_diversity
from repro.ingest.selfcheck import check_snapshot
from repro.runtime.errors import IngestError

SPACE = Rect(0.0, 10.0, 0.0, 10.0)


def _base(n=20, seed=7):
    rng = random.Random(seed)
    points = [Point(rng.uniform(1, 9), rng.uniform(1, 9)) for _ in range(n)]
    payloads = [sorted(rng.sample(range(12), 2)) for _ in range(n)]
    return points, payloads


def _live(n=20, seed=7):
    points, payloads = _base(n, seed)
    return LiveDataset(points, payloads, space=SPACE)


def _batch(seq, events):
    return MutationBatch(batch_id=f"b{seq}", seq=seq, events=tuple(events))


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(IngestError):
            LiveDataset([])

    def test_rejects_mismatched_payloads(self):
        with pytest.raises(IngestError):
            LiveDataset([Point(1, 1)], payloads=[[1], [2]])

    def test_wraps_diversity_dataset(self):
        from repro.datasets.registry import yelp_like

        ds = yelp_like(n_objects=60, seed=3)
        live = live_from_diversity(ds)
        assert live.n_alive == len(ds.points)
        _, _, fn = live.snapshot()
        assert fn.value(frozenset(range(live.n_alive))) == ds.score_function().value(
            frozenset(range(len(ds.points)))
        )

    def test_rejects_non_diversity_dataset(self):
        with pytest.raises(IngestError):
            live_from_diversity(object())

    def test_rejects_base_point_outside_explicit_space(self):
        with pytest.raises(IngestError, match="outside the space"):
            LiveDataset([Point(1, 1), Point(11, 5)], space=SPACE)


class TestApply:
    def test_insert_assigns_next_stable_id(self):
        live = _live(n=5)
        result = live.apply(_batch(0, [Insert(2.0, 2.0), Insert(3.0, 3.0)]))
        assert result.inserted_ids == (5, 6)
        assert live.n_alive == 7
        assert live.is_alive(5) and live.is_alive(6)

    def test_delete_tombstones_but_never_reuses_ids(self):
        live = _live(n=5)
        live.apply(_batch(0, [Delete(2)]))
        assert not live.is_alive(2)
        result = live.apply(_batch(1, [Insert(4.0, 4.0)]))
        assert result.inserted_ids == (5,)  # id 2 stays retired
        assert live.point_of(2) is not None  # history kept

    def test_touched_box_covers_all_mutated_points(self):
        live = _live(n=5)
        result = live.apply(
            _batch(0, [Insert(1.5, 8.0), Insert(6.0, 2.0), Delete(0)])
        )
        box = result.touched
        p0 = live.point_of(0)
        for x, y in [(1.5, 8.0), (6.0, 2.0), (p0.x, p0.y)]:
            assert box.x_min <= x <= box.x_max
            assert box.y_min <= y <= box.y_max

    def test_rejects_replayed_seq(self):
        live = _live()
        live.apply(_batch(3, [Insert(2.0, 2.0)]))
        with pytest.raises(IngestError):
            live.apply(_batch(3, [Insert(2.5, 2.5)]))
        with pytest.raises(IngestError):
            live.apply(_batch(1, [Insert(2.5, 2.5)]))

    def test_same_batch_insert_then_delete(self):
        live = _live(n=5)
        live.apply(_batch(0, [Insert(2.0, 2.0), Delete(5)]))
        assert not live.is_alive(5)
        assert live.n_alive == 5


class TestAtomicity:
    def test_expected_failure_changes_nothing(self):
        live = _live(n=5)
        before = (live.n_total, live.alive_ids())
        with pytest.raises(IngestError):
            live.apply(_batch(0, [Insert(2.0, 2.0), Delete(99)]))
        assert (live.n_total, live.alive_ids()) == before
        assert live.last_applied_seq == -1
        assert not check_snapshot(live)

    def test_cannot_empty_the_dataset(self):
        live = LiveDataset([Point(1, 1), Point(2, 2)], space=SPACE)
        with pytest.raises(IngestError):
            live.apply(_batch(0, [Delete(0), Delete(1)]))
        assert live.n_alive == 2

    def test_unexpected_midbatch_failure_rolls_back(self, monkeypatch):
        import repro.ingest.live as live_module

        live = _live(n=6)
        live.apply(_batch(0, [Delete(1)]))
        before_alive = live.alive_ids()
        before_snapshot = live.snapshot()[:2]

        calls = {"n": 0}

        def exploding_point(x, y):
            calls["n"] += 1
            if calls["n"] == 2:  # second insert of the batch dies mid-apply
                raise RuntimeError("injected fault")
            return Point(x, y)

        monkeypatch.setattr(live_module, "Point", exploding_point)
        with pytest.raises(IngestError, match="rolled back"):
            live.apply(
                _batch(1, [Insert(3.0, 3.0), Delete(3), Insert(4.0, 4.0)])
            )
        monkeypatch.undo()

        assert calls["n"] == 2
        assert live.alive_ids() == before_alive
        assert live.n_total == 6 and live.n_alive == 5
        assert live.snapshot()[:2] == before_snapshot
        assert not check_snapshot(live)
        # The dataset still works after the rollback: the retry assigns
        # the same ids the failed attempt would have.
        result = live.apply(_batch(1, [Insert(3.0, 3.0), Insert(4.0, 4.0)]))
        assert result.inserted_ids == (6, 7)
        assert not check_snapshot(live)


class TestIncrementalDifferential:
    @pytest.mark.parametrize("seed", range(6))
    def test_incremental_matches_rebuild_and_brute_force(self, seed):
        rng = random.Random(seed * 997 + 1)
        live = _live(n=15, seed=seed)
        next_id = 15
        alive = set(range(15))
        for seq in range(12):
            events = []
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.6 or len(alive) <= 2:
                    events.append(
                        Insert(
                            rng.uniform(1, 9), rng.uniform(1, 9),
                            payload=sorted(rng.sample(range(12), 2)),
                        )
                    )
                    alive.add(next_id)
                    next_id += 1
                else:
                    victim = rng.choice(sorted(alive))
                    events.append(Delete(victim))
                    alive.discard(victim)
            live.apply(_batch(seq, events))

        # Reference: a LiveDataset constructed directly over the final
        # history, its tombstones deleted in one batch.
        rebuilt = LiveDataset(
            [live.point_of(i) for i in range(live.n_total)],
            [live.payload_of(i) for i in range(live.n_total)],
            space=SPACE,
        )
        dead = [i for i in range(live.n_total) if not live.is_alive(i)]
        if dead:
            rebuilt.apply(_batch(0, [Delete(i) for i in dead]))

        assert live.alive_ids() == rebuilt.alive_ids() == sorted(alive)
        points, ids, fn = live.snapshot()
        ref_points, ref_ids, ref_fn = rebuilt.snapshot()
        assert (points, ids) == (ref_points, ref_ids)
        assert points == [live.point_of(i) for i in sorted(alive)]
        assert not check_snapshot(live) and not check_snapshot(rebuilt)
        for _ in range(8):
            subset = rng.sample(range(len(ids)), rng.randint(1, len(ids)))
            assert fn.value(subset) == ref_fn.value(subset)


class TestSnapshot:
    def test_snapshot_compacts_and_maps_external_ids(self):
        live = _live(n=5)
        live.apply(_batch(0, [Delete(1), Insert(7.0, 7.0, payload=[9])]))
        points, ids, fn = live.snapshot()
        assert ids == [0, 2, 3, 4, 5]
        assert len(points) == 5
        assert points[-1] == Point(7.0, 7.0)
        # The function is built over compacted payloads: singleton {9} at
        # the last compacted position.
        assert fn.value(frozenset([4])) == 1.0

    def test_snapshot_is_isolated_from_later_mutations(self):
        live = _live(n=5)
        points, ids, _ = live.snapshot()
        live.apply(_batch(0, [Delete(0)]))
        assert len(points) == 5 and ids[0] == 0

    def test_space_is_the_base_space_while_it_holds_the_alive_points(self):
        live = _live(n=5)
        live.apply(_batch(0, [Insert(10.0, 0.0)]))  # on the closed edge
        assert live.space == SPACE

    def test_space_grows_like_the_store_serves_it(self):
        from repro.functions.weighted_sum import SumFunction
        from repro.serve.store import DatasetStore

        live = _live(n=5)
        store = DatasetStore()
        points, _, _ = live.snapshot()
        store.add_points("d", points, SumFunction(5), space=SPACE)
        live.apply(_batch(0, [Insert(50.0, 50.0)]))
        points, ids, fn = live.snapshot()
        served = store.apply_regional("d", points, fn, ids)
        assert live.space == served.space == Rect(0.0, 51.0, 0.0, 51.0)

    def test_unknown_id_lookups_raise(self):
        live = _live(n=3)
        with pytest.raises(IngestError):
            live.point_of(99)
        with pytest.raises(IngestError):
            live.payload_of(-1)


class TestBBox:
    def test_degenerate_boxes_are_allowed(self):
        box = BBox(1.0, 1.0, 2.0, 2.0)
        assert box.touches_rect(Rect(0.0, 1.0, 1.0, 2.0))  # boundary counts

    def test_rejects_inverted_boxes(self):
        with pytest.raises(ValueError):
            BBox(2.0, 1.0, 0.0, 0.0)

    def test_union_and_of_points(self):
        box = BBox.of_points([Point(1, 5), Point(3, 2)])
        assert box.as_tuple() == (1.0, 3.0, 2.0, 5.0)
        assert box.union(BBox(0.0, 0.5, 7.0, 8.0)).as_tuple() == (0.0, 3.0, 2.0, 8.0)

    def test_disjoint_rect_does_not_touch(self):
        assert not BBox(0.0, 1.0, 0.0, 1.0).touches_rect(Rect(2.0, 3.0, 2.0, 3.0))
