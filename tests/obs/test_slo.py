"""SLO tracker tests: percentiles, burn rate, shedding, verdicts."""

import threading

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    DEFAULT_OBJECTIVES,
    OUTCOMES,
    SLObjective,
    SLOTracker,
    objective_for,
    percentile,
)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_sample(self):
        assert percentile([3.0], 0.99) == 3.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5

    def test_extremes(self):
        samples = [5.0, 1.0, 3.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 5.0

    def test_order_invariant(self):
        assert percentile([9.0, 1.0, 5.0], 0.5) == percentile(
            [1.0, 5.0, 9.0], 0.5
        )


class TestSLOTracker:
    def _objective(self, **kw):
        base = dict(
            tier="test", p50_seconds=0.1, p99_seconds=1.0,
            availability=0.9, max_shed_ratio=0.2,
        )
        base.update(kw)
        return SLObjective(**base)

    def test_empty_window_is_healthy(self):
        snap = SLOTracker(self._objective()).snapshot()
        assert snap["healthy"]
        assert snap["window_requests"] == 0
        assert snap["error_budget_burn"] == 0.0

    def test_latency_percentiles_only_cover_served(self):
        tracker = SLOTracker(self._objective())
        tracker.record("ok", 0.01)
        tracker.record("degraded", 0.03)
        tracker.record("error", 99.0)  # error latency must not pollute p99
        tracker.record("rejected", 0.0)
        snap = tracker.snapshot()
        assert snap["p99_seconds"] < 0.05

    def test_p50_breach_flips_verdict(self):
        tracker = SLOTracker(self._objective(p50_seconds=0.01))
        for _ in range(10):
            tracker.record("ok", 0.5)
        snap = tracker.snapshot()
        assert not snap["verdicts"]["p50_ok"]
        assert not snap["healthy"]

    def test_error_budget_burn(self):
        # availability 0.9 -> 10% budget; 20% errors -> burn 2.0
        tracker = SLOTracker(self._objective(availability=0.9))
        for _ in range(8):
            tracker.record("ok", 0.01)
        for _ in range(2):
            tracker.record("error", 0.01)
        snap = tracker.snapshot()
        assert abs(snap["error_budget_burn"] - 2.0) < 1e-9
        assert not snap["verdicts"]["availability_ok"]

    def test_zero_budget_burn_is_window_sized_and_json_safe(self):
        import json

        tracker = SLOTracker(self._objective(availability=1.0))
        tracker.record("ok", 0.01)
        tracker.record("error", 0.01)
        snap = tracker.snapshot()
        assert snap["error_budget_burn"] == 2.0  # total requests, not inf
        json.dumps(snap)  # must serialize

    def test_rejections_count_as_shed_not_unavailability(self):
        tracker = SLOTracker(self._objective(max_shed_ratio=0.5))
        for _ in range(3):
            tracker.record("ok", 0.01)
        tracker.record("rejected", 0.0)
        snap = tracker.snapshot()
        assert snap["verdicts"]["availability_ok"]
        assert abs(snap["shed_ratio"] - 0.25) < 1e-9
        assert snap["verdicts"]["shed_ok"]

    def test_shed_ceiling_breach(self):
        tracker = SLOTracker(self._objective(max_shed_ratio=0.0))
        tracker.record("ok", 0.01)
        tracker.record("rejected", 0.0)
        assert not tracker.snapshot()["verdicts"]["shed_ok"]

    def test_unknown_outcome_treated_as_error(self):
        tracker = SLOTracker(self._objective())
        tracker.record("exploded", 0.01)
        assert tracker.snapshot()["counts"]["error"] == 1

    def test_window_slides(self):
        tracker = SLOTracker(self._objective(), window=4)
        for _ in range(4):
            tracker.record("error", 0.01)
        for _ in range(4):
            tracker.record("ok", 0.01)
        snap = tracker.snapshot()
        assert snap["counts"]["error"] == 0
        assert snap["healthy"]

    def test_publish_sets_gauges(self):
        registry = MetricsRegistry()
        tracker = SLOTracker(self._objective())
        tracker.record("ok", 0.02)
        snap = tracker.publish(registry)
        metrics = registry.metrics()
        assert metrics["brs_slo_p50_seconds"].value == snap["p50_seconds"]
        assert metrics["brs_slo_healthy"].value == 1.0
        assert metrics["brs_slo_window_requests"].value == 1.0

    def test_concurrent_records(self):
        tracker = SLOTracker(self._objective(), window=4096)

        def work():
            for _ in range(500):
                tracker.record("ok", 0.01)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tracker.snapshot()["window_requests"] == 2000


class TestObjectiveResolution:
    def test_known_tiers(self):
        assert objective_for("batch") is DEFAULT_OBJECTIVES["batch"]
        assert (
            objective_for("interactive") is DEFAULT_OBJECTIVES["interactive"]
        )

    def test_unknown_and_none_default_to_interactive(self):
        assert objective_for("nope") is DEFAULT_OBJECTIVES["interactive"]
        assert objective_for(None) is DEFAULT_OBJECTIVES["interactive"]


class TestWindowCounts:
    """Counts and latencies kept on record follow the window's evictions."""

    def test_snapshot_equals_a_recount_of_the_window(self):
        import random

        rng = random.Random(20)
        outcomes = ["ok", "ok", "degraded", "error", "rejected", "bogus"]
        for _ in range(200):
            window = rng.choice([1, 2, 7, 100])
            tracker = SLOTracker(DEFAULT_OBJECTIVES["interactive"], window=window)
            recorded = []
            for _ in range(rng.randint(1, 3 * window + 5)):
                outcome, seconds = rng.choice(outcomes), rng.random()
                tracker.record(outcome, seconds)
                recorded.append(
                    ("error" if outcome == "bogus" else outcome, seconds)
                )
            kept = recorded[-window:]
            snap = tracker.snapshot()
            assert snap["counts"] == {
                o: sum(1 for k, _ in kept if k == o) for o in OUTCOMES
            }
            served = [s for k, s in kept if k in ("ok", "degraded")]
            assert snap["p99_seconds"] == percentile(served, 0.99)
