"""Exporter tests: Prometheus text exposition and file writing."""

import json
import pathlib

from repro.obs.export import to_prometheus_text, write_metrics
from repro.obs.metrics import MetricsRegistry

DOC_PATH = (
    pathlib.Path(__file__).resolve().parents[2] / "docs" / "observability.md"
)


def _sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("brs_candidates_total", help="candidates scored").inc(7)
    registry.gauge("brs_cover_last_size", help="cover size").set(12)
    hist = registry.histogram("brs_solve_seconds", help="t", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(2.0)
    return registry


class TestPrometheusText:
    def test_counter_and_gauge_samples(self):
        text = to_prometheus_text(_sample_registry())
        assert "# HELP brs_candidates_total candidates scored" in text
        assert "# TYPE brs_candidates_total counter" in text
        assert "brs_candidates_total 7" in text
        assert "# TYPE brs_cover_last_size gauge" in text
        assert "brs_cover_last_size 12" in text

    def test_histogram_buckets_are_cumulative(self):
        text = to_prometheus_text(_sample_registry())
        assert 'brs_solve_seconds_bucket{le="0.1"} 1' in text
        assert 'brs_solve_seconds_bucket{le="1"} 2' in text
        assert 'brs_solve_seconds_bucket{le="+Inf"} 3' in text
        assert "brs_solve_seconds_sum 2.55" in text
        assert "brs_solve_seconds_count 3" in text

    def test_exposition_parses_line_by_line(self):
        """Every non-comment line is `name[{labels}] value`."""
        for line in to_prometheus_text(_sample_registry()).strip().splitlines():
            if line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)  # must parse
            assert name_part[0].isalpha()

    def test_empty_registry_renders_empty(self):
        assert to_prometheus_text(MetricsRegistry()) == ""


class TestHelpEscaping:
    def test_newline_in_help_stays_one_line(self):
        registry = MetricsRegistry()
        registry.counter(
            "brs_escape_total", help="first line\nsecond line"
        ).inc()
        text = to_prometheus_text(registry)
        assert "# HELP brs_escape_total first line\\nsecond line" in text
        # A raw newline in a HELP line would corrupt the exposition: every
        # line must still be a comment or a `name value` sample.
        for line in text.strip().splitlines():
            assert line.startswith("#") or line.startswith("brs_")

    def test_backslash_in_help_is_doubled(self):
        registry = MetricsRegistry()
        registry.gauge("brs_path_depth", help="depth of C:\\data").set(1)
        text = to_prometheus_text(registry)
        assert "# HELP brs_path_depth depth of C:\\\\data" in text

    def test_sample_lines_unaffected(self):
        registry = MetricsRegistry()
        registry.counter("brs_escape_total", help="a\\b\nc").inc(3)
        assert "brs_escape_total 3" in to_prometheus_text(registry)


class TestBucketCumulativity:
    def test_bucket_counts_never_decrease(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "brs_cumulative_seconds", buckets=(0.01, 0.1, 1.0, 10.0)
        )
        for value in (0.005, 0.005, 0.05, 0.5, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        counts = []
        for line in to_prometheus_text(registry).splitlines():
            if line.startswith("brs_cumulative_seconds_bucket"):
                counts.append(int(line.rsplit(" ", 1)[1]))
        assert counts == sorted(counts)
        assert len(counts) == 5  # 4 bounds + +Inf
        assert counts[-1] == hist.count

    def test_inf_bucket_equals_count_with_no_overflow(self):
        registry = MetricsRegistry()
        hist = registry.histogram("brs_inner_seconds", buckets=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(1.5)
        text = to_prometheus_text(registry)
        assert 'brs_inner_seconds_bucket{le="+Inf"} 2' in text
        assert "brs_inner_seconds_count 2" in text


class TestMetricNamesPassLint:
    """Round-trip: every name a live registry exposes passes BRS008.

    The lint rule keeps literal names snake_case and documented in
    docs/observability.md; this asserts the *runtime* names published by
    the SLO tracker and the serve gauges meet the same bar, so the
    catalogue and the exposition can never drift apart.
    """

    def test_slo_and_serve_names_are_documented(self):
        from repro.analysis.rules.metric_rules import (
            _SNAKE_CASE_RE,
            parse_documented_names,
        )
        from repro.obs.slo import SLOTracker, objective_for

        registry = MetricsRegistry()
        tracker = SLOTracker(objective_for("interactive"))
        tracker.record("ok", 0.01)
        tracker.record("rejected", 0.0)
        tracker.publish(registry)
        registry.counter(
            "brs_serve_requests_total", help="requests accepted"
        ).inc()
        registry.gauge("brs_serve_inflight", help="open queries").set(0.0)
        registry.gauge("brs_tenant_open", help="open queries").set(0.0)
        documented = parse_documented_names(DOC_PATH.read_text())
        for name in registry.metrics():
            assert _SNAKE_CASE_RE.match(name), name
            assert name in documented, f"{name} missing from observability.md"

    def test_exposition_names_derive_from_registry_names(self):
        """Sample names are the registry name plus a histogram suffix."""
        registry = _sample_registry()
        allowed = set(registry.metrics())
        suffixes = ("_bucket", "_sum", "_count")
        for line in to_prometheus_text(registry).strip().splitlines():
            if line.startswith("#"):
                continue
            name = line.split("{", 1)[0].split(" ", 1)[0]
            base_ok = name in allowed or any(
                name.endswith(sfx) and name[: -len(sfx)] in allowed
                for sfx in suffixes
            )
            assert base_ok, name


class TestWriteMetrics:
    def test_prom_extension_gets_exposition(self, tmp_path):
        path = tmp_path / "metrics.prom"
        write_metrics(_sample_registry(), path)
        assert "# TYPE brs_candidates_total counter" in path.read_text()

    def test_json_extension_gets_snapshot(self, tmp_path):
        path = tmp_path / "metrics.json"
        write_metrics(_sample_registry(), path)
        data = json.loads(path.read_text())
        assert data["brs_candidates_total"] == {"type": "counter", "value": 7}
        assert data["brs_solve_seconds"]["count"] == 3
