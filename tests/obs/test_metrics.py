"""Unit tests for counters, gauges, histograms and the registry."""

import pytest

from repro import obs
from repro.obs import MetricsRegistry
from repro.obs.metrics import Histogram


class TestCounterGauge:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        registry.inc("hits")
        registry.inc("hits", 4)
        assert registry.counter("hits").value == 5

    def test_counter_rejects_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("hits").inc(-1)

    def test_gauge_overwrites(self):
        registry = MetricsRegistry()
        registry.set_gauge("docs", 10)
        registry.set_gauge("docs", 7)
        assert registry.gauge("docs").value == 7

    def test_same_name_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("h") is registry.histogram("h")


class TestHistogram:
    def test_exact_summary_stats(self):
        histogram = Histogram("h")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["sum"] == 10.0
        assert summary["mean"] == 2.5
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0

    def test_percentiles_on_known_distribution(self):
        histogram = Histogram("h")
        for value in range(1, 101):  # 1..100
            histogram.observe(float(value))
        assert histogram.percentile(50) == pytest.approx(50, abs=1)
        assert histogram.percentile(95) == pytest.approx(95, abs=1)
        assert histogram.percentile(99) == pytest.approx(99, abs=1)
        assert histogram.percentile(0) == 1.0
        assert histogram.percentile(100) == 100.0

    def test_percentile_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(101)

    def test_empty_histogram(self):
        summary = Histogram("h").summary()
        assert summary["count"] == 0
        assert summary["p50"] == 0.0

    def test_decimation_bounds_memory_keeps_exact_totals(self):
        histogram = Histogram("h", max_samples=64)
        n = 1000
        for value in range(n):
            histogram.observe(float(value))
        assert histogram.count == n
        assert histogram.sum == float(sum(range(n)))
        assert histogram.min == 0.0
        assert histogram.max == float(n - 1)
        assert len(histogram._samples) <= 64
        # Percentiles stay representative after decimation.
        assert histogram.percentile(50) == pytest.approx(n / 2, rel=0.25)


class TestRegistry:
    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.inc("c")
        registry.set_gauge("g", 3)
        registry.observe("h", 1.0)
        assert registry.names() == []

    def test_timer_records_elapsed(self):
        registry = MetricsRegistry()
        with registry.timer("stage"):
            pass
        histogram = registry.histogram("stage")
        assert histogram.count == 1
        assert histogram.sum >= 0.0

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.inc("c", 2)
        registry.set_gauge("g", 1.5)
        registry.observe("h", 3.0)
        snapshot = registry.snapshot()
        assert snapshot["c"] == {"type": "counter", "value": 2}
        assert snapshot["g"] == {"type": "gauge", "value": 1.5}
        assert snapshot["h"]["type"] == "histogram"
        assert snapshot["h"]["count"] == 1


class TestGlobalDefault:
    def test_use_registry_swaps_and_restores(self):
        before = obs.get_registry()
        with obs.use_registry() as registry:
            assert obs.get_registry() is registry
            assert registry is not before
            obs.get_registry().inc("inside")
            assert registry.counter("inside").value == 1
        assert obs.get_registry() is before

    def test_set_registry_none_installs_fresh(self):
        with obs.use_registry() as first:
            second = obs.set_registry(None)
            assert second is not first
            assert obs.get_registry() is second

    def test_set_enabled_toggles_defaults(self):
        with obs.use_registry() as registry:
            obs.set_enabled(False)
            try:
                registry.inc("quiet")
                assert registry.names() == []
            finally:
                obs.set_enabled(True)

    def test_render_stats_mentions_metrics(self):
        registry = MetricsRegistry()
        registry.observe("span.query.execute", 0.005)
        registry.inc("engine.searches", 3)
        text = obs.render_stats(registry)
        assert "query.execute" in text
        assert "engine.searches" in text
