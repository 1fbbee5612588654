"""Unit tests for counters, gauges, histograms and the registry."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import (
    RELATIVE_ERROR,
    GaugeHandle,
    HistogramHandle,
    MetricsRegistry,
)
from repro.obs.metrics import Histogram
from tests.reference.metrics import SortedHistogram


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
        registry.gauge("docs").set(10)
        registry.gauge("docs").set(7)
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


#: Samples the histograms see: zero, sub-microsecond seconds, and
#: counts up to 10**12 (the buckets reach 2**40).
_SAMPLES = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e-6),
    st.floats(min_value=0.0, max_value=1e12),
)
_BOTTOM = 2.0 ** -30  # below it a percentile is within this, absolute


def _fed(values):
    histogram = Histogram("h")
    for value in values:
        histogram.observe(value)
    return histogram


class TestBucketsAgainstSortedSamples:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_SAMPLES, min_size=1, max_size=300))
    def test_totals_exact_and_percentiles_within_error(self, values):
        histogram = _fed(values)
        oracle = SortedHistogram()
        for value in values:
            oracle.observe(value)
        assert histogram.count == oracle.count
        assert histogram.sum == oracle.sum
        assert histogram.min == oracle.min
        assert histogram.max == oracle.max
        for q in (0, 50, 95, 99, 100):
            exact = oracle.percentile(q)
            read = histogram.percentile(q)
            assert read <= exact
            assert exact - read <= max(RELATIVE_ERROR * exact, _BOTTOM)
        assert histogram.percentile(0) == oracle.min
        assert histogram.percentile(100) == oracle.max

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_SAMPLES, max_size=200), st.lists(_SAMPLES, max_size=200))
    def test_merge_is_bucket_addition(self, left, right):
        merged = _fed(left)
        merged.merge(_fed(right))
        fed = _fed(left + right)
        assert merged._folded()[:-3] == fed._folded()[:-3]
        assert merged.count == fed.count
        assert merged.min == fed.min and merged.max == fed.max
        assert merged.sum == pytest.approx(fed.sum)
        for q in (0, 50, 95, 99, 100):
            assert merged.percentile(q) == fed.percentile(q)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_SAMPLES, max_size=200))
    def test_pickle_round_trip_is_equal(self, values):
        histogram = _fed(values)
        copy = pickle.loads(pickle.dumps(histogram))
        assert copy.__getstate__() == histogram.__getstate__()
        assert copy.summary() == histogram.summary()


class TestRegistry:
    def test_disabled_registry_records_nothing(self):
        with obs.use_registry(MetricsRegistry(enabled=False)) as registry:
            registry.inc("c")
            GaugeHandle("g").set(3)
            HistogramHandle("h").observe(1.0)
        assert registry.names() == []

    def test_timer_records_elapsed(self):
        with obs.use_registry() as registry:
            with HistogramHandle("stage").timer():
                pass
        histogram = registry.histogram("stage")
        assert histogram.count == 1
        assert histogram.sum >= 0.0

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.inc("c", 2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(3.0)
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
        registry.histogram("span.query.execute").observe(0.005)
        registry.inc("engine.searches", 3)
        text = obs.render_stats(registry)
        assert "query.execute" in text
        assert "engine.searches" in text
