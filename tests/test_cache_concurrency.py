"""Multi-threaded stress tests for LruCache and the metric primitives.

Pins down the concurrency fixes shipped with the serving PR: counter
increments must not lose updates under contention, and the
``<name>.size`` gauge must be written while the cache lock is held so
it can never drift from ``len(cache)``.
"""

import threading

import pytest

from repro import obs
from repro.cache import LruCache
from repro.obs.metrics import Counter, Histogram


@pytest.fixture
def registry():
    with obs.use_registry() as fresh:
        yield fresh


def _run_all(workers):
    threads = [threading.Thread(target=worker) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestMetricPrimitives:
    def test_counter_increments_are_not_lost(self, registry):
        counter = Counter("storm")
        n, per_thread = 8, 2000

        def worker():
            for _ in range(per_thread):
                counter.inc()

        _run_all([worker] * n)
        assert counter.value == n * per_thread

    def test_histogram_totals_stay_exact(self, registry):
        histogram = Histogram("storm")
        n, per_thread = 8, 500

        def worker(offset):
            for i in range(per_thread):
                histogram.observe(float(offset * per_thread + i))

        _run_all([lambda o=o: worker(o) for o in range(n)])
        total = n * per_thread
        assert histogram.count == total
        assert histogram.sum == sum(range(total))
        assert histogram.min == 0.0
        assert histogram.max == float(total - 1)
        # Percentiles walk the per-thread buckets by rank; a torn
        # fold would break monotonicity.
        assert (
            histogram.percentile(10)
            <= histogram.percentile(50)
            <= histogram.percentile(99)
        )


class TestLruCacheConcurrency:
    def test_size_gauge_matches_len_after_concurrent_churn(
        self, registry
    ):
        cache = LruCache("c", max_entries=32)
        n, per_thread = 8, 500

        def worker(offset):
            for i in range(per_thread):
                key = offset * per_thread + i
                cache.put(key, key)
                cache.get(key)
                cache.get(key - 7)  # mix hits and misses

        _run_all([lambda o=o: worker(o) for o in range(n)])
        assert len(cache) <= 32
        # The gauge was last written under the cache lock, so after
        # quiescence it must agree exactly with the real size.
        assert registry.gauges["c.size"].value == len(cache)
        # Keys are globally unique, so every insert either lives in
        # the cache now or was evicted — and evictions were counted
        # under the same lock as the pops.
        stored = n * per_thread
        assert (
            registry.counters["c.evictions"].value
            == stored - len(cache)
        )
        reads = 2 * stored
        assert (
            registry.counters["c.hits"].value
            + registry.counters["c.misses"].value
            == reads
        )
