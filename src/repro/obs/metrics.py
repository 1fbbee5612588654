"""Dependency-free metrics: counters, gauges, histograms, a registry.

The EIL pipelines emit three kinds of telemetry:

* :class:`Counter` — monotonically increasing totals (queries executed,
  postings touched, rows scanned).
* :class:`Gauge` — last-written values (index size, deals populated).
* :class:`Histogram` — distributions with p50/p95/p99 summaries (stage
  latencies, candidate-set sizes).

A :class:`MetricsRegistry` owns a namespace of metrics and is the unit
of injection: components resolve a registry at *call time* (the global
default from :func:`repro.obs.get_registry`, unless one was injected),
so a test or benchmark can swap in a fresh or disabled registry without
rebuilding the system.  A disabled registry turns every record call
into an immediate return, which keeps instrumentation overhead on hot
paths bounded.
"""

from __future__ import annotations

import threading
from bisect import insort
from typing import Any, Dict, List, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "Timer"]


class Counter:
    """A monotonically increasing count.

    Increments are lock-protected: the serving layer counts admissions
    and rejections from many threads at once, and a bare ``value +=
    amount`` is a read-modify-write that loses updates under
    contention.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        """Exportable representation."""
        return {"type": "counter", "value": self.value}

    def __getstate__(self) -> Dict[str, Any]:
        # Counters cross process boundaries inside worker registries;
        # the lock is process-local state.
        return {"name": self.name, "value": self.value}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.name = state["name"]
        self.value = state["value"]
        self._lock = threading.Lock()


class Gauge:
    """A last-written value (may go up or down)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value

    def to_dict(self) -> Dict[str, Any]:
        """Exportable representation."""
        return {"type": "gauge", "value": self.value}


class Histogram:
    """A sample distribution with exact totals and rank percentiles.

    Samples are kept sorted for percentile queries.  Memory is bounded:
    past ``max_samples`` the buffer is decimated (every other sample
    dropped) and further samples are recorded with a matching stride,
    so percentiles stay representative while ``count``/``sum``/``min``/
    ``max`` remain exact.
    """

    __slots__ = ("name", "count", "sum", "min", "max",
                 "_samples", "_stride", "_pending", "max_samples",
                 "_lock")

    def __init__(self, name: str, max_samples: int = 8192) -> None:
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []
        self._stride = 1
        self._pending = 0
        self.max_samples = max_samples
        # Serving latencies are observed from many request threads at
        # once; an unguarded insort would corrupt the sorted buffer.
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one sample (thread-safe)."""
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            self._pending += 1
            if self._pending >= self._stride:
                self._pending = 0
                insort(self._samples, value)
                if len(self._samples) > self.max_samples:
                    self._samples = self._samples[::2]
                    self._stride *= 2

    @property
    def mean(self) -> float:
        """Arithmetic mean of all samples (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the retained samples.

        Args:
            q: Percentile in [0, 100].
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile {q} out of [0, 100]")
        with self._lock:
            if not self._samples:
                return 0.0
            rank = max(0, min(len(self._samples) - 1,
                              round(q / 100.0 * (len(self._samples) - 1))))
            return self._samples[rank]

    def summary(self) -> Dict[str, float]:
        """count/sum/mean/min/max plus p50/p95/p99."""
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def to_dict(self) -> Dict[str, Any]:
        """Exportable representation."""
        return {"type": "histogram", **self.summary()}

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's samples into this one.

        ``count``/``sum``/``min``/``max`` stay exact; the retained
        sample buffers are concatenated and re-decimated, so
        percentiles remain representative (the same approximation the
        buffer already makes past ``max_samples``).  Used to merge
        worker-process registries into the parent's after a
        process-sharded offline build.
        """
        with self._lock:
            self.count += other.count
            self.sum += other.sum
            if other.min is not None:
                self.min = (other.min if self.min is None
                            else min(self.min, other.min))
            if other.max is not None:
                self.max = (other.max if self.max is None
                            else max(self.max, other.max))
            if other._samples:
                merged = sorted(self._samples + other._samples)
                self._stride = max(self._stride, other._stride)
                while len(merged) > self.max_samples:
                    merged = merged[::2]
                    self._stride *= 2
                self._samples = merged
                self._pending = 0

    def __getstate__(self) -> Dict[str, Any]:
        # Histograms cross process boundaries inside worker registries;
        # the lock is process-local state.
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot != "_lock"
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._lock = threading.Lock()


class Timer:
    """Context manager recording elapsed seconds into a histogram."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._start: Optional[float] = None

    def __enter__(self) -> "Timer":
        from time import perf_counter

        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        from time import perf_counter

        if self._start is not None:
            self._registry.observe(self._name, perf_counter() - self._start)


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Args:
        enabled: When False every record call is a no-op — the registry
            for measuring instrumentation overhead, and the cheap path
            for deployments that do not scrape metrics.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- metric accessors (create on first use) ---------------------------

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(name, Counter(name))
        return counter

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        gauge = self._gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(name, Gauge(name))
        return gauge

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``, created on first use."""
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(
                    name, Histogram(name)
                )
        return histogram

    # -- recording shortcuts ----------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` (no-op when disabled)."""
        if not self.enabled:
            return
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` (no-op when disabled)."""
        if not self.enabled:
            return
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Record a histogram sample (no-op when disabled)."""
        if not self.enabled:
            return
        self.histogram(name).observe(value)

    def timer(self, name: str) -> Timer:
        """Context manager timing a block into histogram ``name``."""
        return Timer(self, name)

    # -- merging / serialization -------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's metrics into this one.

        Counters add, gauges take the other registry's (more recent)
        value, histograms merge sample-wise.  The process-sharded CPE
        uses this to land worker-side telemetry (parse timers,
        per-annotator costs, injected-fault counters) in the parent
        registry, so ``repro stats`` keeps offline coverage under
        process execution.
        """
        if not self.enabled:
            return
        for name, counter in other._counters.items():
            if counter.value:
                self.counter(name).inc(counter.value)
        for name, gauge in other._gauges.items():
            self.gauge(name).set(gauge.value)
        for name, histogram in other._histograms.items():
            self.histogram(name).merge(histogram)

    def __getstate__(self) -> Dict[str, Any]:
        # Registries cross process boundaries when shard workers ship
        # their telemetry home; the lock is process-local state.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- introspection ------------------------------------------------------

    @property
    def counters(self) -> Dict[str, Counter]:
        """All counters by name (copy)."""
        return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, Gauge]:
        """All gauges by name (copy)."""
        return dict(self._gauges)

    @property
    def histograms(self) -> Dict[str, Histogram]:
        """All histograms by name (copy)."""
        return dict(self._histograms)

    def names(self) -> List[str]:
        """Every metric name in the registry, sorted."""
        return sorted(
            set(self._counters) | set(self._gauges) | set(self._histograms)
        )

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All metrics as plain dicts, keyed by name."""
        out: Dict[str, Dict[str, Any]] = {}
        for name, counter in self._counters.items():
            out[name] = counter.to_dict()
        for name, gauge in self._gauges.items():
            out[name] = gauge.to_dict()
        for name, histogram in self._histograms.items():
            out[name] = histogram.to_dict()
        return dict(sorted(out.items()))
