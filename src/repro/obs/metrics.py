"""Dependency-free metrics: counters, gauges, histograms, a registry.

The EIL pipelines emit three kinds of telemetry:

* :class:`Counter` — monotonically increasing totals (queries executed,
  postings touched, rows scanned).
* :class:`Gauge` — last-written values (index size, deals populated).
* :class:`Histogram` — distributions with p50/p95/p99 summaries (stage
  latencies, candidate-set sizes).

A :class:`MetricsRegistry` owns a namespace of metrics.  The process
has one default registry (:func:`get_registry`); a test or benchmark
swaps in a fresh or disabled one with :func:`use_registry` without
rebuilding the system.

Code that records binds a *handle* once, per module or per object —
``_EXECUTED = CounterHandle("query.executed")`` — and records through
it.  A handle resolves its metric in the default registry on first use
and again only when the registry generation moves: installing a
registry and flipping a registry's ``enabled`` both move it, so a
handle bound before :func:`use_registry` records into the new
registry, and a disabled registry records nothing.  A handle records
through its metric's own ``inc`` / ``observe``.  Counter names built
per call (``faults.injected.<component>.<kind>``) go through
:meth:`MetricsRegistry.inc` instead.

Recording takes no lock.  Counters and histograms keep one cell per
recording thread and sum the cells on read; a dead thread's cell is
folded into a retired cell when the next thread's cell is created, so
threads that come and go leave no cells behind.  A histogram's cell is
a fixed array of log-linear buckets, 32 per power of two from
``2**-30`` to ``2**40``.  ``count``, ``sum``, ``min`` and ``max`` are
exact.  A percentile keeps the nearest-rank rule: it reads the lower
bound of the bucket holding the nearest-rank sample, clamped to
``[min, max]`` (the top rank reads ``max``), so it is at most
:data:`RELATIVE_ERROR` (1/32, 3.2 %) below that sample.  Under
``2**-30`` the error is below ``2**-30`` absolute; samples from
``2**40`` (about 10**12) up share the top bucket.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from contextlib import contextmanager
from itertools import accumulate
from operator import add
from time import perf_counter
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "Counter",
    "CounterHandle",
    "Gauge",
    "GaugeHandle",
    "Histogram",
    "HistogramHandle",
    "MetricsRegistry",
    "RELATIVE_ERROR",
    "Timer",
    "get_registry",
    "set_registry",
    "use_registry",
]

_SUB_BUCKETS = 32
#: Upper bound on how far below the exact nearest-rank sample a
#: percentile reads, as a fraction of that sample.
RELATIVE_ERROR = 1.0 / _SUB_BUCKETS
#: Bucket i > 0 holds samples in [_BOUNDS[i - 1], _BOUNDS[i]); bucket 0
#: everything below ``2**-30``, the last one everything from ``2**40``.
_BOUNDS = [
    2.0 ** exponent * (1.0 + step / _SUB_BUCKETS)
    for exponent in range(-30, 40)
    for step in range(_SUB_BUCKETS)
] + [2.0 ** 40]
_LOWER = [0.0] + _BOUNDS  # each bucket's lower bound
# A histogram cell: one count per bucket, then sum, min and max.
_SUM = len(_LOWER)
_MIN = _SUM + 1
_MAX = _SUM + 2
_INF = float("inf")


class _Cells:
    """A metric recorded into one cell per thread, folded on read.

    The owning thread is the only writer of its cell, so recording
    needs no lock.  Reads, folds and merges hold the metric's lock: a
    read never counts a cell twice while it is being folded.
    """

    __slots__ = ("name", "_local", "_cells", "_retired", "_lock")

    def __init__(self, name: str, retired: Optional[list] = None) -> None:
        self.name = name
        self._local = threading.local()
        self._cells: Dict[threading.Thread, list] = {}
        self._retired = retired  # dead threads' cells, folded
        self._lock = threading.Lock()

    @staticmethod
    def _empty() -> list:
        raise NotImplementedError

    @staticmethod
    def _fold(into: list, cell: list) -> None:
        raise NotImplementedError

    def _cell(self) -> list:
        """This thread's new cell; dead threads' cells are folded first."""
        cell = self._empty()
        with self._lock:
            dead = [t for t in self._cells if not t.is_alive()]
            for thread in dead:
                self._retire(self._cells.pop(thread))
            self._cells[threading.current_thread()] = cell
        self._local.cell = cell
        return cell

    def _retire(self, cell: list) -> None:
        # Caller holds the lock.
        if self._retired is None:
            self._retired = cell
        else:
            self._fold(self._retired, cell)

    def _folded(self) -> list:
        """Every cell summed into a fresh one."""
        total = self._empty()
        with self._lock:
            if self._retired is not None:
                self._fold(total, self._retired)
            for cell in self._cells.values():
                self._fold(total, cell)
        return total

    def __getstate__(self) -> Dict[str, Any]:
        # Metrics cross process boundaries inside worker registries;
        # the cells travel folded, the lock and thread-locals stay.
        return {"name": self.name, "cell": self._folded()}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        _Cells.__init__(self, state["name"], state["cell"])


class Counter(_Cells):
    """A monotonically increasing count, exact under threads."""

    __slots__ = ()

    @staticmethod
    def _empty() -> list:
        return [0]

    @staticmethod
    def _fold(into: list, cell: list) -> None:
        into[0] += cell[0]

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        try:
            self._local.cell[0] += amount
        except AttributeError:
            self._cell()[0] += amount

    @property
    def value(self) -> int:
        """The total over every thread."""
        return self._folded()[0]

    def to_dict(self) -> Dict[str, Any]:
        """Exportable representation."""
        return {"type": "counter", "value": self.value}


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


def _percentiles(cell: list, qs: Sequence[float]) -> List[float]:
    """Nearest-rank percentiles of a folded cell, one per ``q``."""
    for q in qs:
        if not 0 <= q <= 100:
            raise ValueError(f"percentile {q} out of [0, 100]")
    cumulative = list(accumulate(cell[:_SUM]))
    count = cumulative[-1]
    if not count:
        return [0.0 for _ in qs]
    low, high = cell[_MIN], cell[_MAX]
    out = []
    for q in qs:
        rank = max(0, min(count - 1, round(q / 100.0 * (count - 1))))
        if rank == count - 1:  # the last rank is the maximum
            out.append(high)
            continue
        bucket = bisect_right(cumulative, rank)
        out.append(min(max(_LOWER[bucket], low), high))
    return out


class Histogram(_Cells):
    """A distribution in log-linear buckets with exact totals.

    ``count``/``sum``/``min``/``max`` are exact; percentiles use the
    nearest-rank rule on the buckets (module docstring: error bound).
    """

    __slots__ = ()

    @staticmethod
    def _empty() -> list:
        return [0] * _SUM + [0.0, _INF, -_INF]

    @staticmethod
    def _fold(into: list, cell: list) -> None:
        into[:_MIN] = map(add, into[:_MIN], cell[:_MIN])
        into[_MIN] = min(into[_MIN], cell[_MIN])
        into[_MAX] = max(into[_MAX], cell[_MAX])

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)  # bisecting a float list with an int is slow
        try:
            cell = self._local.cell
        except AttributeError:
            cell = self._cell()
        # The bucket is counted last: a read that sees the count also
        # sees the sample in sum, min and max.
        cell[_SUM] += value
        if value < cell[_MIN]:
            cell[_MIN] = value
        if value > cell[_MAX]:
            cell[_MAX] = value
        cell[bisect_right(_BOUNDS, value)] += 1

    @property
    def count(self) -> int:
        """Samples recorded."""
        return sum(self._folded()[:_SUM])

    @property
    def sum(self) -> float:
        """Sum of all samples."""
        return self._folded()[_SUM]

    @property
    def min(self) -> Optional[float]:
        """Smallest sample (None when empty)."""
        low = self._folded()[_MIN]
        return None if low == _INF else low

    @property
    def max(self) -> Optional[float]:
        """Largest sample (None when empty)."""
        high = self._folded()[_MAX]
        return None if high == -_INF else high

    @property
    def mean(self) -> float:
        """Arithmetic mean of all samples (0.0 when empty)."""
        cell = self._folded()
        count = sum(cell[:_SUM])
        return cell[_SUM] / count if count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (0.0 when empty).

        Args:
            q: Percentile in [0, 100].
        """
        return _percentiles(self._folded(), (q,))[0]

    def summary(self) -> Dict[str, float]:
        """count/sum/mean/min/max plus p50/p95/p99."""
        cell = self._folded()
        count = sum(cell[:_SUM])
        p50, p95, p99 = _percentiles(cell, (50, 95, 99))
        return {
            "count": count,
            "sum": cell[_SUM],
            "mean": cell[_SUM] / count if count else 0.0,
            "min": cell[_MIN] if count else 0.0,
            "max": cell[_MAX] if count else 0.0,
            "p50": p50,
            "p95": p95,
            "p99": p99,
        }

    def to_dict(self) -> Dict[str, Any]:
        """Exportable representation."""
        return {"type": "histogram", **self.summary()}

    def merge(self, other: "Histogram") -> None:
        """Add another histogram's buckets and totals to this one.

        Used to merge worker-process registries into the parent's after
        a process-sharded offline build.
        """
        cell = other._folded()
        with self._lock:
            self._retire(cell)


class Timer:
    """Context manager recording elapsed seconds into a histogram."""

    __slots__ = ("_observe", "_start")

    def __init__(self, observe: Callable[[float], None]) -> None:
        self._observe = observe
        self._start: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._start is not None:
            self._observe(perf_counter() - self._start)


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Args:
        enabled: When False every record call is a no-op — the registry
            for measuring instrumentation overhead, and the cheap path
            for deployments that do not scrape metrics.
    """

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    @property
    def enabled(self) -> bool:
        """Whether record calls record; setting it re-binds handles."""
        return self._enabled

    @enabled.setter
    def enabled(self, enabled: bool) -> None:
        self._enabled = enabled
        _next_generation()

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

    # -- recording by name (for names built per call) ----------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` (no-op when disabled)."""
        if not self._enabled:
            return
        self.counter(name).inc(amount)

    # -- merging / serialization -------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's metrics into this one.

        Counters add, gauges take the other registry's (more recent)
        value, histograms add bucket-wise.  The process-sharded CPE
        uses this to land worker-side telemetry (parse timers,
        per-annotator costs, injected-fault counters) in the parent
        registry, so ``repro stats`` keeps offline coverage under
        process execution.
        """
        if not self._enabled:
            return
        for name, counter in other._counters.items():
            value = counter.value
            if value:
                self.counter(name).inc(value)
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


# -- the process default and its generation ---------------------------------

_registry = MetricsRegistry()
# Moves whenever a handle's binding may be stale: a registry installed,
# a registry's ``enabled`` flipped.
_generation = 0
_generation_lock = threading.Lock()


def _next_generation() -> None:
    global _generation
    with _generation_lock:
        _generation += 1


def get_registry() -> MetricsRegistry:
    """The process-wide default metrics registry."""
    return _registry


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install ``registry`` as the default (None installs a fresh one)."""
    global _registry
    _registry = registry if registry is not None else MetricsRegistry()
    _next_generation()  # after the install: a handle re-binding sees it
    return _registry


@contextmanager
def use_registry(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Temporarily install a registry; restores the previous on exit."""
    previous = get_registry()
    installed = set_registry(registry)
    try:
        yield installed
    finally:
        set_registry(previous)


# -- handles ----------------------------------------------------------------


class _Handle:
    """A metric name bound to the registry ``provider`` returns.

    The bound metric is ``None`` while that registry is missing or
    disabled.  It is re-resolved on the first record after the
    registry generation moves.
    """

    __slots__ = ("name", "_provider", "_bound")

    def __init__(
        self,
        name: str,
        provider: Callable[[], Optional[MetricsRegistry]] = get_registry,
    ) -> None:
        self.name = name
        self._provider = provider
        self._bound: Tuple[int, Any] = (-1, None)  # (generation, metric)

    def _resolve(self, registry: MetricsRegistry) -> Any:
        raise NotImplementedError

    def _bind(self) -> Any:
        """Resolve the metric for the current generation and publish it."""
        generation = _generation  # read before the registry
        registry = self._provider()
        metric = (
            self._resolve(registry)
            if registry is not None and registry.enabled else None
        )
        # Generation and metric are published in one assignment: a
        # binder that read an older generation leaves a binding the
        # next record finds stale.
        self._bound = (generation, metric)
        return metric

    def __reduce__(self):
        # Handles travel to worker processes inside the objects holding
        # them and bind again there.
        return (type(self), (self.name, self._provider))


class CounterHandle(_Handle):
    """A bound :class:`Counter`."""

    __slots__ = ()

    def _resolve(self, registry: MetricsRegistry) -> Counter:
        return registry.counter(self.name)

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        generation, counter = self._bound
        if generation != _generation:
            counter = self._bind()
        if counter is not None:
            counter.inc(amount)


class GaugeHandle(_Handle):
    """A bound :class:`Gauge`."""

    __slots__ = ()

    def _resolve(self, registry: MetricsRegistry) -> Gauge:
        return registry.gauge(self.name)

    def set(self, value: float) -> None:
        """Record the current level."""
        generation, gauge = self._bound
        if generation != _generation:
            gauge = self._bind()
        if gauge is not None:
            gauge.set(value)


class HistogramHandle(_Handle):
    """A bound :class:`Histogram`."""

    __slots__ = ()

    def _resolve(self, registry: MetricsRegistry) -> Histogram:
        return registry.histogram(self.name)

    def observe(self, value: float) -> None:
        """Record one sample."""
        generation, histogram = self._bound
        if generation != _generation:
            histogram = self._bind()
        if histogram is not None:
            histogram.observe(value)

    def timer(self) -> Timer:
        """Context manager timing a block into this histogram."""
        return Timer(self.observe)
