"""Bounded LRU caching for the online query paths.

Production EIL answers the same queries over and over — the paper's
community of practice shares a small vocabulary of towers, roles and
technologies — so both online entry points
(:meth:`~repro.core.search.BusinessActivityDrivenSearch.execute` and
:meth:`~repro.search.engine.SearchEngine.search`) sit behind an
:class:`LruCache`.  Correctness is epoch-based: cache keys embed an
index/policy epoch that incremental maintenance bumps, so stale entries
die by key mismatch rather than by explicit eviction.

Cached values are shared, not copied: a hit returns the very object
that was stored, to every caller that asks.  So what is cached cannot
be changed by a caller: a frozen :class:`~repro.core.search.EilResults`
with tuple fields, or a :class:`~repro.search.engine.Ranking`, whose
pairs never change and whose hits are frozen and built once.

Each cache is obs-instrumented: ``<name>.hits`` / ``<name>.misses`` /
``<name>.evictions`` / ``<name>.bypassed`` counters and a
``<name>.size`` gauge, bound once per cache, land in the default
:class:`~repro.obs.metrics.MetricsRegistry`.

Degraded results never enter a cache: a value carrying a truthy
``degraded`` or ``partial`` attribute (the convention
:class:`~repro.core.search.EilResults` uses for the degradation
ladder) is *bypassed at the store* — not stored and later invalidated,
but never stored at all — so a momentary outage cannot pin its
thinned-out answers for the cache's whole lifetime.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional

from repro.obs import CounterHandle, GaugeHandle

__all__ = ["LruCache"]


class LruCache:
    """A thread-safe, bounded, least-recently-used mapping.

    Args:
        name: Metrics prefix (``<name>.hits`` etc.).
        max_entries: Capacity; ``0`` disables storage entirely (every
            ``get`` misses, ``put`` stores nothing) — the knob
            benchmarks use to measure cold-path latency.  ``put`` still
            classifies its value first, so ``None`` is rejected and
            degraded/partial values count under ``<name>.bypassed`` at
            every capacity.

    Cached values must not be ``None`` (``None`` signals a miss).  They
    are returned by reference and shared by every hit, so a value must
    be immutable: the cache never copies it, and neither may callers.
    """

    def __init__(self, name: str, max_entries: int = 256) -> None:
        if max_entries < 0:
            raise ValueError(
                f"cache {name!r} capacity must be >= 0, got {max_entries}"
            )
        self.name = name
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = CounterHandle(f"{name}.hits")
        self._misses = CounterHandle(f"{name}.misses")
        self._evictions = CounterHandle(f"{name}.evictions")
        self._bypassed = CounterHandle(f"{name}.bypassed")
        self._size = GaugeHandle(f"{name}.size")

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value, or ``None``; refreshes LRU order on hit."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
        if value is None:
            self._misses.inc()
            return None
        self._hits.inc()
        return value

    @staticmethod
    def storable(value: Any) -> bool:
        """False for degraded/partial values, which must never be cached."""
        return not (
            getattr(value, "degraded", None)
            or getattr(value, "partial", False)
        )

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value``, evicting least-recently-used past capacity.

        Degraded/partial values (see :meth:`storable`) are bypassed —
        counted under ``<name>.bypassed`` and never stored — so callers
        can put unconditionally and still never serve a degraded answer
        from cache.
        """
        if value is None:
            raise ValueError(f"cache {self.name!r} cannot store None")
        # Classify before the disabled-cache short-circuit: a degraded
        # value must count as bypassed (and None must raise) at every
        # capacity, so metric semantics do not depend on sizing.
        if not self.storable(value):
            self._bypassed.inc()
            return
        if self.max_entries == 0:
            return
        # The gauge is written while the lock is held: a put that
        # publishes its size after releasing the lock can interleave
        # with a concurrent put/evict and leave ``<name>.size``
        # permanently disagreeing with ``len(cache)``.
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            evicted = 0
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                evicted += 1
            if evicted:
                self._evictions.inc(evicted)
            self._size.set(len(self._entries))

    def clear(self) -> None:
        """Drop every entry (capacity and counters are untouched)."""
        with self._lock:
            self._entries.clear()
            self._size.set(0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries
