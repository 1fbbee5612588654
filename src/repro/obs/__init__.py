"""Observability for the EIL pipelines: metrics + tracing.

Dependency-free telemetry with a *global default, injectable override*
pattern: instrumented components record through metric handles
(:class:`CounterHandle`, :class:`GaugeHandle`, :class:`HistogramHandle`)
bound once per module or per object, and resolve :func:`get_tracer` at
call time, so

* ordinary use needs zero wiring — everything records into the process
  defaults, and ``repro stats`` renders them;
* a test or benchmark swaps in its own registry with
  :func:`use_registry` (or :func:`set_registry`) without rebuilding the
  system under test: every handle re-binds on its next record;
* :func:`set_enabled` (False) turns all recording into immediate
  returns, bounding instrumentation overhead on hot paths.

A record takes no lock: counters and histograms write a per-thread
cell.  Histograms are log-linear buckets whose ``count``, ``sum``,
``min`` and ``max`` are exact and whose percentiles read at most
:data:`RELATIVE_ERROR` (1/32, 3.2 %) below the exact nearest-rank
sample (:mod:`repro.obs.metrics`).

The default tracer keeps no span trees (``max_roots=0``): a span on it
is a stage timer that costs two clock reads and one ``span.<name>``
histogram sample.  Code that wants the per-request trees asks for them
with :func:`use_tracer` (or :func:`set_tracer`), which installs a
tracer keeping the last 256 roots — ``repro stats --json`` does, for
its ``traces``.

Typical use::

    from repro import obs

    with obs.use_registry(obs.MetricsRegistry()) as registry:
        eil = EILSystem.build(corpus)
        eil.search(FormQuery(tower="End User Services"), user)
        print(obs.render_stats(registry))
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.metrics import (
    RELATIVE_ERROR,
    Counter,
    CounterHandle,
    Gauge,
    GaugeHandle,
    Histogram,
    HistogramHandle,
    MetricsRegistry,
    Timer,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.report import render_stats, stats_dict
from repro.obs.tracing import Span, Tracer

__all__ = [
    "RELATIVE_ERROR",
    "Counter",
    "CounterHandle",
    "Gauge",
    "GaugeHandle",
    "Histogram",
    "HistogramHandle",
    "MetricsRegistry",
    "Timer",
    "Span",
    "Tracer",
    "get_registry",
    "set_registry",
    "use_registry",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "set_enabled",
    "render_stats",
    "stats_dict",
]


_tracer = Tracer(registry_provider=get_registry, max_roots=0)


def get_tracer() -> Tracer:
    """The process-wide tracer (at start, one that keeps no trees)."""
    return _tracer


def set_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install ``tracer`` as the default (None installs a fresh one
    keeping the last 256 root span trees)."""
    global _tracer
    _tracer = (
        tracer
        if tracer is not None
        else Tracer(registry_provider=get_registry)
    )
    return _tracer


@contextmanager
def use_tracer(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Temporarily install a tree-keeping tracer (or ``tracer``);
    restores the previous on exit."""
    previous = get_tracer()
    installed = set_tracer(tracer)
    try:
        yield installed
    finally:
        set_tracer(previous)


def set_enabled(enabled: bool) -> None:
    """Enable/disable both process-wide defaults in place."""
    get_registry().enabled = enabled
    _tracer.enabled = enabled
