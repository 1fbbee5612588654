"""Observability for the EIL pipelines: metrics + tracing.

Dependency-free telemetry with a *global default, injectable override*
pattern: instrumented components resolve :func:`get_registry` /
:func:`get_tracer` at call time, so

* ordinary use needs zero wiring — everything records into the process
  defaults, and ``repro stats`` renders them;
* a test or benchmark swaps in its own registry with
  :func:`use_registry` (or :func:`set_registry`) without rebuilding the
  system under test;
* :func:`set_enabled` (False) turns all recording into immediate
  returns, bounding instrumentation overhead on hot paths.

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
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
)
from repro.obs.report import render_stats, stats_dict
from repro.obs.tracing import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
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


_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default metrics registry."""
    return _registry


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install ``registry`` as the default (None installs a fresh one)."""
    global _registry
    _registry = registry if registry is not None else MetricsRegistry()
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
    _registry.enabled = enabled
    _tracer.enabled = enabled
