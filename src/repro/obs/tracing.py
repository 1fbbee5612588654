"""Per-stage timings, and hierarchical spans for whoever asks for trees.

Every span records its duration into the metrics registry as a
``span.<name>`` histogram, which is what aggregate per-stage latency
reporting (``repro stats``, the latency benchmark) reads.

What else a span does depends on the :class:`Tracer`'s ``max_roots``:

* ``max_roots=0`` (the process default, :func:`repro.obs.get_tracer`)
  keeps no trees, so it builds none: a span is a stage timer, one clock
  read at each end and one histogram sample at exit.
* ``max_roots > 0`` (what :func:`repro.obs.use_tracer` installs) builds
  a :class:`Span` tree per thread and keeps the last ``max_roots``
  finished roots for export — one ``query.execute`` root holding the
  ``query.synopsis`` / ``query.siapi`` / ``query.rank`` children the
  paper's Figure 1 steps map to.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = ["Span", "Tracer"]


class Span:
    """One timed, attributable region of work in a retained tree.

    Attributes:
        name: Stage name (dotted, e.g. ``"query.siapi"``).
        attributes: Arbitrary key/value annotations set at creation or
            via :meth:`set_attribute`.
        children: Sub-spans, in start order.
    """

    __slots__ = ("name", "attributes", "children", "parent",
                 "_start", "_end")

    def __init__(
        self,
        name: str,
        parent: Optional["Span"] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.parent = parent
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.children: List["Span"] = []
        self._start = perf_counter()
        self._end: Optional[float] = None

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach one annotation to the span."""
        self.attributes[key] = value

    def finish(self) -> None:
        """Stop the clock (idempotent)."""
        if self._end is None:
            self._end = perf_counter()

    @property
    def duration(self) -> float:
        """Elapsed seconds (up to now while the span is still open)."""
        end = self._end if self._end is not None else perf_counter()
        return end - self._start

    def to_dict(self) -> Dict[str, Any]:
        """The span subtree as plain dicts (for JSON export)."""
        return {
            "name": self.name,
            "duration_s": self.duration,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }


class _ActiveSpan:
    """Context manager binding a span to the tracer's stack."""

    __slots__ = ("_tracer", "span", "_metric")

    def __init__(self, tracer: "Tracer", span: Span, metric: str) -> None:
        self._tracer = tracer
        self.span = span
        self._metric = metric

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._finish(self.span, self._metric)


class _StageTimer:
    """A span on a tracer that keeps no trees: a clock read at each end
    and one ``span.<name>`` sample into the registry resolved at exit."""

    __slots__ = ("_registry_provider", "_metric", "_start")

    def __init__(
        self,
        registry_provider: Callable[[], Optional[MetricsRegistry]],
        metric: str,
    ) -> None:
        self._registry_provider = registry_provider
        self._metric = metric

    def __enter__(self) -> "_StageTimer":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = perf_counter() - self._start
        registry = self._registry_provider()
        if registry is not None:
            registry.observe(self._metric, elapsed)

    def set_attribute(self, key: str, value: Any) -> None:
        """Discard the annotation: no tree keeps it."""


class _NullSpanContext:
    """The disabled tracer's span: no clocks, no bookkeeping."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set_attribute(self, key: str, value: Any) -> None:
        """Discard the annotation."""


_NULL_SPAN = _NullSpanContext()


class Tracer:
    """Hands out spans as context managers.

    Args:
        registry: Metrics registry for ``span.<name>`` duration
            histograms; mutually exclusive with ``registry_provider``.
        registry_provider: Zero-arg callable resolving the registry at
            record time — how the default tracer follows the global
            default registry even after it is swapped.
        max_roots: Finished root span trees retained for export (oldest
            are dropped first).  At 0 the tracer keeps no trees and
            builds none: each span is a stage timer that only records
            its ``span.<name>`` sample.
        enabled: When False, :meth:`span` returns a shared no-op
            context manager.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        registry_provider: Optional[Callable[[], MetricsRegistry]] = None,
        max_roots: int = 256,
        enabled: bool = True,
    ) -> None:
        if registry is not None and registry_provider is not None:
            raise ValueError("pass registry or registry_provider, not both")
        self._registry_provider: Callable[[], Optional[MetricsRegistry]] = (
            registry_provider or (lambda: registry)
        )
        self.max_roots = max_roots
        self.enabled = enabled
        self._metrics: Dict[str, str] = {}  # stage name -> "span.<name>"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._roots: List[Span] = []

    # -- span production ----------------------------------------------------

    def span(self, name: str, **attributes: Any):
        """Open a span as a context manager.

        On a tree-keeping tracer the span nests under the thread's
        currently open span, and a span with no parent becomes a root
        retained for export.
        """
        if not self.enabled:
            return _NULL_SPAN
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics.setdefault(name, "span." + name)
        if not self.max_roots:
            return _StageTimer(self._registry_provider, metric)
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, parent=parent, attributes=attributes)
        if parent is not None:
            parent.children.append(span)
        stack.append(span)
        return _ActiveSpan(self, span, metric)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _finish(self, span: Span, metric: str) -> None:
        span.finish()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # out-of-order exit; drop it wherever it sits
            try:
                stack.remove(span)
            except ValueError:
                pass
        registry = self._registry_provider()
        if registry is not None:
            registry.observe(metric, span.duration)
        if span.parent is None:
            with self._lock:
                self._roots.append(span)
                if len(self._roots) > self.max_roots:
                    del self._roots[: len(self._roots) - self.max_roots]

    # -- export -------------------------------------------------------------

    @property
    def roots(self) -> List[Span]:
        """Finished root spans, oldest first (none when ``max_roots`` is 0)."""
        with self._lock:
            return list(self._roots)

    def export(self) -> List[Dict[str, Any]]:
        """Every retained root span tree as plain dicts."""
        return [root.to_dict() for root in self.roots]
