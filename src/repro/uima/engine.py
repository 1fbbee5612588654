"""Analysis engines: the units annotators are packaged as.

An :class:`AnalysisEngine` processes one CAS at a time.  An
:class:`AggregateAnalysisEngine` runs a fixed sequence of delegates —
the "composite annotator" row of the paper's Table 1 — optionally with
per-delegate flow control (skip predicates).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import AnnotatorError
from repro.obs import CounterHandle, HistogramHandle
from repro.uima.cas import Cas
from repro.uima.typesystem import TypeSystem

__all__ = ["AnalysisEngine", "AggregateAnalysisEngine", "EngineResult"]


@dataclass
class EngineResult:
    """Per-engine outcome bookkeeping (used by CPE reports).

    Attributes:
        engine_name: The engine that ran.
        annotations_added: Count of annotations the engine created.
    """

    engine_name: str
    annotations_added: int = 0


class AnalysisEngine:
    """Base class for all annotators.

    Subclasses implement :meth:`process`; :meth:`initialize_types` is
    called once to declare output types in the shared type system
    (idempotent registration is the subclass's responsibility — use
    ``name in type_system`` guards).
    """

    name: str = "engine"

    def initialize_types(self, type_system: TypeSystem) -> None:
        """Declare output annotation types (default: none)."""

    def process(self, cas: Cas) -> None:
        """Analyze one CAS, adding annotations in place."""
        raise NotImplementedError

    @cached_property
    def _handles(self) -> Tuple[CounterHandle, HistogramHandle, CounterHandle]:
        """This engine's failures, seconds and annotations metrics,
        bound on its first run."""
        prefix = f"annotator.{self.name}"
        return (
            CounterHandle(f"{prefix}.failures"),
            HistogramHandle(f"{prefix}.seconds"),
            CounterHandle(f"{prefix}.annotations"),
        )

    def run(self, cas: Cas) -> EngineResult:
        """Process with bookkeeping; wraps errors with the engine name.

        Per-annotator wall time and annotation counts are recorded as
        ``annotator.<name>.seconds`` / ``.annotations`` — the Table 1
        cost breakdown the offline pipeline is steered by.
        """
        failures, seconds, annotations = self._handles
        before = len(cas)
        started = perf_counter()
        try:
            self.process(cas)
        except AnnotatorError:
            failures.inc()
            raise
        except Exception as exc:
            failures.inc()
            raise AnnotatorError(
                f"engine {self.name!r} failed: {exc}"
            ) from exc
        added = len(cas) - before
        seconds.observe(perf_counter() - started)
        annotations.inc(max(0, added))
        return EngineResult(self.name, annotations_added=added)


FlowPredicate = Callable[[Cas], bool]


class AggregateAnalysisEngine(AnalysisEngine):
    """Run a sequence of delegate engines against each CAS.

    Args:
        name: Aggregate's display name.
        delegates: Engines in execution order.  Each entry is either an
            engine or an ``(engine, predicate)`` pair — the predicate
            decides per-CAS whether the delegate runs, which is how EIL
            restricts expensive annotators to candidate documents
            (paper Fig. 3, steps 1-2).
    """

    def __init__(
        self,
        name: str,
        delegates: Sequence[object],
    ) -> None:
        self.name = name
        self._delegates: List[Tuple[AnalysisEngine, Optional[FlowPredicate]]] = []
        for delegate in delegates:
            if isinstance(delegate, AnalysisEngine):
                self._delegates.append((delegate, None))
            elif (
                isinstance(delegate, tuple)
                and len(delegate) == 2
                and isinstance(delegate[0], AnalysisEngine)
            ):
                self._delegates.append((delegate[0], delegate[1]))
            else:
                raise AnnotatorError(
                    f"invalid delegate {delegate!r} in aggregate {name!r}"
                )
        if not self._delegates:
            raise AnnotatorError(f"aggregate {name!r} has no delegates")

    def initialize_types(self, type_system: TypeSystem) -> None:
        for engine, _ in self._delegates:
            engine.initialize_types(type_system)

    def process(self, cas: Cas) -> None:
        for engine, predicate in self._delegates:
            if predicate is not None and not predicate(cas):
                continue
            engine.run(cas)
