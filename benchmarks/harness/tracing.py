"""Spans recorded from outside the program.

Entering a :class:`Wrappers` replaces the public methods listed in
:data:`WRAPPED` with timing wrappers; leaving it puts the originals
back.  The wrappers sit on the classes, not on instances: ``EILSystem
.load``, ``EILSystem.build`` and ``add_workbook`` create the engine, the
database, the graph and the crawler *inside* the call, so there is no
instance to wrap beforehand.

A span is ``(name index, start, end, parent span)``.  The parent is the
innermost open span of the same thread.  One hand-off crosses threads:
``EILServer`` runs a request on a pool thread while the caller blocks,
so the front-door span is offered as parent to the ``EILSystem`` entry
point that starts with an empty stack (one closed-loop client at a time
goes through the front door, so one slot is enough).  A span without a
parent is an operation's root.
"""

from __future__ import annotations

import importlib
import threading
import time
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = ["WRAPPED", "LAYERS", "Recorder", "Wrappers", "self_times",
           "roots"]

_FRONT_DOOR = "front-door"   # offers itself as parent across the hop
_ENTRY = "entry"             # takes the offered parent on an empty stack

#: (module, class or None for a module function, attribute, layer, role)
WRAPPED: Tuple[Tuple[str, Optional[str], str, str, str], ...] = (
    ("repro.serving.server", "EILServer", "search", "serving", _FRONT_DOOR),
    ("repro.serving.server", "EILServer", "keyword_search", "serving",
     _FRONT_DOOR),
    ("repro.serving.server", "EILServer", "graph_query", "serving",
     _FRONT_DOOR),
    ("repro.core.eil", "EILSystem", "search", "core", _ENTRY),
    ("repro.core.eil", "EILSystem", "keyword_search", "core", _ENTRY),
    ("repro.core.eil", "EILSystem", "graph_query", "core", _ENTRY),
    ("repro.core.eil", "EILSystem", "synopsis", "core", ""),
    ("repro.core.eil", "EILSystem", "build", "core", ""),
    ("repro.core.eil", "EILSystem", "save_index", "core", ""),
    ("repro.core.eil", "EILSystem", "load", "core", ""),
    ("repro.core.eil", "EILSystem", "add_workbook", "core", ""),
    ("repro.core.eil", "EILSystem", "remove_deal", "core", ""),
    ("repro.core.search", "BusinessActivityDrivenSearch", "execute",
     "core", ""),
    ("repro.core.query_analyzer", "SynopsisSearch", "execute", "core", ""),
    ("repro.core.ranking", "RankCombiner", "combine", "core", ""),
    ("repro.core.organized", "OrganizedInformation", "store_deal_context",
     "core", ""),
    ("repro.core.organized", "OrganizedInformation", "store_scopes",
     "core", ""),
    ("repro.core.organized", "OrganizedInformation", "store_contacts",
     "core", ""),
    ("repro.core.organized", "OrganizedInformation",
     "store_win_strategies", "core", ""),
    ("repro.core.organized", "OrganizedInformation", "store_technologies",
     "core", ""),
    ("repro.core.organized", "OrganizedInformation",
     "store_client_references", "core", ""),
    ("repro.security.access", "AccessController",
     "require_synopsis_access", "security", ""),
    ("repro.security.access", "AccessController", "presentable_documents",
     "security", ""),
    ("repro.db.database", "Database", "execute", "db", ""),
    ("repro.db.database", "Database", "insert", "db", ""),
    # eil.py imported the two functions by name, so that name is the one
    # EILSystem.save_index / load look up.
    ("repro.core.eil", None, "dump_database", "db", ""),
    ("repro.core.eil", None, "load_database", "db", ""),
    ("repro.search.siapi", "SiapiService", "search_grouped", "search", ""),
    ("repro.search.engine", "SearchEngine", "search", "search", ""),
    ("repro.search.engine", "SearchEngine", "add", "search", ""),
    ("repro.search.engine", "SearchEngine", "remove", "search", ""),
    ("repro.core.acquisition", "DataAcquisition", "acquire", "search", ""),
    ("repro.search.engine", "SearchEngine", "save_index", "storage", ""),
    ("repro.search.engine", "SearchEngine", "load_index", "storage", ""),
    ("repro.graph.graph", "EntityGraph", "worked_with", "graph", ""),
    ("repro.graph.graph", "EntityGraph", "role_capacity", "graph", ""),
    ("repro.graph.graph", "EntityGraph", "expertise", "graph", ""),
    ("repro.graph.graph", "EntityGraph", "team_overlap", "graph", ""),
    ("repro.graph.graph", "EntityGraph", "index_deal", "graph", ""),
    ("repro.graph.graph", "EntityGraph", "remove_deal", "graph", ""),
    ("repro.graph.graph", "EntityGraph", "save", "graph", ""),
    ("repro.graph.graph", "EntityGraph", "load", "graph", ""),
    # Parsing, annotators and the CPE run inside analyze and have no
    # narrower public method; the program's own histograms split them.
    ("repro.core.analysis", "InformationAnalysis", "analyze", "offline",
     ""),
    ("repro.search.analyzer", "Analyzer", "analyze", "text", ""),
)

LAYERS = ("serving", "core", "security", "db", "search", "storage",
          "graph", "offline", "text")

Span = Tuple[int, float, float, int]


class Recorder:
    """Holds the spans of the pass being traced."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self.spans: List[Optional[Span]] = []
        self.offered = -1
        self._lock = threading.Lock()
        self._local = threading.local()

    def take(self) -> List[Span]:
        """The spans recorded since the last call (all closed)."""
        spans, self.spans = self.spans, []
        return spans  # type: ignore[return-value]

    def wrap(self, function: Callable, name: str, layer: str,
              role: str) -> Callable:
        name_index = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        recorder = self
        local = self._local
        lock = self._lock
        clock = time.perf_counter
        front_door = role == _FRONT_DOOR
        entry = role == _ENTRY

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            else:
                parent = recorder.offered if entry else -1
            spans = recorder.spans
            with lock:
                index = len(spans)
                spans.append(None)
            if front_door:
                recorder.offered = index
            stack.append(index)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if front_door:
                    recorder.offered = -1
                spans[index] = (name_index, start, end, parent)

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced


class Wrappers:
    """Every :data:`WRAPPED` attribute's wrapper, made once; a context
    manager that can be entered again and again (a traced run puts them
    on for every other pass)."""

    def __init__(self, recorder: Recorder) -> None:
        #: (owner, attribute, original, wrapper)
        self._swaps: List[Tuple[object, str, object, object]] = []
        for module_name, class_name, attribute, layer, role in WRAPPED:
            owner = importlib.import_module(module_name)
            label = attribute
            if class_name is not None:
                owner = getattr(owner, class_name)
                label = f"{class_name}.{attribute}"
            original = vars(owner)[attribute]
            if isinstance(original, classmethod):
                wrapper: object = classmethod(
                    recorder.wrap(original.__func__, label, layer, role)
                )
            else:
                wrapper = recorder.wrap(original, label, layer, role)
            self._swaps.append((owner, attribute, original, wrapper))

    def __enter__(self) -> "Wrappers":
        for owner, attribute, _, wrapper in self._swaps:
            setattr(owner, attribute, wrapper)
        return self

    def __exit__(self, *exc_info: object) -> None:
        for owner, attribute, original, _ in self._swaps:
            setattr(owner, attribute, original)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus its children's.

    Children never overlap: the one cross-thread child runs while its
    parent blocks.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def roots(spans: Sequence[Span]) -> List[int]:
    """The root span of each span (a parent precedes its children)."""
    root_of = list(range(len(spans)))
    for index, span in enumerate(spans):
        if span[3] >= 0:
            root_of[index] = root_of[span[3]]
    return root_of
