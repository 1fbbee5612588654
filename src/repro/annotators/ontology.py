"""Ontology-based annotator (Table 1, row 3): service mentions.

Walks the :class:`~repro.corpus.taxonomy.ServiceTaxonomy` and marks
every surface form (canonical name, acronym, alias) found in the text as
an ``eil.Service`` annotation carrying the resolved canonical name and
top-level tower.  Matching is longest-form-first so "Customer Service
Center" wins over a hypothetical shorter overlap: the surface forms
compile to one trie (:func:`~repro.text.terms.term_pattern`) whose every
node tries the longer continuation before it ends a form, so a shorter
form matches only where no longer one does.  Acronyms are
matched case-sensitively (``CSC`` but not ``csc``) to keep precision —
exactly the "quality of the ontology drives quality of the annotator"
trade-off the paper's Table 1 calls out.

The ``weight`` feature encodes evidence strength by document context:
a mention inside a slide titled "Scope: ..." or a scope bullet counts
more than a passing mention in meeting minutes.  The downstream scope
CPE sums these weights per deal.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from repro.annotators.base import EilAnnotator
from repro.corpus.taxonomy import ServiceNode, ServiceTaxonomy
from repro.text.terms import term_pattern
from repro.uima.cas import Cas

__all__ = ["OntologyServiceAnnotator"]

_SCOPE_CONTEXT_RE = re.compile(
    r"\b(?:scope|included in the services|services scope)\b", re.IGNORECASE
)


class OntologyServiceAnnotator(EilAnnotator):
    """Annotates taxonomy service mentions with canonical names."""

    name = "ontology-services"

    def __init__(
        self,
        taxonomy: ServiceTaxonomy,
        scope_weight: float = 3.0,
        mention_weight: float = 1.0,
    ) -> None:
        self.taxonomy = taxonomy
        self.scope_weight = scope_weight
        self.mention_weight = mention_weight
        self._surface_to_node: Dict[str, ServiceNode] = {}
        case_sensitive: List[str] = []
        case_insensitive: List[str] = []
        for node in taxonomy.all_nodes:
            for surface in node.surface_forms:
                self._surface_to_node.setdefault(surface.lower(), node)
                if _is_acronym(surface):
                    case_sensitive.append(surface)
                else:
                    case_insensitive.append(surface)
        self._name_re = re.compile(
            r"\b" + term_pattern(case_insensitive, ignore_case=True) + r"\b",
            re.IGNORECASE,
        ) if case_insensitive else None
        self._acronym_re = re.compile(
            r"\b" + term_pattern(case_sensitive) + r"\b"
        ) if case_sensitive else None

    def process(self, cas: Cas) -> None:
        spans: List[Tuple[int, int, str]] = []
        if self._name_re is not None:
            spans.extend(
                (m.start(), m.end(), m.group(0))
                for m in self._name_re.finditer(cas.text)
            )
        if self._acronym_re is not None:
            spans.extend(
                (m.start(), m.end(), m.group(0))
                for m in self._acronym_re.finditer(cas.text)
            )
        # Drop acronym matches nested inside longer name matches.
        spans.sort(key=lambda s: (s[0], -(s[1] - s[0])))
        kept: List[Tuple[int, int, str]] = []
        last_end = -1
        for begin, end, surface in spans:
            if begin < last_end:
                continue
            kept.append((begin, end, surface))
            last_end = end
        for begin, end, surface in kept:
            node = self._surface_to_node.get(surface.lower())
            if node is None:  # pragma: no cover - regex and map agree
                continue
            cas.annotate(
                "eil.Service",
                begin,
                end,
                canonical=node.name,
                surface=surface,
                tower=self._top_tower(node),
                weight=self._weight_for(cas, begin),
            )

    def _top_tower(self, node: ServiceNode) -> str:
        current = node
        while current.parent is not None:
            current = self.taxonomy.get(current.parent)
        return current.name

    def _weight_for(self, cas: Cas, begin: int) -> float:
        """Scope-context mentions count more than passing ones."""
        window = cas.text[max(0, begin - 80): begin + 80]
        if _SCOPE_CONTEXT_RE.search(window):
            return self.scope_weight
        return self.mention_weight


def _is_acronym(surface: str) -> bool:
    return len(surface) <= 5 and surface.isupper() and surface.isalnum()
