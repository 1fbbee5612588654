"""Content annotators: win strategies, technologies, client references,
and synopsis context fields.

These feed the non-People tabs of the deal synopsis (paper Figure 6):
Win Strategies, Technology Solutions, Client References, and the
Overview fields (customer, industry, consultant, contract term, value).
They are heuristics/structure-based — they read the ``doc.Section`` and
``doc.FormField`` structure annotations the parser produced, the payoff
of structure-preserving parsing (Section 3.3).
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence

from repro.annotators.base import EilAnnotator
from repro.corpus.taxonomy import ServiceTaxonomy
from repro.text.terms import term_pattern
from repro.uima.cas import Cas

__all__ = [
    "WinStrategyAnnotator",
    "TechnologyAnnotator",
    "ClientReferenceAnnotator",
    "ContextFieldAnnotator",
    "CONTEXT_FIELD_NAMES",
]

_STRATEGY_SENTENCE_RE = re.compile(r"Strategy:\s*([^.]+)\.")
_REFERENCE_SENTENCE_RE = re.compile(
    r"((?:Reference:|Client visit|Analyst citation)[^.]+)\."
)

# Overview-form fields promoted into the structured business context.
CONTEXT_FIELD_NAMES = (
    "Deal Name", "Customer", "Industry", "Out Sourcing Consultant",
    "Geography", "Contract Term Start", "Term Duration Months",
    "Total Contract Value", "International",
)


class WinStrategyAnnotator(EilAnnotator):
    """Extracts win-strategy statements from strategy sections."""

    name = "win-strategies"

    def process(self, cas: Cas) -> None:
        spans = self._strategy_spans(cas)
        for begin, end in spans:
            for match in _STRATEGY_SENTENCE_RE.finditer(cas.text[begin:end]):
                cas.annotate(
                    "eil.WinStrategy",
                    begin + match.start(1),
                    begin + match.end(1),
                    text=match.group(1).strip(),
                )

    def _strategy_spans(self, cas: Cas) -> List[tuple]:
        if "doc.Section" not in cas.type_system:
            return [(0, len(cas.text))]
        sections = [
            (s.begin, s.end)
            for s in cas.select("doc.Section")
            if "strateg" in str(s.get("heading", "")).lower()
        ]
        return sections or [(0, len(cas.text))]


class TechnologyAnnotator(EilAnnotator):
    """Marks taxonomy technology terms, linking them to their tower."""

    name = "technologies"

    def __init__(self, taxonomy: ServiceTaxonomy) -> None:
        self.taxonomy = taxonomy
        term_to_towers: Dict[str, List[str]] = {}
        for node in taxonomy.all_nodes:
            for tech in node.technologies:
                term_to_towers.setdefault(tech.lower(), []).append(node.name)
        self._term_to_towers = term_to_towers
        self._pattern = re.compile(
            r"\b" + term_pattern(term_to_towers, ignore_case=True) + r"\b",
            re.IGNORECASE,
        ) if term_to_towers else None

    def process(self, cas: Cas) -> None:
        if self._pattern is None:
            return
        for match in self._pattern.finditer(cas.text):
            term = match.group(0)
            towers = self._term_to_towers.get(term.lower(), [])
            cas.annotate(
                "eil.Technology",
                match.start(),
                match.end(),
                term=term,
                # A technology may belong to several services; keep the
                # first registered (deterministic) and let the CPE refine
                # using the deal's actual scope.
                tower=towers[0] if towers else "",
            )


class ClientReferenceAnnotator(EilAnnotator):
    """Extracts client-reference statements."""

    name = "client-references"

    def process(self, cas: Cas) -> None:
        for match in _REFERENCE_SENTENCE_RE.finditer(cas.text):
            cas.annotate(
                "eil.ClientReference",
                match.start(1),
                match.end(1),
                text=match.group(1).strip(),
            )


class ContextFieldAnnotator(EilAnnotator):
    """Promotes overview-form fields into ``eil.ContextField``.

    Reads the parser's ``doc.FormField`` structure annotations — only
    non-empty fields whose names appear in :data:`CONTEXT_FIELD_NAMES`
    become context, so noise forms cannot pollute the synopsis.
    """

    name = "context-fields"

    def __init__(self, field_names: Sequence[str] = CONTEXT_FIELD_NAMES):
        self._wanted = {n.lower() for n in field_names}

    def process(self, cas: Cas) -> None:
        if "doc.FormField" not in cas.type_system:
            return
        for field in cas.select("doc.FormField"):
            name = str(field.get("name", ""))
            if name.lower() not in self._wanted or field.get("is_empty"):
                continue
            covered = cas.covered_text(field)
            # The span covers "Name: value"; strip the label part.
            value = covered.partition(":")[2].strip() or covered
            cas.annotate(
                "eil.ContextField",
                field.begin,
                field.end,
                name=name,
                value=value,
            )
