"""Heuristics-based annotators (Table 1, row 2).

"Quickly identifying relevant pieces of information" via ad-hoc,
data-set-dependent rules.  The person-mention heuristic encodes how
people appear in business prose and semi-structured lines:

* ``<Role>: <Name>`` — form/heading style ("Lead TSA: Jane Doe"),
* ``<Name> is the <Role>`` / ``<Name>, our <Role>,`` — prose style,
* ``<Name> (<Role>)`` — roster shorthand.

As Table 1 warns, these are "highly dependent on the data sets": they
are tuned to engagement-workbook conventions and would need re-tuning
elsewhere, which is the documented limitation this row trades away for
implementation speed.
"""

from __future__ import annotations

import re
from typing import Tuple

from repro.annotators.base import EilAnnotator
from repro.text.normalize import normalize_person_name, normalize_role
from repro.text.terms import term_pattern
from repro.uima.cas import Cas

__all__ = ["PersonHeuristicAnnotator", "ROLE_TERM_RE"]

# Role vocabulary the heuristics anchor on (acronyms and full names).
_ROLE_TERMS = (
    "CSE", "TSA", "DPE", "EM", "CE",
    "Cross Tower TSA", "cross tower TSA", "Mainframe TSA", "Lead TSA",
    "Client Solution Executive", "Technical Solution Architect",
    "Cross Tower Technical Solution Architect",
    "Delivery Project Executive", "Engagement Manager", "Sales Leader",
    "Pricer", "Financial Analyst", "Contracts Lead", "Transition Manager",
    "Client Executive", "Chief Information Officer", "IT Director",
    "Procurement Director",
)
ROLE_TERM_RE = term_pattern(_ROLE_TERMS)

# A capitalized first-last name, optionally with a middle initial.
_NAME = r"[A-Z][a-z]+(?:\s[A-Z]\.)?\s[A-Z][a-z]+(?:-[A-Z][a-z]+)?"

_PATTERNS: Tuple[Tuple[re.Pattern, str, str], ...] = (
    # Role: Name   (groups: role, name).  The separator must stay on one
    # line: an empty "Lead TSA:" field followed by the next field's
    # label must not be read as a person.
    (re.compile(rf"({ROLE_TERM_RE})[ \t]*[:\-][ \t]*({_NAME})"),
     "role", "name"),
    # Name is/was the Role
    (re.compile(rf"({_NAME})\s+(?:is|was|will be)\s+(?:the\s+|our\s+)?"
                rf"({ROLE_TERM_RE})"), "name", "role"),
    # Name (Role)
    (re.compile(rf"({_NAME})\s*\(({ROLE_TERM_RE})\)"), "name", "role"),
    # Name, our Role,
    (re.compile(rf"({_NAME}),\s+(?:our|the)\s+({ROLE_TERM_RE})"),
     "name", "role"),
)


class PersonHeuristicAnnotator(EilAnnotator):
    """Finds person+role pairs in free text via the patterns above."""

    name = "person-heuristics"

    def process(self, cas: Cas) -> None:
        seen_spans: set = set()
        for pattern, first_kind, _second_kind in _PATTERNS:
            for match in pattern.finditer(cas.text):
                if first_kind == "role":
                    role_text, name_text = match.group(1), match.group(2)
                    name_start = match.start(2)
                    name_end = match.end(2)
                else:
                    name_text, role_text = match.group(1), match.group(2)
                    name_start = match.start(1)
                    name_end = match.end(1)
                key = (name_start, name_end)
                if key in seen_spans:
                    continue
                seen_spans.add(key)
                cas.annotate(
                    "eil.Person",
                    name_start,
                    name_end,
                    name=normalize_person_name(name_text),
                    role=normalize_role(role_text),
                    source="heuristic",
                )
