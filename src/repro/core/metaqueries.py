"""The four meta-queries (paper Section 2) as form-query builders.

Each helper turns a meta-query's parameters into the
:class:`~repro.core.query_analyzer.FormQuery` a sales professional would
compose in the EIL search editor, and documents the multi-step keyword
procedure the paper describes as the baseline for the same need.

The graph query classes live here too: a :class:`GraphQuery` names one
of the entity-graph traversals (:mod:`repro.graph`) the same way a
``FormQuery`` names a form search, and ``EILSystem.graph_query``
executes it.  Where MQ2/MQ3 answer "which deals", the graph classes
answer the *people* questions directly — who, with what roles, on
which deals, with the contact rows as provenance.  See docs/QUERIES.md
for the full cookbook.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.query_analyzer import FormQuery

__all__ = [
    "scope_query",
    "worked_with_query",
    "role_capacity_query",
    "service_keyword_query",
    "GraphQuery",
    "GRAPH_QUERY_KINDS",
    "graph_worked_with_query",
]


def scope_query(service: str) -> FormQuery:
    """Meta-query 1: which engagements have ``service`` in scope?

    EIL: one concept search on the tower criterion.  Keyword baseline:
    search the service name (missing subtype deals), then re-query with
    every subtype name and read the union of the hits (Figure 4).
    """
    return FormQuery(tower=service)


def worked_with_query(person: str, organization: str = "") -> FormQuery:
    """Meta-query 2: who has worked with ``person`` at ``organization``?

    EIL: one people search over the extracted contact lists; the People
    tab of each returned deal lists every colleague with roles and
    contact details.  Keyword baseline: iterative queries narrowing from
    the person's name to a deal name to the role (Figure 7's three-step
    episode).
    """
    return FormQuery(person_name=person, organization=organization)


def role_capacity_query(role: str) -> FormQuery:
    """Meta-query 3: who has worked in the capacity of ``role``?

    EIL: one role search over the contact lists.  Keyword baseline: the
    role term matches every document whose *form schema* contains the
    field name — mostly empty fields (the paper's 149-document episode).
    """
    return FormQuery(role=role)


def service_keyword_query(
    service: str, keyword: str, in_synopsis: bool = False
) -> FormQuery:
    """Meta-query 4: who worked on ``service`` involving ``keyword``?

    EIL: the tower concept scopes the keyword search to relevant
    activities (Figure 8).  ``in_synopsis=True`` searches only the
    extracted technology-solution text instead of the whole workbook —
    the paper's "first preference".  Keyword baseline: multi-step
    conjunctive queries plus manual deal identification.
    """
    return FormQuery(
        tower=service,
        exact_phrase=keyword,
        search_in="synopsis" if in_synopsis else "ewb",
    )


#: The graph query classes ``EILSystem.graph_query`` dispatches on.
GRAPH_QUERY_KINDS = (
    "worked-with",
    "role-capacity",
    "expertise",
    "team-overlap",
)


@dataclass(frozen=True)
class GraphQuery:
    """One entity-graph query: a traversal class plus its subject.

    Attributes:
        kind: One of :data:`GRAPH_QUERY_KINDS`.
        subject: The person name/email, canonical role, or
            technology/tower term the traversal starts from.
        limit: Optional cap on returned people/colleagues (None
            returns everyone, 0 nobody; negative is rejected).
    """

    kind: str
    subject: str
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in GRAPH_QUERY_KINDS:
            raise ValueError(
                f"unknown graph query kind {self.kind!r}; expected one "
                f"of {', '.join(GRAPH_QUERY_KINDS)}"
            )
        if self.limit is not None and self.limit < 0:
            raise ValueError(
                f"limit must be None or >= 0, got {self.limit!r}"
            )

    def describe(self) -> str:
        """Human-readable form for logs and the CLI."""
        return f"graph:{self.kind}({self.subject!r})"


def graph_worked_with_query(
    person: str, limit: Optional[int] = None
) -> GraphQuery:
    """Meta-query 2, graph form: who has worked with ``person``?

    Where :func:`worked_with_query` returns the *deals* whose contact
    lists mention the person (the user then opens each People tab),
    the graph form returns the colleagues directly — merged across
    deals, with roles and the contact rows as provenance.  Figure 7's
    three-step keyword episode becomes one traversal.
    """
    return GraphQuery("worked-with", person, limit)
