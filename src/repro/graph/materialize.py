"""Materializing the entity graph from the organized information.

The graph is a *consumer* of the collection-processing outputs, sitting
next to :class:`~repro.annotators.social.ContactRollup` in the offline
flow (paper Figure 2): the rollup writes the de-duplicated contact
lists, scope rankings and technology rows into the relational store,
and these helpers lift exactly those rows — primary keys and all —
into :class:`~repro.graph.graph.EntityGraph` edges.  Deriving the
graph from the stored rows (rather than re-extracting from the CAS) is
what makes the equivalence guarantee checkable: every edge cites a row
that still exists, and a per-deal subgraph can always be rebuilt and
compared against the tables it came from.

Used in three places:

* ``EILSystem.run_offline_pipeline`` — full materialization after the
  populate step;
* ``EILSystem.add_workbook`` / ``remove_deal`` — incremental
  re-materialization of the touched deal only;
* ``EILSystem.load`` — fallback rebuild when a saved system has no
  graph file.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.organized import OrganizedInformation
from repro.graph.graph import EntityGraph
from repro.obs import get_tracer

__all__ = ["index_deal_from_organized", "build_graph"]


def index_deal_from_organized(
    graph: EntityGraph, organized: OrganizedInformation, deal_id: str
) -> int:
    """(Re)materialize one deal's subgraph from its stored rows.

    Returns the number of edges indexed.  Row order does not matter —
    the graph's serialization and query rankings are canonical — but
    the rows themselves are authoritative: whatever the rollup stored
    is exactly what the graph will answer with.
    """
    return graph.index_deal(
        deal_id,
        organized.deal_row(deal_id),
        organized.contacts_of(deal_id),
        organized.scopes_of(deal_id),
        organized.technologies_of(deal_id),
    )


def build_graph(
    organized: OrganizedInformation,
    deal_ids: Optional[Iterable[str]] = None,
) -> EntityGraph:
    """Materialize a fresh graph over ``deal_ids`` (default: all deals)."""
    graph = EntityGraph()
    ids = sorted(deal_ids) if deal_ids is not None else (
        organized.deal_ids()
    )
    with get_tracer().span("offline.graph", deals=len(ids)):
        for deal_id in ids:
            index_deal_from_organized(graph, organized, deal_id)
    return graph
