"""The scan-based entity-graph traversals, kept as the oracle.

These are the bodies ``EntityGraph.worked_with`` / ``role_capacity`` /
``expertise`` / ``team_overlap`` had before the graph maintained its
own adjacency: every call rebuilds the incident map and the name index
from the edge list, walks every edge it might need, materialises every
candidate and only then sorts and slices.  They are pure functions of
``EntityGraph.to_payload()`` — no private attribute of the graph, no
import from ``repro.graph.graph`` — and return plain dicts shaped like
``dataclasses.asdict`` of the production answers, so suites compare
field for field.  ``Scan(payload)`` decodes a payload once; a suite
that asks many questions of one graph state passes the same scan to
each function.
"""

from typing import Dict, List, Mapping, Optional, Set

from repro.graph.model import (
    IN_SCOPE,
    MEMBER_OF,
    PERSON,
    TECHNOLOGY,
    TOWER,
    USES,
    Edge,
    NodeRef,
)
from repro.text.normalize import name_key, normalize_email, normalize_role

__all__ = [
    "Scan",
    "worked_with",
    "role_capacity",
    "expertise",
    "team_overlap",
    "person_name",
    "ANSWERS",
]


class Scan:
    """The payload decoded into the structures the old bodies walked."""

    def __init__(self, payload: Mapping[str, object]) -> None:
        self.deal_edges: Dict[str, List[Edge]] = {
            deal_id: [] for deal_id in payload["deals"]
        }
        self.incident: Dict[NodeRef, Dict[int, Edge]] = {}
        self.name_index: Dict[str, Set[NodeRef]] = {}
        for raw in payload["edges"]:
            edge = Edge.from_dict(raw)
            self.deal_edges.setdefault(edge.deal_id, []).append(edge)
            self.incident.setdefault(edge.source, {})[id(edge)] = edge
            self.incident.setdefault(edge.target, {})[id(edge)] = edge
            if edge.kind == MEMBER_OF:
                key = name_key(str(edge.attrs.get("name") or ""))
                if key:
                    self.name_index.setdefault(key, set()).add(edge.source)

    def resolve_persons(self, text: str) -> List[NodeRef]:
        text = (text or "").strip()
        if not text:
            return []
        matches: Set[NodeRef] = set()
        if "@" in text:
            ref = NodeRef(PERSON, f"email:{normalize_email(text)}")
            if ref in self.incident:
                matches.add(ref)
        else:
            key = name_key(text)
            ref = NodeRef(PERSON, f"name:{key}")
            if ref in self.incident:
                matches.add(ref)
            matches.update(self.name_index.get(key, ()))
        return sorted(matches)

    def memberships(self, ref: NodeRef) -> List[Edge]:
        return [
            edge for edge in self.incident.get(ref, {}).values()
            if edge.kind == MEMBER_OF and edge.source == ref
        ]

    def deal_members(self, deal_id: str) -> List[Edge]:
        return [
            edge for edge in self.deal_edges.get(deal_id, [])
            if edge.kind == MEMBER_OF
        ]

    def person_name(self, ref: NodeRef) -> str:
        counts: Dict[str, int] = {}
        for edge in self.memberships(ref):
            name = str(edge.attrs.get("name") or "")
            if name:
                counts[name] = counts.get(name, 0) + 1
        if not counts:
            return ref.key.partition(":")[2]
        return min(counts, key=lambda name: (-counts[name], name))

    def evidence_list(
        self, per_person: Dict[NodeRef, Dict[str, set]]
    ) -> List[dict]:
        people = [
            {
                "key": ref.key,
                "name": self.person_name(ref),
                "deals": sorted(slot["deals"]),
                "roles": sorted(slot["roles"]),
                "provenance": sorted(slot["provenance"]),
                "evidence": sorted(slot["evidence"]),
            }
            for ref, slot in per_person.items()
        ]
        people.sort(key=lambda p: (-len(p["deals"]), p["name"], p["key"]))
        return people


def _collect(
    per_person: Dict[NodeRef, Dict[str, set]],
    edge: Edge,
    extra: Optional[str] = None,
) -> None:
    slot = per_person.setdefault(
        edge.source,
        {"deals": set(), "roles": set(), "provenance": set(),
         "evidence": set()},
    )
    slot["deals"].add(edge.deal_id)
    role = str(edge.attrs.get("role") or "")
    if role:
        slot["roles"].add(role)
    slot["provenance"].add(edge.provenance.cite())
    if extra:
        slot["evidence"].add(extra)


def person_name(scan: Scan, person: str) -> str:
    """Display name of the person node ``person`` (most mentions, ties
    lexicographically smallest), derived from its membership edges."""
    return scan.person_name(NodeRef(PERSON, person))


def worked_with(
    scan: Scan, person: str, limit: Optional[int] = None
) -> dict:
    refs = scan.resolve_persons(person)
    deals: Set[str] = set()
    for ref in refs:
        deals.update(edge.deal_id for edge in scan.memberships(ref))
    per_person: Dict[NodeRef, Dict[str, set]] = {}
    for deal_id in deals:
        for edge in scan.deal_members(deal_id):
            if edge.source in refs:
                continue
            _collect(per_person, edge)
    colleagues = [
        {
            "key": ref.key,
            "name": scan.person_name(ref),
            "shared_deals": sorted(slot["deals"]),
            "roles": sorted(slot["roles"]),
            "provenance": sorted(slot["provenance"]),
            "overlap": 0.0,
        }
        for ref, slot in per_person.items()
    ]
    colleagues.sort(
        key=lambda c: (-len(c["shared_deals"]), c["name"], c["key"])
    )
    return {
        "query": person,
        "persons": [ref.key for ref in refs],
        "deals": sorted(deals),
        "colleagues": colleagues[:limit],
    }


def role_capacity(
    scan: Scan, role: str, limit: Optional[int] = None
) -> dict:
    canonical = normalize_role(role or "")
    wanted = canonical.lower()
    per_person: Dict[NodeRef, Dict[str, set]] = {}
    for edges in scan.deal_edges.values():
        for edge in edges:
            if edge.kind != MEMBER_OF:
                continue
            held = str(edge.attrs.get("role") or "").lower()
            if held == wanted and wanted:
                _collect(per_person, edge)
    people = scan.evidence_list(per_person)
    return {"query": role, "role": canonical, "people": people[:limit]}


def expertise(
    scan: Scan, topic: str, limit: Optional[int] = None
) -> dict:
    needle = (topic or "").strip().lower()
    matched = sorted(
        ref for ref in scan.incident
        if ref.kind in (TECHNOLOGY, TOWER)
        and needle and needle in ref.key
    )
    deal_evidence: Dict[str, Set[str]] = {}
    for ref in matched:
        for edge in scan.incident.get(ref, {}).values():
            if edge.kind in (USES, IN_SCOPE):
                deal_evidence.setdefault(
                    edge.deal_id, set()
                ).add(f"{ref.kind}:{ref.key}")
    per_person: Dict[NodeRef, Dict[str, set]] = {}
    for deal_id, evidence in deal_evidence.items():
        for edge in scan.deal_members(deal_id):
            for item in evidence:
                _collect(per_person, edge, extra=item)
    people = scan.evidence_list(per_person)
    return {
        "query": topic,
        "matched": [f"{ref.kind}:{ref.key}" for ref in matched],
        "people": people[:limit],
    }


def team_overlap(
    scan: Scan, person: str, limit: Optional[int] = None
) -> dict:
    refs = scan.resolve_persons(person)
    my_deals: Set[str] = set()
    for ref in refs:
        my_deals.update(edge.deal_id for edge in scan.memberships(ref))
    per_person: Dict[NodeRef, Dict[str, set]] = {}
    for deal_id in my_deals:
        for edge in scan.deal_members(deal_id):
            if edge.source in refs:
                continue
            _collect(per_person, edge)
    colleagues = []
    for ref, slot in per_person.items():
        their_deals = {
            edge.deal_id for edge in scan.memberships(ref)
        }
        union = my_deals | their_deals
        shared = slot["deals"]
        colleagues.append({
            "key": ref.key,
            "name": scan.person_name(ref),
            "shared_deals": sorted(shared),
            "roles": sorted(slot["roles"]),
            "provenance": sorted(slot["provenance"]),
            "overlap": len(shared) / len(union) if union else 0.0,
        })
    colleagues.sort(
        key=lambda c: (
            -c["overlap"], -len(c["shared_deals"]), c["name"], c["key"]
        )
    )
    return {
        "query": person,
        "persons": [ref.key for ref in refs],
        "colleagues": colleagues[:limit],
    }


#: Traversal name (the ``EntityGraph`` method) -> its oracle.
ANSWERS = {
    "worked_with": worked_with,
    "role_capacity": role_capacity,
    "expertise": expertise,
    "team_overlap": team_overlap,
}
