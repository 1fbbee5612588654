"""The EIL entity graph: materialization, queries, persistence.

:class:`EntityGraph` is the people-and-role search substrate the
ROADMAP calls for: the Social Networking Annotator's rolled-up contact
lists, the scope CPE's tower rankings and the synopsis technology rows,
materialized as one typed graph (person—deal—tower—technology) that
answers the meta-query classes flat per-deal lists cannot:

* :meth:`worked_with` — "who has worked with X across deals"
  (meta-query 2, Figure 7's three-step keyword episode in one hop);
* :meth:`role_capacity` — "who has worked in the capacity of R"
  (meta-query 3) with the deals as evidence;
* :meth:`expertise` — "who knows technology/service T", a traversal
  from technology and tower nodes through deals to people;
* :meth:`team_overlap` — colleagues of X ranked by how much of their
  deal history is shared (Jaccard overlap).

Consistency contract (the same one the search engine keeps):

* every mutation (:meth:`index_deal`, :meth:`remove_deal`) runs under
  the write side of a :class:`~repro.concurrency.ReadWriteLock` and
  bumps :attr:`epoch`; every query runs under the read side, so a
  query's view of (epoch, graph state) is a consistent snapshot while
  ``EILSystem.add_workbook`` / ``remove_deal`` mutate concurrently;
* every edge cites the organized-information row it came from, so
  graph answers are provably consistent with the per-deal contact
  lists — the equivalence suite asserts it row by row;
* serialization is canonical (sorted nodes, edges and keys, in the
  checksummed :func:`~repro.storage.atomic.encode_document` envelope
  every saved JSON file uses), so ``save`` → ``load`` → ``save`` is
  bit-identical and cold starts reload the exact graph that was
  persisted.

Metrics (``repro stats`` vocabulary): ``graph.nodes`` /
``graph.edges`` / ``graph.deals`` gauges after every mutation,
``graph.queries`` + ``graph.queries.<class>`` counters and the
``graph.query_seconds`` histogram around every query.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.concurrency import AtomicCounter, ReadWriteLock
from repro.errors import StorageError
from repro.graph.model import (
    DEAL,
    IN_SCOPE,
    MEMBER_OF,
    PERSON,
    TECHNOLOGY,
    TOWER,
    USES,
    Edge,
    NodeRef,
    Provenance,
    person_key,
)
from repro.obs import CounterHandle, GaugeHandle, HistogramHandle
from repro.storage.atomic import (
    atomic_write_text,
    encode_document,
    read_manifest,
)
from repro.text.normalize import name_key, normalize_email, normalize_role

__all__ = [
    "Colleague",
    "PersonEvidence",
    "WorkedWithAnswer",
    "RoleCapacityAnswer",
    "ExpertiseAnswer",
    "TeamOverlapAnswer",
    "EntityGraph",
]

_DEALS = GaugeHandle("graph.deals")
_DEALS_INDEXED = CounterHandle("graph.deals_indexed")
_DEALS_REMOVED = CounterHandle("graph.deals_removed")
_EDGES = GaugeHandle("graph.edges")
_NODES = GaugeHandle("graph.nodes")
_QUERIES = CounterHandle("graph.queries")
_QUERIES_OF_KIND = {
    kind: CounterHandle(f"graph.queries.{kind}")
    for kind in ("worked_with", "role_capacity", "expertise", "team_overlap")
}
_QUERY_SECONDS = HistogramHandle("graph.query_seconds")

_GRAPH_FORMAT = "repro-entity-graph"
_GRAPH_VERSION = 2


@dataclass
class Colleague:
    """One co-worker of the queried person.

    Attributes:
        key: The colleague's person-node key.
        name: Display name (most-mentioned, ties broken
            lexicographically).
        shared_deals: Deals both people worked on, sorted.
        roles: Distinct roles the colleague held on those deals.
        provenance: Citations of the contact rows backing the shared
            memberships (``contacts:<id>``).
        overlap: Jaccard overlap of deal histories; 0.0 unless ranked
            by :meth:`EntityGraph.team_overlap`.
    """

    key: str
    name: str
    shared_deals: List[str]
    roles: List[str]
    provenance: List[str]
    overlap: float = 0.0


@dataclass
class PersonEvidence:
    """One person plus the deals/rows that justify the answer.

    Attributes:
        key: Person-node key.
        name: Display name.
        deals: Supporting deal ids, sorted.
        roles: Distinct roles held on those deals.
        provenance: Contact-row citations for the memberships.
        evidence: For expertise answers: the matched technology/tower
            node keys reached through each deal.
    """

    key: str
    name: str
    deals: List[str]
    roles: List[str]
    provenance: List[str]
    evidence: List[str] = field(default_factory=list)


@dataclass
class WorkedWithAnswer:
    """Meta-query 2 over the graph: X's deals and colleagues."""

    query: str
    persons: List[str]
    deals: List[str]
    colleagues: List[Colleague]


@dataclass
class RoleCapacityAnswer:
    """Meta-query 3 over the graph: who held a role, with evidence."""

    query: str
    role: str
    people: List[PersonEvidence]


@dataclass
class ExpertiseAnswer:
    """Expertise lookup: people reached through matching tech/towers."""

    query: str
    matched: List[str]
    people: List[PersonEvidence]


@dataclass
class TeamOverlapAnswer:
    """Colleagues of X ranked by Jaccard overlap of deal histories."""

    query: str
    persons: List[str]
    colleagues: List[Colleague]


def _check_limit(limit: Optional[int]) -> None:
    if limit is not None and limit < 0:
        raise ValueError(
            f"limit must be None or >= 0, got {limit!r}"
        )


def _top(limit: Optional[int], keys: List[tuple]) -> List[tuple]:
    """The ``limit`` smallest rank keys in order (all of them if None).

    Every rank key ends in the person key, which is unique among the
    candidates, so the keys are totally ordered and selecting the
    smallest ``limit`` is exactly sorting and slicing.
    """
    if limit is None:
        return sorted(keys)
    return heapq.nsmallest(limit, keys)


def _role_of(edge: Edge) -> str:
    return str(edge.attrs.get("role") or "")


def _roles_held(edges: List[Edge]) -> Set[str]:
    """The filled roles on ``edges``, lowered (how roles are matched)."""
    return {_role_of(edge).lower() for edge in edges} - {""}


def _summarise(
    by_deal: Mapping[str, List[Edge]]
) -> Tuple[List[str], List[str], List[str]]:
    """Sorted deals, distinct roles and citations of membership edges."""
    roles: Set[str] = set()
    cites: Set[str] = set()
    for edges in by_deal.values():
        for edge in edges:
            role = _role_of(edge)
            if role:
                roles.add(role)
            cites.add(edge.provenance.cite())
    return sorted(by_deal), sorted(roles), sorted(cites)


def _bump(
    index: Dict[str, Dict[str, int]], key: str, person: str, delta: int
) -> None:
    """Move ``person``'s reference count under ``index[key]``."""
    holders = index.setdefault(key, {})
    count = holders.get(person, 0) + delta
    if count > 0:
        holders[person] = count
    else:
        holders.pop(person, None)
        if not holders:
            del index[key]


class EntityGraph:
    """The typed entity graph (see the module docstring)."""

    def __init__(self) -> None:
        self._lock = ReadWriteLock()
        self._epoch = AtomicCounter()
        # Every edge is owned by exactly one deal, so everything below
        # is moved by _attach / _detach in O(edges of the deal).  Person
        # nodes are held by key (the NodeRef kind is implied).
        self._deal_edges: Dict[str, List[Edge]] = {}
        self._deal_attrs: Dict[str, Dict[str, object]] = {}
        self._edge_count = 0
        # One (person, deal) -> member_of edges relation, reachable
        # from either side; both maps share the edge lists.
        self._memberships: Dict[str, Dict[str, List[Edge]]] = {}
        self._deal_members: Dict[str, Dict[str, List[Edge]]] = {}
        # lowered role -> person -> number of deals they held it on.
        self._role_holders: Dict[str, Dict[str, int]] = {}
        # tower / technology node -> deals with an edge into it.
        self._topic_deals: Dict[NodeRef, Set[str]] = {}
        # name_key -> person -> number of membership edges carrying
        # that display name (resolves "Sam White" to an email-keyed
        # node); _deal_name_keys remembers each deal's normalised
        # (name_key, person) pairs for removal.
        self._name_index: Dict[str, Dict[str, int]] = {}
        self._deal_name_keys: Dict[str, List[Tuple[str, str]]] = {}
        # person -> display name, rewritten by the mutation that
        # changes the person's memberships.
        self._names: Dict[str, str] = {}

    # -- epoch / introspection ----------------------------------------------

    @property
    def epoch(self) -> int:
        """Mutation epoch; bumped by every index/remove."""
        return self._epoch.value

    def deal_ids(self) -> List[str]:
        """Indexed deals, sorted."""
        with self._lock.read():
            return sorted(self._deal_attrs)

    def stats(self) -> Dict[str, object]:
        """Node/edge counts by kind (one consistent snapshot)."""
        with self._lock.read():
            nodes = {
                DEAL: len(self._deal_attrs),
                PERSON: len(self._memberships),
            }
            for ref in self._topic_deals:
                nodes[ref.kind] = nodes.get(ref.kind, 0) + 1
            edges: Dict[str, int] = {}
            for deal_edges in self._deal_edges.values():
                for edge in deal_edges:
                    edges[edge.kind] = edges.get(edge.kind, 0) + 1
            return {
                "deals": len(self._deal_attrs),
                "nodes": sum(nodes.values()),
                "edges": sum(edges.values()),
                "nodes_by_kind": {
                    k: nodes[k] for k in sorted(nodes) if nodes[k]
                },
                "edges_by_kind": {k: edges[k] for k in sorted(edges)},
                "epoch": self.epoch,
            }

    # -- materialization ----------------------------------------------------

    def index_deal(
        self,
        deal_id: str,
        deal_row: Optional[Mapping[str, object]],
        contact_rows: Iterable[Mapping[str, object]],
        scope_rows: Iterable[Mapping[str, object]] = (),
        technology_rows: Iterable[Mapping[str, object]] = (),
    ) -> int:
        """(Re)index one deal's subgraph from organized-information rows.

        Idempotent: any existing subgraph for ``deal_id`` is dropped
        first, so re-running after ``add_workbook`` upserts never
        duplicates edges.  Returns the number of edges indexed.
        """
        edges: List[Edge] = []
        deal_node = NodeRef(DEAL, deal_id)
        for row in contact_rows:
            name = str(row.get("name") or "")
            email = normalize_email(str(row.get("email") or ""))
            key = person_key(name, email)
            if key is None:
                continue
            edges.append(Edge(
                kind=MEMBER_OF,
                source=NodeRef(PERSON, key),
                target=deal_node,
                deal_id=deal_id,
                provenance=Provenance(
                    "contacts", str(row.get("contact_id"))
                ),
                attrs={
                    "name": name or email,
                    "email": email,
                    "role": str(row.get("role") or ""),
                    "category": str(row.get("category") or ""),
                    "validated": bool(row.get("validated")),
                },
            ))
        for row in scope_rows:
            tower = str(row.get("tower") or row.get("canonical") or "")
            if not tower:
                continue
            rank = row.get("rank")
            edges.append(Edge(
                kind=IN_SCOPE,
                source=deal_node,
                target=NodeRef(TOWER, tower.lower()),
                deal_id=deal_id,
                provenance=Provenance(
                    "deal_scopes", f"{deal_id}#{rank}"
                ),
                attrs={
                    "tower": tower,
                    "canonical": str(row.get("canonical") or ""),
                    "weight": float(row.get("weight") or 0.0),
                    "rank": int(rank or 0),
                },
            ))
        for row in technology_rows:
            term = str(row.get("term") or "")
            if not term:
                continue
            edges.append(Edge(
                kind=USES,
                source=deal_node,
                target=NodeRef(TECHNOLOGY, term.lower()),
                deal_id=deal_id,
                provenance=Provenance(
                    "technologies", str(row.get("technology_id"))
                ),
                attrs={
                    "term": term,
                    "tower": str(row.get("tower") or ""),
                },
            ))
        attrs = {
            "name": str((deal_row or {}).get("name") or deal_id),
            "customer": (deal_row or {}).get("customer"),
            "industry": (deal_row or {}).get("industry"),
        }
        with self._lock.write():
            touched = self._detach(deal_id)
            touched.update(self._attach(deal_id, attrs, edges))
            self._rename(touched)
            self._epoch.increment()
            self._set_gauges_locked()
        _DEALS_INDEXED.inc()
        return len(edges)

    def remove_deal(self, deal_id: str) -> int:
        """Drop one deal's subgraph; orphaned nodes disappear with it.

        Returns the number of edges removed.
        """
        with self._lock.write():
            edges = self._deal_edges.get(deal_id)
            if edges is not None:
                self._rename(self._detach(deal_id))
                self._epoch.increment()
                self._set_gauges_locked()
        if edges is None:
            return 0
        _DEALS_REMOVED.inc()
        return len(edges)

    # _attach and _detach are the only code that moves the maintained
    # structures; the caller holds the write lock and passes the people
    # they return to _rename.

    def _attach(
        self, deal_id: str, attrs: Dict[str, object], edges: List[Edge]
    ) -> Iterable[str]:
        """Add one deal's subgraph; returns the people it touches."""
        self._deal_attrs[deal_id] = attrs
        self._deal_edges[deal_id] = edges
        self._edge_count += len(edges)
        members = self._deal_members[deal_id] = {}
        name_keys = self._deal_name_keys[deal_id] = []
        for edge in edges:
            if edge.kind != MEMBER_OF:
                self._topic_deals.setdefault(
                    edge.target, set()
                ).add(deal_id)
                continue
            person = edge.source.key
            mine = members.get(person)
            if mine is None:
                mine = members[person] = []
                self._memberships.setdefault(person, {})[deal_id] = mine
            mine.append(edge)
            key = name_key(str(edge.attrs.get("name") or ""))
            if key:
                _bump(self._name_index, key, person, 1)
                name_keys.append((key, person))
        for person, mine in members.items():
            for role in _roles_held(mine):
                _bump(self._role_holders, role, person, 1)
        return members

    def _detach(self, deal_id: str) -> Set[str]:
        """Drop one deal's subgraph; returns the people it touched."""
        self._deal_attrs.pop(deal_id, None)
        edges = self._deal_edges.pop(deal_id, ())
        self._edge_count -= len(edges)
        for edge in edges:
            if edge.kind == MEMBER_OF:
                continue
            # None once an earlier edge of the deal emptied the topic.
            deals = self._topic_deals.get(edge.target)
            if deals is not None:
                deals.discard(deal_id)
                if not deals:
                    del self._topic_deals[edge.target]
        members = self._deal_members.pop(deal_id, {})
        for person, mine in members.items():
            by_deal = self._memberships[person]
            del by_deal[deal_id]
            if not by_deal:
                del self._memberships[person]
            for role in _roles_held(mine):
                _bump(self._role_holders, role, person, -1)
        for key, person in self._deal_name_keys.pop(deal_id, ()):
            _bump(self._name_index, key, person, -1)
        return set(members)

    def _rename(self, people: Iterable[str]) -> None:
        """Recompute the display name of each of ``people``.

        Most mentions, ties lexicographically smallest — a function of
        the person's membership edges alone, so the result is
        independent of indexing order (incremental ``add_workbook`` and
        a full rebuild agree).
        """
        for person in people:
            by_deal = self._memberships.get(person)
            if by_deal is None:
                self._names.pop(person, None)
                continue
            counts: Dict[str, int] = {}
            for edges in by_deal.values():
                for edge in edges:
                    name = str(edge.attrs.get("name") or "")
                    if name:
                        counts[name] = counts.get(name, 0) + 1
            self._names[person] = (
                min(counts, key=lambda name: (-counts[name], name))
                if counts else person.partition(":")[2]
            )

    def _set_gauges_locked(self) -> None:
        _DEALS.set(len(self._deal_attrs))
        _NODES.set(
            len(self._deal_attrs) + len(self._memberships)
            + len(self._topic_deals)
        )
        _EDGES.set(self._edge_count)

    # -- shared traversal helpers (caller holds the read lock) --------------

    def _resolve_persons_locked(self, text: str) -> List[str]:
        """Person keys matching ``text`` (email, key, or display name)."""
        text = (text or "").strip()
        if not text:
            return []
        if "@" in text:
            person = f"email:{normalize_email(text)}"
            return [person] if person in self._memberships else []
        key = name_key(text)
        matches = set(self._name_index.get(key, ()))
        if f"name:{key}" in self._memberships:
            matches.add(f"name:{key}")
        return sorted(matches)

    def _colleagues_locked(
        self, persons: List[str]
    ) -> Tuple[Set[str], Dict[str, int]]:
        """``persons``' deals, and per co-member how many they share."""
        deals: Set[str] = set()
        for person in persons:
            deals.update(self._memberships[person])
        shared: Dict[str, int] = {}
        for deal_id in deals:
            for person in self._deal_members[deal_id]:
                shared[person] = shared.get(person, 0) + 1
        for person in persons:
            del shared[person]
        return deals, shared

    def _ranked_locked(
        self, counts: Mapping[str, int], limit: Optional[int]
    ) -> List[Tuple[int, str, str]]:
        """The top ``limit`` of ``counts``: most supporting deals first,
        then display name, then key."""
        names = self._names
        return _top(limit, [
            (-count, names[person], person)
            for person, count in counts.items()
        ])

    def _colleague_locked(
        self, person: str, deals: Set[str], overlap: float = 0.0
    ) -> Colleague:
        mine = self._memberships[person]
        shared_deals, roles, provenance = _summarise(
            {deal_id: mine[deal_id] for deal_id in mine.keys() & deals}
        )
        return Colleague(
            person, self._names[person], shared_deals, roles,
            provenance, overlap,
        )

    # -- queries -------------------------------------------------------------
    #
    # Each traversal ranks first — accumulating per candidate only the
    # count its rank key needs — and builds answer objects (sorted
    # deals, roles, citations) for the ``limit`` survivors alone.

    def worked_with(
        self, person: str, limit: Optional[int] = None
    ) -> WorkedWithAnswer:
        """Meta-query 2: everyone who shared a deal with ``person``.

        One traversal replaces Figure 7's three-step keyword episode:
        person → deals → co-members, each colleague carrying the roles
        they held and the contact rows that prove the membership.
        """
        _check_limit(limit)
        with self._query("worked_with"), self._lock.read():
            persons = self._resolve_persons_locked(person)
            deals, shared = self._colleagues_locked(persons)
            return WorkedWithAnswer(
                query=person,
                persons=persons,
                deals=sorted(deals),
                colleagues=[
                    self._colleague_locked(key, deals)
                    for _, _, key in self._ranked_locked(shared, limit)
                ],
            )

    def role_capacity(
        self, role: str, limit: Optional[int] = None
    ) -> RoleCapacityAnswer:
        """Meta-query 3: who has worked in the capacity of ``role``.

        The role is canonicalized the same way the rollup canonicalized
        it at extraction time (``normalize_role``), so "cross tower
        TSA" and "Cross Tower Technical Solution Architect" answer
        identically — and, unlike the paper's keyword baseline, only
        *filled* roles match (no 149-empty-form-field trap).
        """
        _check_limit(limit)
        canonical = normalize_role(role or "")
        wanted = canonical.lower()
        with self._query("role_capacity"), self._lock.read():
            ranked = self._ranked_locked(
                self._role_holders.get(wanted, {}), limit
            )
            people = []
            for _, name, key in ranked:
                by_deal = {}
                for deal_id, edges in self._memberships[key].items():
                    held = [
                        edge for edge in edges
                        if _role_of(edge).lower() == wanted
                    ]
                    if held:
                        by_deal[deal_id] = held
                people.append(PersonEvidence(key, name, *_summarise(by_deal)))
            return RoleCapacityAnswer(
                query=role, role=canonical, people=people
            )

    def expertise(
        self, topic: str, limit: Optional[int] = None
    ) -> ExpertiseAnswer:
        """Expertise lookup: people on deals that used ``topic``.

        ``topic`` matches technology terms and tower names
        (case-insensitive substring), then the traversal walks
        technology/tower → deals → people; each person's evidence
        names the matched nodes their deals reached.
        """
        _check_limit(limit)
        needle = (topic or "").strip().lower()
        with self._query("expertise"), self._lock.read():
            matched = sorted(
                ref for ref in self._topic_deals if needle in ref.key
            ) if needle else []
            deal_evidence: Dict[str, Set[str]] = {}
            for ref in matched:
                item = f"{ref.kind}:{ref.key}"
                for deal_id in self._topic_deals[ref]:
                    deal_evidence.setdefault(deal_id, set()).add(item)
            supporting: Dict[str, int] = {}
            for deal_id in deal_evidence:
                for person in self._deal_members[deal_id]:
                    supporting[person] = supporting.get(person, 0) + 1
            people = []
            for _, name, key in self._ranked_locked(supporting, limit):
                mine = self._memberships[key]
                by_deal = {
                    deal_id: mine[deal_id]
                    for deal_id in mine.keys() & deal_evidence.keys()
                }
                evidence: Set[str] = set()
                for deal_id in by_deal:
                    evidence |= deal_evidence[deal_id]
                people.append(PersonEvidence(
                    key, name, *_summarise(by_deal), sorted(evidence)
                ))
            return ExpertiseAnswer(
                query=topic,
                matched=[f"{ref.kind}:{ref.key}" for ref in matched],
                people=people,
            )

    def team_overlap(
        self, person: str, limit: Optional[int] = None
    ) -> TeamOverlapAnswer:
        """Colleagues of ``person`` ranked by Jaccard deal overlap.

        Distinguishes "worked every deal together" from "crossed paths
        once" — the ranking the flat contact lists cannot express.
        """
        _check_limit(limit)
        with self._query("team_overlap"), self._lock.read():
            persons = self._resolve_persons_locked(person)
            deals, shared = self._colleagues_locked(persons)
            mine, theirs, names = len(deals), self._memberships, self._names
            ranked = _top(limit, [
                # Jaccard on distinct deals: |A ∪ B| = |A| + |B| - |A ∩ B|.
                (-(count / (mine + len(theirs[key]) - count)), -count,
                 names[key], key)
                for key, count in shared.items()
            ])
            return TeamOverlapAnswer(
                query=person,
                persons=persons,
                colleagues=[
                    self._colleague_locked(key, deals, -negated)
                    for negated, _, _, key in ranked
                ],
            )

    def _query(self, kind: str):
        _QUERIES.inc()
        _QUERIES_OF_KIND[kind].inc()
        return _QUERY_SECONDS.timer()

    # -- persistence ---------------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """Canonical JSON-serializable snapshot (sorted deals/edges)."""
        with self._lock.read():
            edges: List[Edge] = []
            for deal_edges in self._deal_edges.values():
                edges.extend(deal_edges)
            edges.sort(key=Edge.sort_key)
            return {
                "deals": {
                    deal_id: {
                        k: self._deal_attrs[deal_id][k]
                        for k in sorted(self._deal_attrs[deal_id])
                    }
                    for deal_id in sorted(self._deal_attrs)
                },
                "edges": [edge.to_dict() for edge in edges],
            }

    def dumps(self) -> str:
        """The canonical on-disk document: :meth:`to_payload` in the
        :func:`~repro.storage.atomic.encode_document` envelope."""
        return encode_document(
            _GRAPH_FORMAT, _GRAPH_VERSION, self.to_payload()
        )

    def save(self, path: str) -> None:
        """Atomically persist the graph (temp + fsync + rename)."""
        atomic_write_text(path, self.dumps())

    @classmethod
    def load(cls, path: str) -> "EntityGraph":
        """Read a :meth:`save` file back; raises StorageError naming
        ``path`` on damage, a well-enveloped payload of the wrong shape
        included."""
        payload = read_manifest(path, _GRAPH_FORMAT, _GRAPH_VERSION)
        deals = payload.get("deals")
        edges = payload.get("edges")
        if not isinstance(deals, dict) or not isinstance(edges, list):
            raise StorageError(
                f"malformed {path}: 'deals' must be an object and 'edges' "
                f"a list, got {type(deals).__name__} and "
                f"{type(edges).__name__}"
            )
        try:
            by_deal: Dict[str, List[Edge]] = {
                deal_id: [] for deal_id in deals
            }
            for raw in edges:
                edge = Edge.from_dict(raw)
                by_deal.setdefault(edge.deal_id, []).append(edge)
            attrs_of = {
                deal_id: dict(deals.get(deal_id) or {"name": deal_id})
                for deal_id in by_deal
            }
        except (KeyError, IndexError, TypeError, ValueError,
                AttributeError) as exc:
            raise StorageError(f"malformed {path}: {exc!r}") from exc
        graph = cls()
        with graph._lock.write():
            touched: Set[str] = set()
            for deal_id in sorted(by_deal):
                touched.update(
                    graph._attach(deal_id, attrs_of[deal_id], by_deal[deal_id])
                )
            graph._rename(touched)
            graph._epoch.increment()
            graph._set_gauges_locked()
        return graph
