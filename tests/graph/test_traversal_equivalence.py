"""Maintained adjacency ⇄ scan-based oracle, under arbitrary histories.

``EntityGraph`` answers its four traversals from structures it keeps
up to date as deals come and go, and ranks before it builds answer
objects.  ``tests/reference/graph.py`` holds the bodies it replaced:
scan the edge list, materialise every candidate, sort, slice.  This
state machine drives both through index / re-index / remove / save →
load histories over a pool of rows built to collide, and after every
step requires

* every traversal × every subject × every limit to equal the oracle
  field for field;
* every maintained structure to equal what a rescan of the deal edge
  lists derives;
* the ``graph.*`` gauges to equal ``stats()``;
* ``dumps()`` to equal that of a graph built from scratch from the
  rows now in force (history leaves no trace).
"""

import dataclasses
import itertools
import os
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import obs
from repro.graph import EntityGraph
from repro.graph.model import MEMBER_OF
from repro.text.normalize import name_key
from tests.reference import graph as oracle

# One person under an email key (two spellings, tied on count when
# both rows are in force) and under a name key (two spellings that
# share the name key, so a deal holding both has two rows for one
# person); the same role in different case; an empty role; a row with
# an email only; a row that identifies nobody.
CONTACTS = [
    ("Sam White", "sam.white@abc.com", "Client Solution Executive"),
    ("Samuel White", "sam.white@abc.com", ""),
    ("Sam White", "", "client solution executive"),
    ("White, Sam", "", "Pricer"),
    ("Ann Gray", "ann.gray@abc.com", "Pricer"),
    ("Ann Gray", "Ann.Gray@ABC.com", "pricer"),
    ("Bea Stone", "", "Client Solution Executive"),
    ("Cy Young", "cy.young@abc.com", "PRICER"),
    ("", "anon@abc.com", ""),
    ("", "", "Pricer"),
]
# "network" is a substring of a tower and of two technologies; "VPN"
# and "vpn" are one technology node reached twice from one deal.
TOWERS = ["Network Services", "End User Services"]
TERMS = ["Network", "VPN network", "VPN", "vpn"]
DEALS = ["d1", "d2", "d3", "d4"]

PEOPLE = ["Sam White", "White, Sam", "Samuel White", "sam.white@abc.com",
          "Ann Gray", "ANN.GRAY@abc.com", "Bea Stone", "cy.young@abc.com",
          "anon@abc.com", "Zed Nobody", ""]
SUBJECTS = {
    "worked_with": PEOPLE,
    "team_overlap": PEOPLE,
    "role_capacity": ["Client Solution Executive", "CSE", "pricer",
                      "Janitor", ""],
    "expertise": ["network", "VPN", "services", "blockchain", ""],
}
LIMITS = (None, 0, 1, 3, 10)


def rescan(deal_edges):
    """Every maintained structure, derived from the deal edge lists."""
    expected = {
        "_edge_count": sum(len(edges) for edges in deal_edges.values()),
        "_memberships": {}, "_deal_members": {}, "_role_holders": {},
        "_topic_deals": {}, "_name_index": {}, "_deal_name_keys": {},
    }
    for deal_id, edges in deal_edges.items():
        members = expected["_deal_members"][deal_id] = {}
        name_keys = expected["_deal_name_keys"][deal_id] = []
        for edge in edges:
            if edge.kind != MEMBER_OF:
                expected["_topic_deals"].setdefault(
                    edge.target, set()
                ).add(deal_id)
                continue
            person = edge.source.key
            members.setdefault(person, []).append(edge)
            key = name_key(str(edge.attrs.get("name") or ""))
            if key:
                holders = expected["_name_index"].setdefault(key, {})
                holders[person] = holders.get(person, 0) + 1
                name_keys.append((key, person))
        for person, mine in members.items():
            expected["_memberships"].setdefault(person, {})[deal_id] = mine
            for role in {str(e.attrs.get("role") or "").lower()
                         for e in mine} - {""}:
                holders = expected["_role_holders"].setdefault(role, {})
                holders[person] = holders.get(person, 0) + 1
    return expected


def assert_indexes_match_rescan(graph):
    """The graph's maintained structures equal a rescan of its edges."""
    for name, value in rescan(graph._deal_edges).items():
        assert getattr(graph, name) == value, name
    assert set(graph._deal_attrs) == set(graph._deal_edges)
    scan = oracle.Scan(graph.to_payload())
    assert graph._names == {
        person: oracle.person_name(scan, person)
        for person in graph._memberships
    }


def assert_answers_match_oracle(graph, subjects=SUBJECTS, limits=LIMITS):
    scan = oracle.Scan(graph.to_payload())
    for kind, pool in subjects.items():
        for subject, limit in itertools.product(pool, limits):
            answer = getattr(graph, kind)(subject, limit)
            assert dataclasses.asdict(answer) == oracle.ANSWERS[kind](
                scan, subject, limit
            ), (kind, subject, limit)


def build(rows_by_deal):
    graph = EntityGraph()
    for deal_id in sorted(rows_by_deal):
        graph.index_deal(deal_id, *rows_by_deal[deal_id])
    return graph


class GraphHistories(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.registry = obs.use_registry()
        self.metrics = self.registry.__enter__()
        self.graph = EntityGraph()
        self.rows = {}  # deal_id -> index_deal's row arguments
        self.contact_ids = itertools.count(1)

    def teardown(self):
        self.registry.__exit__(None, None, None)

    @rule(
        deal_id=st.sampled_from(DEALS),
        contacts=st.lists(st.sampled_from(CONTACTS), max_size=6),
        towers=st.lists(st.sampled_from(TOWERS), max_size=2),
        terms=st.lists(st.sampled_from(TERMS), max_size=3),
        named=st.booleans(),
    )
    def index_deal(self, deal_id, contacts, towers, terms, named):
        """Index a new deal, or re-index a known one with other rows."""
        rows = (
            {"name": f"DEAL {deal_id}"} if named else None,
            [
                {"contact_id": next(self.contact_ids), "name": name,
                 "email": email, "role": role, "category": "people",
                 "validated": False}
                for name, email, role in contacts
            ],
            [
                {"tower": tower, "canonical": tower, "rank": rank,
                 "weight": 1.0}
                for rank, tower in enumerate(towers)
            ],
            [
                {"technology_id": f"{deal_id}-{i}", "term": term,
                 "tower": TOWERS[0]}
                for i, term in enumerate(terms)
            ],
        )
        epoch = self.graph.epoch
        edges = self.graph.index_deal(deal_id, *rows)
        self.rows[deal_id] = rows
        assert edges == len(self.graph._deal_edges[deal_id])
        assert self.graph.epoch == epoch + 1

    @precondition(lambda self: self.rows)
    @rule(data=st.data())
    def remove_deal(self, data):
        deal_id = data.draw(st.sampled_from(sorted(self.rows)))
        edges = len(self.graph._deal_edges[deal_id])
        epoch = self.graph.epoch
        assert self.graph.remove_deal(deal_id) == edges
        del self.rows[deal_id]
        assert self.graph.epoch == epoch + 1

    @rule()
    def remove_unknown_deal(self):
        epoch = self.graph.epoch
        assert self.graph.remove_deal("ghost") == 0
        assert self.graph.epoch == epoch

    @rule()
    def save_and_load(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "graph.json")
            self.graph.save(path)
            loaded = EntityGraph.load(path)
            assert loaded.dumps() == self.graph.dumps()
            loaded.save(path)
            with open(path, encoding="utf-8") as handle:
                assert handle.read() == self.graph.dumps()
        self.graph = loaded

    @invariant()
    def answers_equal_the_oracle(self):
        assert_answers_match_oracle(self.graph)

    @invariant()
    def indexes_equal_a_rescan(self):
        assert_indexes_match_rescan(self.graph)

    @invariant()
    def gauges_equal_stats(self):
        stats = self.graph.stats()
        assert self.graph.deal_ids() == sorted(self.rows)
        if self.graph.epoch == 0:
            return  # nothing has set a gauge yet
        for gauge in ("deals", "nodes", "edges"):
            assert (
                self.metrics.gauge(f"graph.{gauge}").value == stats[gauge]
            ), gauge

    @invariant()
    def history_leaves_no_trace(self):
        with obs.use_registry():  # keep the gauges the graph's own
            scratch = build(self.rows)
        assert self.graph.dumps() == scratch.dumps()


GraphHistories.TestCase.settings = settings(
    max_examples=25, stateful_step_count=12, deadline=None
)
TestGraphHistories = GraphHistories.TestCase


class TestPoolCollides:
    """The pool really contains the collisions the docstring promises."""

    @pytest.fixture
    def graph(self):
        return build({
            "d1": (None, [
                {"contact_id": i, "name": name, "email": email,
                 "role": role}
                for i, (name, email, role) in enumerate(CONTACTS)
            ], [{"tower": TOWERS[0], "rank": 0}],
                [{"technology_id": i, "term": term}
                 for i, term in enumerate(TERMS)]),
        })

    def test_one_name_resolves_to_an_email_node_and_a_name_node(
        self, graph
    ):
        persons = graph.worked_with("Sam White").persons
        assert [p.partition(":")[0] for p in persons] == ["email", "name"]

    def test_a_deal_holds_two_rows_for_one_person(self, graph):
        assert any(
            len(edges) > 1
            for edges in graph._deal_members["d1"].values()
        )

    def test_tied_spellings_take_the_lexicographically_smallest(
        self, graph
    ):
        assert graph._names["email:sam.white@abc.com"] == "Sam White"
        assert graph._names[f"name:{name_key('Sam White')}"] == "Sam White"

    def test_one_role_in_three_cases_is_one_capacity(self, graph):
        people = graph.role_capacity("pricer").people
        assert sorted(
            role for person in people for role in person.roles
        ) == ["PRICER", "Pricer", "Pricer", "pricer"]

    def test_a_topic_matches_a_tower_and_technologies(self, graph):
        assert graph.expertise("network").matched == [
            "technology:network", "technology:vpn network",
            "tower:network services",
        ]
        assert graph.stats()["edges_by_kind"]["uses"] == 4
        assert graph.stats()["nodes_by_kind"]["technology"] == 3
