"""Unit tests for the entity-graph data model (repro.graph.model)."""

import pytest

from repro.core.metaqueries import (
    GRAPH_QUERY_KINDS,
    GraphQuery,
    graph_worked_with_query,
)
from repro.graph.model import (
    DEAL,
    MEMBER_OF,
    PERSON,
    Edge,
    NodeRef,
    Provenance,
    person_key,
)


class TestPersonKey:
    def test_email_is_the_strongest_identity(self):
        assert person_key("Sam White", "Sam.White@ABC.com ") == (
            "email:sam.white@abc.com"
        )

    def test_name_key_fallback_is_order_insensitive(self):
        assert person_key("Sam White") == person_key("White, Sam")
        assert person_key("Sam White").startswith("name:")

    def test_nothing_to_key_returns_none(self):
        assert person_key("") is None
        assert person_key("", "") is None

    def test_mirrors_contact_rollup_dedup_key(self):
        """The equivalence guarantee hinges on this exact parity."""
        from repro.annotators.social import ContactRecord, ContactRollup

        cases = [
            ("Sam White", "sam.white@abc.com"),
            ("White, Sam", ""),
            ("", "anon@abc.com"),
        ]
        for name, email in cases:
            record = ContactRecord(deal_id="d", name=name, email=email)
            assert person_key(name, email) == (
                ContactRollup._dedup_key(record)
            )


class TestNodeRefAndProvenance:
    def test_refs_are_hashable_and_ordered(self):
        a = NodeRef(PERSON, "email:a@x.com")
        b = NodeRef(PERSON, "email:b@x.com")
        assert a == NodeRef(PERSON, "email:a@x.com")
        assert sorted([b, a]) == [a, b]
        assert len({a, NodeRef(PERSON, "email:a@x.com")}) == 1

    def test_cite_names_table_and_row(self):
        assert Provenance("contacts", "17").cite() == "contacts:17"


class TestEdge:
    def _edge(self):
        return Edge(
            kind=MEMBER_OF,
            source=NodeRef(PERSON, "email:a@x.com"),
            target=NodeRef(DEAL, "deal-1"),
            deal_id="deal-1",
            provenance=Provenance("contacts", "3"),
            attrs={"name": "Ann", "role": "Pricer"},
        )

    def test_round_trips_through_dict(self):
        edge = self._edge()
        clone = Edge.from_dict(edge.to_dict())
        assert clone.to_dict() == edge.to_dict()
        assert clone.sort_key() == edge.sort_key()

    def test_sort_key_orders_by_deal_kind_and_row(self):
        a, b, c = self._edge(), self._edge(), self._edge()
        b.provenance = Provenance("contacts", "1")
        c.deal_id = "deal-0"
        first = sorted([a, b, c], key=Edge.sort_key)
        second = sorted([c, a, b], key=Edge.sort_key)
        assert [e.to_dict() for e in first] == [
            e.to_dict() for e in second
        ]
        assert first[0].deal_id == "deal-0"


class TestGraphQuery:
    def test_valid_kinds(self):
        for kind in GRAPH_QUERY_KINDS:
            assert GraphQuery(kind, "x").kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown graph query"):
            GraphQuery("pagerank", "x")

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="limit must be"):
            GraphQuery("worked-with", "x", limit=-1)

    def test_zero_and_none_limits_are_valid(self):
        assert GraphQuery("worked-with", "x", limit=0).limit == 0
        assert GraphQuery("worked-with", "x").limit is None

    def test_builders_map_to_kinds(self):
        assert graph_worked_with_query("p").kind == "worked-with"
        assert graph_worked_with_query("p", limit=3).limit == 3

    def test_describe_names_kind_and_subject(self):
        assert "worked-with" in graph_worked_with_query("Sam").describe()
        assert "Sam" in graph_worked_with_query("Sam").describe()
