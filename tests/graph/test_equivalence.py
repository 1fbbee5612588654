"""Graph ⇄ contact-list equivalence on a real built system.

The acceptance contract for the entity graph: its answers are provably
consistent with the per-deal contact lists the Social Networking
Annotator rolled up.  These tests check the equivalence row by row —
every membership edge cites an existing ``contacts`` row and vice
versa — and then assert MQ2/MQ3 graph answers agree with answers
recomputed directly from the relational store.
"""

import pytest

from repro import CorpusConfig, CorpusGenerator, EILSystem
from repro.graph import build_graph
from repro.graph.model import MEMBER_OF, person_key


@pytest.fixture(scope="module")
def world():
    corpus = CorpusGenerator(
        CorpusConfig(seed=2008, n_deals=5, docs_per_deal=14)
    ).generate()
    return corpus, EILSystem.build(corpus)


def membership_edges(eil, deal_id):
    return [
        edge for edge in eil.graph._deal_edges.get(deal_id, [])
        if edge.kind == MEMBER_OF
    ]


class TestRowByRowEquivalence:
    def test_every_contact_row_has_exactly_one_edge(self, world):
        _, eil = world
        for deal_id in eil.deal_ids():
            rows = eil.organized.contacts_of(deal_id)
            edges = membership_edges(eil, deal_id)
            cited = {edge.provenance.cite() for edge in edges}
            expected = {
                f"contacts:{row['contact_id']}"
                for row in rows
                if person_key(str(row["name"] or ""),
                              str(row["email"] or "")) is not None
            }
            assert cited == expected
            assert len(edges) == len(cited)

    def test_edges_carry_the_rows_identity_and_role(self, world):
        _, eil = world
        for deal_id in eil.deal_ids():
            by_cite = {
                f"contacts:{row['contact_id']}": row
                for row in eil.organized.contacts_of(deal_id)
            }
            for edge in membership_edges(eil, deal_id):
                row = by_cite[edge.provenance.cite()]
                assert edge.source.key == person_key(
                    str(row["name"] or ""), str(row["email"] or "")
                )
                assert edge.attrs["role"] == (row["role"] or "")
                assert edge.target.key == deal_id

    def test_graph_person_merges_match_rollup_dedup(self, world):
        """One node per dedup key per deal — no splits, no extras."""
        _, eil = world
        for deal_id in eil.deal_ids():
            row_keys = {
                person_key(str(row["name"] or ""),
                           str(row["email"] or ""))
                for row in eil.organized.contacts_of(deal_id)
            } - {None}
            edge_keys = {
                edge.source.key
                for edge in membership_edges(eil, deal_id)
            }
            assert edge_keys == row_keys


def deals_mentioning(eil, key):
    """Deal ids whose contact list contains the person, from the DB."""
    return sorted(
        deal_id
        for deal_id in eil.deal_ids()
        if any(
            person_key(str(r["name"] or ""), str(r["email"] or "")) == key
            for r in eil.organized.contacts_of(deal_id)
        )
    )


class TestMetaQueryEquivalence:
    def test_mq2_worked_with_matches_contact_lists(self, world):
        """MQ2: graph colleagues == union of the deals' other rows."""
        corpus, eil = world
        for member in (corpus.deals[0].team[0], corpus.deals[2].team[1]):
            person = member.person
            answer = eil.graph.worked_with(person.full_name)
            my_keys = set(answer.persons)
            assert person_key(person.full_name, person.email) in my_keys
            expected_deals = sorted(
                set().union(*(deals_mentioning(eil, key)
                              for key in my_keys))
            )
            assert answer.deals == expected_deals
            expected_colleagues = set()
            for deal_id in expected_deals:
                for row in eil.organized.contacts_of(deal_id):
                    key = person_key(str(row["name"] or ""),
                                     str(row["email"] or ""))
                    if key is not None and key not in my_keys:
                        expected_colleagues.add(key)
            assert {c.key for c in answer.colleagues} == (
                expected_colleagues
            )
            for colleague in answer.colleagues:
                assert colleague.shared_deals == sorted(
                    set(deals_mentioning(eil, colleague.key))
                    & set(expected_deals)
                )

    def test_mq3_role_capacity_matches_contact_lists(self, world):
        """MQ3: graph people == rows holding the canonical role."""
        _, eil = world
        for role in ("Client Solution Executive",
                     "Cross Tower Technical Solution Architect",
                     "cross tower TSA"):
            answer = eil.graph.role_capacity(role)
            expected = {}
            for deal_id in eil.deal_ids():
                for row in eil.organized.contacts_of(deal_id):
                    if str(row["role"] or "").lower() != (
                        answer.role.lower()
                    ):
                        continue
                    key = person_key(str(row["name"] or ""),
                                     str(row["email"] or ""))
                    if key is not None:
                        expected.setdefault(key, set()).add(deal_id)
            assert {p.key for p in answer.people} == set(expected)
            for person in answer.people:
                assert person.deals == sorted(expected[person.key])


class TestIncrementalConsistency:
    def test_add_workbook_updates_the_graph(self, world):
        corpus, _ = world
        eil = EILSystem.build(corpus)
        from repro.corpus import DealGenerator, WorkbookFactory

        new_deal = DealGenerator(
            seed=999, taxonomy=corpus.taxonomy
        ).generate(len(corpus.deals) + 1)[-1]
        workbook = WorkbookFactory(
            corpus.taxonomy, seed=999
        ).build_workbook(new_deal, 14)
        eil.add_workbook(workbook)
        assert new_deal.deal_id in eil.graph.deal_ids()
        # Row-by-row equivalence holds for the onboarded deal too.
        cited = {
            e.provenance.cite()
            for e in membership_edges(eil, new_deal.deal_id)
        }
        expected = {
            f"contacts:{row['contact_id']}"
            for row in eil.organized.contacts_of(new_deal.deal_id)
            if person_key(str(row["name"] or ""),
                          str(row["email"] or "")) is not None
        }
        assert cited == expected

    def test_remove_deal_removes_the_subgraph(self, world):
        corpus, _ = world
        eil = EILSystem.build(corpus)
        victim = corpus.deals[0].deal_id
        eil.remove_deal(victim)
        assert victim not in eil.graph.deal_ids()
        answer = eil.graph.worked_with(
            corpus.deals[0].team[0].person.full_name
        )
        assert victim not in answer.deals

    def test_incremental_graph_equals_rebuilt_graph(self, world):
        """remove + re-add converges to the from-scratch build.

        Contact rows get fresh ids on re-add, so provenance citations
        legitimately differ — the contract is that the graph matches
        the *current* rows.  Everything else is identical.
        """
        import json

        corpus, _ = world
        eil = EILSystem.build(corpus)

        def shape(graph):
            payload = json.loads(graph.dumps())["payload"]
            for edge in payload["edges"]:
                edge.pop("provenance")
            # Provenance was the final tiebreaker in the canonical
            # order; re-sort so fresh row ids cannot shuffle otherwise
            # identical edge lists.
            payload["edges"].sort(
                key=lambda e: json.dumps(e, sort_keys=True)
            )
            return payload

        before = shape(eil.graph)
        victim = corpus.deals[1].deal_id
        workbook = next(w for w in corpus.collection if w.deal_id == victim)
        eil.remove_deal(victim)
        eil.add_workbook(workbook)
        assert shape(eil.graph) == before
        # And the re-added deal's citations track the current rows.
        cited = {
            e.provenance.cite() for e in membership_edges(eil, victim)
        }
        expected = {
            f"contacts:{row['contact_id']}"
            for row in eil.organized.contacts_of(victim)
            if person_key(str(row["name"] or ""),
                          str(row["email"] or "")) is not None
        }
        assert cited == expected

    def test_graph_matches_standalone_materializer(self, world):
        """EILSystem's graph == build_graph over the same rows."""
        _, eil = world
        assert build_graph(eil.organized).dumps() == eil.graph.dumps()
