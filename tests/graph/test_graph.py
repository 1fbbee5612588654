"""Unit tests for EntityGraph semantics (repro.graph.graph).

Hand-rolled organized-information rows drive every traversal class, so
the expected answers are small enough to verify by eye — identity
resolution, role canonicalization, Jaccard overlap, orphan cleanup and
the epoch/metrics contract.
"""

import pytest

from repro import obs
from repro.graph import EntityGraph


def contact(contact_id, name, email="", role="", category="people"):
    return {
        "contact_id": contact_id,
        "name": name,
        "email": email,
        "role": role,
        "category": category,
        "validated": False,
    }


def scope(tower, rank=0, weight=1.0):
    return {"tower": tower, "canonical": tower, "rank": rank,
            "weight": weight}


def tech(technology_id, term, tower=""):
    return {"technology_id": technology_id, "term": term, "tower": tower}


@pytest.fixture
def graph():
    """Two deals sharing one person (by email) and one tower."""
    g = EntityGraph()
    g.index_deal(
        "d1", {"name": "DEAL A"},
        contact_rows=[
            contact(1, "Sam White", "sam.white@abc.com",
                    "Client Solution Executive"),
            contact(2, "Ann Gray", "ann.gray@abc.com", "Pricer"),
        ],
        scope_rows=[scope("Network Services")],
        technology_rows=[tech(1, "VPN", "Network Services")],
    )
    g.index_deal(
        "d2", {"name": "DEAL B"},
        contact_rows=[
            # Same person, mentioned by name only: the email row of d1
            # cannot merge with it (rollup semantics), so this is a
            # distinct name-keyed node.
            contact(3, "White, Sam",
                    role="Client Solution Executive"),
            contact(4, "Bea Stone", "bea.stone@abc.com", "Pricer"),
            contact(5, "Sam White", "sam.white@abc.com",
                    "Client Solution Executive"),
        ],
        scope_rows=[scope("Network Services"), scope("End User Services",
                                                     rank=1)],
        technology_rows=[tech(2, "VoIP", "Network Services")],
    )
    return g


class TestMaterialization:
    def test_stats_count_nodes_and_edges_by_kind(self, graph):
        stats = graph.stats()
        assert stats["deals"] == 2
        assert stats["nodes_by_kind"]["deal"] == 2
        # sam(email), sam(name), ann, bea
        assert stats["nodes_by_kind"]["person"] == 4
        assert stats["nodes_by_kind"]["tower"] == 2
        assert stats["nodes_by_kind"]["technology"] == 2
        assert stats["edges_by_kind"]["member_of"] == 5
        assert stats["edges_by_kind"]["in_scope"] == 3
        assert stats["edges_by_kind"]["uses"] == 2

    def test_reindex_is_idempotent(self, graph):
        before = graph.stats()
        graph.index_deal(
            "d1", {"name": "DEAL A"},
            contact_rows=[
                contact(1, "Sam White", "sam.white@abc.com", "CSE"),
                contact(2, "Ann Gray", "ann.gray@abc.com", "Pricer"),
            ],
            scope_rows=[scope("Network Services")],
            technology_rows=[tech(1, "VPN", "Network Services")],
        )
        after = graph.stats()
        assert after["nodes"] == before["nodes"]
        assert after["edges"] == before["edges"]
        assert after["epoch"] == before["epoch"] + 1

    def test_rows_without_identity_are_skipped(self):
        g = EntityGraph()
        g.index_deal("d", None, contact_rows=[contact(1, "", "")])
        assert g.stats()["edges"] == 0

    def test_email_only_contact_keys_by_email(self):
        g = EntityGraph()
        g.index_deal("d", None,
                     contact_rows=[contact(1, "", "anon@abc.com")])
        answer = g.worked_with("anon@abc.com")
        assert answer.persons == ["email:anon@abc.com"]


class TestRemoval:
    def test_orphaned_nodes_disappear(self, graph):
        graph.remove_deal("d2")
        stats = graph.stats()
        assert stats["deals"] == 1
        # bea and name-keyed sam are gone; the shared tower survives.
        assert stats["nodes_by_kind"]["person"] == 2
        assert stats["nodes_by_kind"]["tower"] == 1
        assert graph.deal_ids() == ["d1"]

    def test_remove_unknown_deal_is_noop(self, graph):
        epoch = graph.epoch
        assert graph.remove_deal("ghost") == 0
        assert graph.epoch == epoch

    def test_epoch_bumps_on_mutations_not_queries(self, graph):
        epoch = graph.epoch
        graph.worked_with("Sam White")
        graph.expertise("network")
        assert graph.epoch == epoch
        graph.remove_deal("d1")
        assert graph.epoch == epoch + 1

    def test_name_index_follows_removal(self, graph):
        graph.remove_deal("d2")
        # d2 held the only name-keyed Sam node; resolution now finds
        # only the email-keyed one from d1.
        answer = graph.worked_with("Sam White")
        assert answer.persons == ["email:sam.white@abc.com"]
        assert answer.deals == ["d1"]


class TestWorkedWith:
    def test_resolves_name_to_all_matching_nodes(self, graph):
        """MQ2 across deals: both Sam nodes answer a name query."""
        from repro.text.normalize import name_key

        answer = graph.worked_with("Sam White")
        assert answer.persons == [
            "email:sam.white@abc.com",
            f"name:{name_key('Sam White')}",
        ]
        assert answer.deals == ["d1", "d2"]
        names = [c.name for c in answer.colleagues]
        assert names == ["Ann Gray", "Bea Stone"]

    def test_email_query_scopes_to_one_node(self, graph):
        answer = graph.worked_with("sam.white@abc.com")
        assert answer.persons == ["email:sam.white@abc.com"]
        assert answer.deals == ["d1", "d2"]

    def test_colleagues_carry_roles_and_citations(self, graph):
        answer = graph.worked_with("sam.white@abc.com")
        ann = next(c for c in answer.colleagues if c.name == "Ann Gray")
        assert ann.roles == ["Pricer"]
        assert ann.provenance == ["contacts:2"]
        assert ann.shared_deals == ["d1"]

    def test_unknown_person_yields_empty_answer(self, graph):
        answer = graph.worked_with("Zed Nobody")
        assert answer.persons == []
        assert answer.colleagues == []

    def test_limit_caps_colleagues(self, graph):
        answer = graph.worked_with("Sam White", limit=1)
        assert len(answer.colleagues) == 1


class TestRoleCapacity:
    def test_canonicalizes_the_queried_role(self):
        g = EntityGraph()
        g.index_deal("d", None, contact_rows=[
            contact(1, "Ann Gray", "ann@abc.com",
                    "Cross Tower Technical Solution Architect"),
        ])
        answer = g.role_capacity("cross tower TSA")
        assert answer.role == "Cross Tower Technical Solution Architect"
        assert [p.name for p in answer.people] == ["Ann Gray"]

    def test_only_filled_roles_match(self, graph):
        assert graph.role_capacity("").people == []

    def test_deals_are_evidence(self, graph):
        answer = graph.role_capacity("CSE")
        sam = next(p for p in answer.people
                   if p.key == "email:sam.white@abc.com")
        assert sam.deals == ["d1", "d2"]
        assert sam.provenance == ["contacts:1", "contacts:5"]


class TestExpertise:
    def test_matches_towers_and_technologies(self, graph):
        answer = graph.expertise("network")
        assert "tower:network services" in answer.matched
        assert [p.name for p in answer.people] != []
        # Everyone on d1 and d2 is reachable through the tower — the
        # name-keyed "White, Sam" node is a distinct person (no email
        # to merge on), so it answers separately.
        assert {p.name for p in answer.people} == {
            "Sam White", "Ann Gray", "Bea Stone", "White, Sam"
        }

    def test_evidence_names_the_matched_nodes(self, graph):
        answer = graph.expertise("vpn")
        assert answer.matched == ["technology:vpn"]
        for person in answer.people:
            assert person.evidence == ["technology:vpn"]
            assert person.deals == ["d1"]

    def test_no_match_is_empty(self, graph):
        answer = graph.expertise("blockchain")
        assert answer.matched == []
        assert answer.people == []


class TestTeamOverlap:
    def test_jaccard_is_exact(self, graph):
        answer = graph.team_overlap("sam.white@abc.com")
        by_name = {c.name: c for c in answer.colleagues}
        # Ann: shared {d1}, union {d1, d2} -> 0.5
        assert by_name["Ann Gray"].overlap == pytest.approx(0.5)
        # Bea: shared {d2}, union {d1, d2} -> 0.5
        assert by_name["Bea Stone"].overlap == pytest.approx(0.5)

    def test_full_overlap_ranks_first(self):
        g = EntityGraph()
        for deal_id in ("d1", "d2"):
            g.index_deal(deal_id, None, contact_rows=[
                contact(1, "Ann Gray", "ann@abc.com"),
                contact(2, "Sam White", "sam@abc.com"),
            ])
        g.index_deal("d3", None, contact_rows=[
            contact(3, "Ann Gray", "ann@abc.com"),
            contact(4, "Одна Visit", "visitor@abc.com"),
        ])
        answer = g.team_overlap("sam@abc.com")
        assert answer.colleagues[0].name == "Ann Gray"
        assert answer.colleagues[0].overlap == pytest.approx(2 / 3)


class TestLimit:
    QUERIES = [
        ("worked_with", "Sam White", "colleagues"),
        ("role_capacity", "Pricer", "people"),
        ("expertise", "network", "people"),
        ("team_overlap", "Sam White", "colleagues"),
    ]

    @pytest.mark.parametrize("method,subject,field", QUERIES)
    def test_limit_truncates_or_is_rejected(self, graph, method, subject,
                                            field):
        def people(*limit):
            return getattr(getattr(graph, method)(subject, *limit), field)

        everyone = people()
        assert len(everyone) >= 2
        assert people(None) == everyone
        assert people(0) == []
        assert people(1) == everyone[:1]
        assert people(99) == everyone
        # people[:-1] would silently drop the last person instead.
        with pytest.raises(ValueError, match="limit must be"):
            people(-1)


class TestDisplayNames:
    def test_most_mentions_wins(self):
        g = EntityGraph()
        g.index_deal("d1", None, contact_rows=[
            contact(1, "Samuel White", "sam@abc.com"),
            contact(9, "Ann Gray", "ann@abc.com"),
        ])
        g.index_deal("d2", None, contact_rows=[
            contact(2, "Sam White", "sam@abc.com"),
            contact(8, "Ann Gray", "ann@abc.com"),
        ])
        g.index_deal("d3", None, contact_rows=[
            contact(3, "Sam White", "sam@abc.com"),
            contact(7, "Ann Gray", "ann@abc.com"),
        ])
        answer = g.worked_with("ann@abc.com")
        sam = answer.colleagues[0]
        assert sam.name == "Sam White"

    def test_insertion_order_does_not_change_answers(self):
        deals = {
            "d1": [contact(1, "Samuel White", "sam@abc.com"),
                   contact(2, "Ann Gray", "ann@abc.com")],
            "d2": [contact(3, "Sam White", "sam@abc.com"),
                   contact(4, "Ann Gray", "ann@abc.com")],
        }
        forward, backward = EntityGraph(), EntityGraph()
        for deal_id in sorted(deals):
            forward.index_deal(deal_id, None, contact_rows=deals[deal_id])
        for deal_id in sorted(deals, reverse=True):
            backward.index_deal(deal_id, None,
                                contact_rows=deals[deal_id])
        assert forward.dumps() == backward.dumps()
        a = forward.worked_with("ann@abc.com")
        b = backward.worked_with("ann@abc.com")
        assert [c.name for c in a.colleagues] == [
            c.name for c in b.colleagues
        ]


class TestMetrics:
    def test_queries_and_gauges_are_counted(self, graph):
        with obs.use_registry() as registry:
            graph.worked_with("Sam White")
            graph.expertise("vpn")
            graph.remove_deal("d2")
            snapshot = registry.snapshot()
            assert snapshot["graph.queries"]["value"] == 2
            assert snapshot["graph.queries.worked_with"]["value"] == 1
            assert snapshot["graph.queries.expertise"]["value"] == 1
            assert snapshot["graph.deals_removed"]["value"] == 1
            assert snapshot["graph.deals"]["value"] == 1
            assert registry.histograms["graph.query_seconds"].count == 2
