"""Unit tests for the query analyzer, synopsis search and rank combiner."""

import pytest

from repro.annotators import ContactRecord, ScopeEntry
from repro.core import FormQuery, OrganizedInformation, RankCombiner
from repro.core.query_analyzer import SynopsisMatch, SynopsisSearch
from repro.corpus import build_default_taxonomy
from repro.errors import QuerySyntaxError
from repro.search import SearchHit
from repro.search.siapi import ActivityHits


class TestFormQuery:
    def test_criteria_predicates(self):
        assert FormQuery(tower="WAN").has_concept_criteria()
        assert FormQuery(all_words="x").has_text_criteria()
        assert not FormQuery().has_concept_criteria()
        assert not FormQuery().has_text_criteria()
        assert not FormQuery(tower="WAN").has_text_criteria()

    def test_invalid_search_in(self):
        with pytest.raises(QuerySyntaxError):
            FormQuery(search_in="everywhere")

    def test_siapi_query_only_for_ewb_text(self):
        assert FormQuery(tower="WAN").to_siapi_query() is None
        assert FormQuery(all_words="x").to_siapi_query() is not None
        assert FormQuery(
            all_words="x", search_in="synopsis"
        ).to_siapi_query() is None


@pytest.fixture
def organized():
    info = OrganizedInformation()
    for deal_id, name, industry, consultant in (
        ("d1", "DEAL A", "Insurance", "TPI"),
        ("d2", "DEAL B", "Banking", ""),
        ("d3", "DEAL C", "Insurance", "TPI"),
    ):
        info.store_deal_context(deal_id, {
            "Deal Name": name, "Industry": industry,
            "Out Sourcing Consultant": consultant,
            "Geography": "Americas (AM), United States",
        })
    info.store_scopes("d1", [
        ScopeEntry("Customer Service Center", "End User Services", 12.0, 4),
        ScopeEntry("WAN", "Network Services", 6.0, 2),
    ])
    info.store_scopes("d2", [
        ScopeEntry("WAN", "Network Services", 10.0, 3),
    ])
    info.store_scopes("d3", [
        ScopeEntry("Storage Management Services",
                   "Storage Management Services", 9.0, 3),
    ])
    info.store_contacts("d1", [
        ContactRecord("d1", "Sam White", "sam.white@abc.com", "", "ABC",
                      "Client Solution Executive", "core deal team",
                      mention_count=4),
    ])
    info.store_contacts("d3", [
        ContactRecord("d3", "Jane Doe", "jane.doe@x.com", "", "Initech",
                      "Technical Solution Architect",
                      "technical support team", mention_count=1),
    ])
    info.store_technologies("d3", [("data replication",
                                    "Storage Management Services")])
    return info


@pytest.fixture
def synopsis_search(organized):
    return SynopsisSearch(organized, build_default_taxonomy())


class TestSynopsisSearch:
    def test_tower_concept_expands_subtypes(self, synopsis_search):
        # Searching the parent finds the deal whose scope has the child.
        matches = synopsis_search.execute(
            FormQuery(tower="End User Services")
        )
        assert set(matches) == {"d1"}

    def test_tower_rank_drives_score(self, synopsis_search):
        matches = synopsis_search.execute(FormQuery(tower="WAN"))
        # d1 has WAN at rank 1, d2 at rank 0 -> d2 scores higher.
        assert matches["d2"].score > matches["d1"].score

    def test_industry_filter(self, synopsis_search):
        matches = synopsis_search.execute(FormQuery(industry="insur"))
        assert set(matches) == {"d1", "d3"}

    def test_conjunction_of_criteria(self, synopsis_search):
        matches = synopsis_search.execute(
            FormQuery(industry="Insurance", tower="WAN")
        )
        assert set(matches) == {"d1"}

    def test_people_by_name(self, synopsis_search):
        matches = synopsis_search.execute(FormQuery(person_name="sam"))
        assert set(matches) == {"d1"}

    def test_people_by_role_normalized(self, synopsis_search):
        matches = synopsis_search.execute(FormQuery(role="CSE"))
        assert set(matches) == {"d1"}

    def test_people_by_organization(self, synopsis_search):
        matches = synopsis_search.execute(FormQuery(organization="initech"))
        assert set(matches) == {"d3"}

    def test_synopsis_text_search(self, synopsis_search):
        matches = synopsis_search.execute(
            FormQuery(exact_phrase="data replication",
                      search_in="synopsis")
        )
        assert set(matches) == {"d3"}

    def test_no_concept_criteria_returns_empty(self, synopsis_search):
        assert synopsis_search.execute(FormQuery(all_words="x")) == {}

    def test_unknown_tower_returns_empty(self, synopsis_search):
        assert synopsis_search.execute(
            FormQuery(tower="Quantum Services")
        ) == {}

    def test_wildcards_in_form_text_are_literal(self, organized,
                                                synopsis_search):
        # Form criteria are substrings (paper Fig. 8): "%" used to match
        # every deal and "_" any character.
        organized.store_deal_context("d4", {
            "Deal Name": "DEAL D", "Industry": "Retail 50%_off",
            "Out Sourcing Consultant": "A\\B", "Geography": "EMEA",
        })
        organized.store_contacts("d4", [
            ContactRecord("d4", "Al_Ba 100%", "", "", "C\\D Corp",
                          "Client Solution Executive", "core deal team",
                          mention_count=2),
        ])
        organized.store_technologies("d4", [("raid_5 100%", "")])
        organized.store_win_strategies("d4", ["beat them by 10%\\year"])
        only_d4 = [
            FormQuery(industry="%"), FormQuery(industry="_"),
            FormQuery(industry="50%_off"), FormQuery(industry="0%_O"),
            FormQuery(consultant="\\"), FormQuery(consultant="a\\b"),
            FormQuery(person_name="%"), FormQuery(person_name="l_b"),
            FormQuery(organization="\\"), FormQuery(organization="c\\d"),
            FormQuery(exact_phrase="d_5 100%", search_in="synopsis"),
            FormQuery(all_words="10%\\YEAR", search_in="synopsis"),
            FormQuery(all_words="% _", search_in="synopsis"),
        ]
        for form in only_d4:
            assert set(synopsis_search.execute(form)) == {"d4"}, form
        nothing = [
            FormQuery(industry="50%xoff"), FormQuery(industry="5_%"),
            FormQuery(person_name="a_a"), FormQuery(person_name="S_m"),
            FormQuery(organization="A_C"), FormQuery(geography="%%"),
            FormQuery(exact_phrase="data_replication",
                      search_in="synopsis"),
        ]
        for form in nothing:
            assert synopsis_search.execute(form) == {}, form

    def test_reasons_recorded(self, synopsis_search):
        matches = synopsis_search.execute(FormQuery(tower="WAN"))
        assert any("tower" in r for r in matches["d2"].reasons)


def hit(doc_id, score=1.0):
    return SearchHit(doc_id, score, {"body": "x"})


class TestRankCombiner:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            RankCombiner(synopsis_weight=1.5)

    def test_combines_both_sources(self):
        combiner = RankCombiner(synopsis_weight=0.5)
        ranked = combiner.combine(
            {"d1": SynopsisMatch("d1", 1.0), "d2": SynopsisMatch("d2", 0.4)},
            [ActivityHits("d1", 0.2, [hit("x")]),
             ActivityHits("d2", 1.0, [hit("y")])],
        )
        by_id = {r.deal_id: r for r in ranked}
        assert by_id["d1"].score == pytest.approx(0.6)
        assert by_id["d2"].score == pytest.approx(0.7)
        assert ranked[0].deal_id == "d2"

    def test_single_source_not_scaled(self):
        combiner = RankCombiner(synopsis_weight=0.5)
        ranked = combiner.combine(
            {"d1": SynopsisMatch("d1", 0.8)}, None
        )
        assert ranked[0].score == pytest.approx(0.8)

    def test_siapi_only_activity(self):
        combiner = RankCombiner()
        ranked = combiner.combine(
            {}, [ActivityHits("d9", 0.9, [hit("x")])]
        )
        assert ranked[0].deal_id == "d9"
        assert ranked[0].synopsis_score == 0.0

    def test_deterministic_tie_break(self):
        combiner = RankCombiner()
        ranked = combiner.combine(
            {"b": SynopsisMatch("b", 0.5), "a": SynopsisMatch("a", 0.5)},
            None,
        )
        assert [r.deal_id for r in ranked] == ["a", "b"]

    def test_hits_carried_through(self):
        combiner = RankCombiner()
        ranked = combiner.combine(
            {}, [ActivityHits("d1", 0.5, [hit("x"), hit("y")])]
        )
        assert len(ranked[0].hits) == 2
