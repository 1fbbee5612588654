"""End-to-end integration tests: corpus -> offline build -> online search.

One small corpus and one EIL build are shared module-wide; every test
exercises the full stack (generator, parsers, annotators, CPEs, DB,
index, Figure 1 search, access control, presentation).
"""

import pytest

from repro import (
    ANONYMOUS,
    AccessController,
    CorpusConfig,
    CorpusGenerator,
    EILSystem,
    FormQuery,
    User,
    render_deal_list,
    render_results,
    render_synopsis,
)
from repro.core import (
    role_capacity_query,
    scope_query,
    service_keyword_query,
    worked_with_query,
)
from repro.errors import AccessDeniedError, QuerySyntaxError

SALES = User("alice", frozenset({"sales"}))


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(
        CorpusConfig(n_deals=8, docs_per_deal=28, n_threads=24)
    ).generate()


@pytest.fixture(scope="module")
def eil(corpus):
    return EILSystem.build(corpus)


class TestOfflineBuild:
    def test_build_report_counts(self, corpus, eil):
        report = eil.build_report
        assert report.documents_indexed == corpus.document_count
        assert report.documents_analyzed == corpus.document_count
        assert report.documents_failed == 0
        assert report.deals_populated == len(corpus.deals)

    def test_every_deal_has_synopsis(self, corpus, eil):
        assert set(eil.deal_ids()) == {d.deal_id for d in corpus.deals}

    def test_synopsis_overview_matches_ground_truth(self, corpus, eil):
        deal = corpus.deals[0]
        synopsis = eil.synopsis(deal.deal_id, SALES)
        assert synopsis.name == deal.name
        assert synopsis.overview["Customer name"] == deal.customer
        assert synopsis.overview["Industry"] == deal.industry
        assert synopsis.overview["Total Contract Value"] == deal.value_band

    def test_synopsis_people_cover_team(self, corpus, eil):
        deal = corpus.deals[0]
        contacts = {
            c.name for c in eil.synopsis(deal.deal_id, SALES).contacts()
        }
        truth = {m.person.full_name for m in deal.team}
        # The annotators must recover at least 90% of the real team.
        assert len(contacts & truth) >= 0.9 * len(truth)

    def test_synopsis_towers_mostly_correct(self, corpus, eil):
        correct = total = 0
        for deal in corpus.deals:
            extracted = set(eil.synopsis(deal.deal_id, SALES).towers)
            truth = set(deal.towers)
            correct += len(extracted & truth)
            total += len(extracted)
        assert correct / total >= 0.8  # scope precision across deals

    def test_win_strategies_extracted(self, corpus, eil):
        deal = corpus.deals[0]
        synopsis = eil.synopsis(deal.deal_id, SALES)
        assert synopsis.win_strategies
        for strategy in deal.win_strategies:
            assert any(strategy in s for s in synopsis.win_strategies)


class TestMetaQuery1:
    def test_scope_search_matches_truth(self, corpus, eil):
        truth = {
            d.deal_id
            for d in corpus.deals_with_service("Storage Management Services")
        }
        results = eil.search(
            scope_query("Storage Management Services"), SALES
        )
        retrieved = set(results.deal_ids)
        assert truth  # the corpus must exercise the query
        assert len(retrieved & truth) / len(truth) >= 0.6
        if retrieved:
            assert len(retrieved & truth) / len(retrieved) >= 0.6

    def test_parent_concept_finds_subtype_deals(self, corpus, eil):
        truth = {
            d.deal_id for d in corpus.deals_with_service("End User Services")
        }
        retrieved = set(
            eil.search(scope_query("End User Services"), SALES).deal_ids
        )
        assert retrieved & truth

    def test_acronym_accepted_as_concept(self, eil):
        by_name = eil.search(scope_query("End User Services"), SALES)
        by_acronym = eil.search(scope_query("EUS"), SALES)
        assert by_name.deal_ids == by_acronym.deal_ids


class TestMetaQuery2:
    def test_people_search_finds_their_deals(self, corpus, eil):
        member = corpus.deals[0].team[0]
        results = eil.search(
            worked_with_query(member.person.full_name), SALES
        )
        assert corpus.deals[0].deal_id in results.deal_ids

    def test_people_tab_has_roles_and_contact_details(self, corpus, eil):
        deal = corpus.deals[0]
        synopsis = eil.synopsis(deal.deal_id, SALES)
        categorized = synopsis.people
        assert "core deal team" in categorized or (
            "technical support team" in categorized
        )
        some_contact = synopsis.contacts()[0]
        assert some_contact.name


class TestMetaQuery3:
    def test_role_search(self, corpus, eil):
        results = eil.search(role_capacity_query("cross tower TSA"), SALES)
        truth = {
            d.deal_id
            for d in corpus.deals
            if d.members_with_role(
                "Cross Tower Technical Solution Architect"
            )
        }
        assert set(results.deal_ids) & truth


class TestMetaQuery4:
    def test_hybrid_query_scopes_siapi(self, corpus, eil):
        results = eil.search(
            service_keyword_query("Storage Management Services",
                                  "data replication"),
            SALES,
        )
        assert results.scoped or not results.activities

    def test_hybrid_results_have_documents(self, corpus, eil):
        results = eil.search(
            service_keyword_query("Storage Management Services",
                                  "data replication"),
            SALES,
        )
        for activity in results.activities:
            assert activity.documents  # access is open by default

    def test_hybrid_truth_alignment(self, corpus, eil):
        truth = {
            d.deal_id
            for d in corpus.deals
            if d.has_service(corpus.taxonomy, "Storage Management Services")
            and "data replication" in {t for _, t in d.technologies}
        }
        results = eil.search(
            service_keyword_query("Storage Management Services",
                                  "data replication"),
            SALES,
        )
        assert truth <= set(results.deal_ids) or not truth


class TestAccessControl:
    def test_anonymous_rejected(self, eil):
        with pytest.raises(AccessDeniedError):
            eil.search(scope_query("WAN"), ANONYMOUS)
        with pytest.raises(AccessDeniedError):
            eil.synopsis(eil.deal_ids()[0], ANONYMOUS)

    def test_documents_withheld_without_repository_access(self, corpus):
        access = AccessController(default_open=False)
        eil = EILSystem.build(corpus, access=access)
        results = eil.search(
            service_keyword_query("Storage Management Services",
                                  "data replication"),
            SALES,
        )
        for activity in results.activities:
            assert activity.documents == ()
            assert activity.documents_withheld
        # But the synopsis — including the contact list — is available.
        if results.activities:
            synopsis = eil.synopsis(results.activities[0].deal_id, SALES)
            assert synopsis.contacts()

    def test_granted_user_sees_documents(self, corpus):
        access = AccessController(default_open=False)
        for workbook in corpus.collection:
            access.grant_user(workbook.name, "alice")
        eil = EILSystem.build(corpus, access=access)
        results = eil.search(
            service_keyword_query("Storage Management Services",
                                  "data replication"),
            SALES,
        )
        assert any(a.documents for a in results.activities) or (
            not results.activities
        )


class TestSearchMechanics:
    def test_empty_form_rejected(self, eil):
        with pytest.raises(QuerySyntaxError):
            eil.search(FormQuery(), SALES)

    def test_limit(self, eil):
        results = eil.search(FormQuery(all_words="services"), SALES,
                             limit=2)
        assert len(results.activities) <= 2

    def test_unscoped_fallback_when_no_synopsis_match(self, eil):
        # Concept that matches nothing + text -> unscoped SIAPI branch
        # (Fig. 1 steps 12-15): keyword results still come back, but
        # without activity scoping.
        results = eil.search(
            FormQuery(industry="NoSuchIndustry", all_words="services"),
            SALES,
        )
        assert not results.scoped
        assert results.activities  # unscoped keyword hits

    def test_concept_only_no_match_is_empty(self, eil):
        results = eil.search(FormQuery(industry="NoSuchIndustry"), SALES)
        assert results.activities == ()

    def test_keyword_only_query_unscoped(self, eil):
        results = eil.search(FormQuery(all_words="replication"), SALES)
        assert not results.scoped

    def test_plan_recorded(self, eil):
        results = eil.search(scope_query("WAN"), SALES)
        assert any("synopsis query" in step for step in results.plan)

    def test_deterministic_results(self, eil):
        first = eil.search(scope_query("WAN"), SALES).deal_ids
        second = eil.search(scope_query("WAN"), SALES).deal_ids
        assert first == second


class TestPresentation:
    def test_render_synopsis(self, corpus, eil):
        text = render_synopsis(eil.synopsis(corpus.deals[0].deal_id, SALES))
        assert corpus.deals[0].name in text
        assert "[People]" in text
        assert "[Win Strategies]" in text

    def test_render_deal_list(self, corpus, eil):
        synopses = [
            eil.synopsis(deal_id, SALES) for deal_id in eil.deal_ids()[:3]
        ]
        text = render_deal_list(synopses)
        assert synopses[0].name in text

    def test_render_results_with_documents(self, eil):
        results = eil.search(
            service_keyword_query("Storage Management Services",
                                  "data replication"),
            SALES,
        )
        text = render_results(results)
        if results.activities:
            assert "%" in text
        else:
            assert "No matching" in text

    def test_render_empty_results(self, eil):
        results = eil.search(
            FormQuery(industry="NoSuchIndustry", all_words="qqq"), SALES
        )
        assert render_results(results) == "No matching business activities."


class TestKeywordBaseline:
    def test_keyword_search_over_same_index(self, corpus, eil):
        hits = eil.keyword_search('"data replication"')
        assert hits
        deal_of = eil.engine.index.metadata_column("deal_id").values
        assert all(h.doc_id in deal_of for h in hits)

    def test_keyword_count(self, eil):
        assert eil.keyword_count("services") == len(
            eil.keyword_search("services")
        )


class TestConceptSuggestions:
    def test_did_you_mean_in_plan(self, eil):
        results = eil.search(
            FormQuery(tower="Storage Managment Servces"), SALES
        )
        assert any("did you mean" in step and
                   "Storage Management Services" in step
                   for step in results.plan)

    def test_known_concept_no_suggestion(self, eil):
        results = eil.search(FormQuery(tower="WAN"), SALES)
        assert not any("did you mean" in step for step in results.plan)
