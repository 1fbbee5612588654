"""Unit tests for the SIAPI facade: form queries and scoped search."""

import pytest

from repro.errors import QuerySyntaxError
from repro.search import (
    AndQuery,
    IndexableDocument,
    NotQuery,
    OrQuery,
    PhraseQuery,
    SearchEngine,
    SiapiQuery,
    SiapiService,
    TermQuery,
)


@pytest.fixture
def service():
    engine = SearchEngine()
    for document in (
        IndexableDocument(
            "a1", {"body": "storage management services with data "
                           "replication plan"},
            {"deal_id": "A"},
        ),
        IndexableDocument(
            "a2", {"body": "delivery schedule for storage management"},
            {"deal_id": "A"},
        ),
        IndexableDocument(
            "b1", {"body": "data replication appendix boilerplate"},
            {"deal_id": "B"},
        ),
        IndexableDocument(
            "c1", {"body": "unrelated networking document"},
            {"deal_id": "C"},
        ),
    ):
        engine.add(document)
    return SiapiService(engine)


class TestSiapiQuery:
    def test_all_words_compiles_to_and(self):
        query = SiapiQuery(all_words="storage management").to_query()
        assert isinstance(query, AndQuery)
        assert all(isinstance(c, TermQuery) for c in query.clauses)

    def test_exact_phrase(self):
        query = SiapiQuery(exact_phrase="data replication").to_query()
        assert query == PhraseQuery("data replication")

    def test_any_words_compiles_to_or(self):
        query = SiapiQuery(any_words="csc eus").to_query()
        assert isinstance(query, OrQuery)

    def test_single_any_word_unwrapped(self):
        assert SiapiQuery(any_words="csc").to_query() == TermQuery("csc")

    def test_none_words_negated(self):
        query = SiapiQuery(all_words="plan", none_words="boilerplate")
        compiled = query.to_query()
        assert isinstance(compiled, AndQuery)
        assert isinstance(compiled.clauses[-1], NotQuery)

    def test_search_field_propagates(self):
        query = SiapiQuery(all_words="plan", search_field="title").to_query()
        assert query.field == "title"

    def test_raw_combined(self):
        query = SiapiQuery(all_words="plan", raw='"data replication"')
        compiled = query.to_query()
        assert isinstance(compiled, AndQuery)

    def test_empty_rejected(self):
        with pytest.raises(QuerySyntaxError):
            SiapiQuery().to_query()


def _deals(*deal_ids):
    """An activity scope as the engine takes it."""
    return ("deal_id", frozenset(deal_ids))


class TestScopedSearch:
    def test_unscoped(self, service):
        query = SiapiQuery(exact_phrase="data replication").to_query()
        hits = service.engine.search(query)
        assert {h.doc_id for h in hits} == {"a1", "b1"}

    def test_scoped_to_activities(self, service):
        query = SiapiQuery(exact_phrase="data replication").to_query()
        hits = service.engine.search(query, None, _deals("A"))
        assert {h.doc_id for h in hits} == {"a1"}

    def test_scope_empty_set_means_nothing(self, service):
        query = SiapiQuery(all_words="data").to_query()
        assert service.engine.search(query, None, _deals()) == []

    def test_count(self, service):
        query = SiapiQuery(all_words="storage").to_query()
        assert service.engine.count(query) == 2
        assert service.engine.count(query, _deals("B")) == 0


class TestGroupedResults:
    def test_grouping_and_ordering(self, service):
        groups = service.search_grouped(SiapiQuery(all_words="storage"))
        assert [g.activity_id for g in groups] == ["A"]
        assert len(groups[0].hits) == 2

    def test_scores_normalized(self, service):
        groups = service.search_grouped(
            SiapiQuery(exact_phrase="data replication")
        )
        assert all(0.0 <= g.score <= 1.0 for g in groups)

    def test_per_activity_limit(self, service):
        groups = service.search_grouped(
            SiapiQuery(all_words="storage"), per_activity_limit=1
        )
        assert len(groups[0].hits) == 1

    def test_no_hits(self, service):
        assert service.search_grouped(SiapiQuery(all_words="zzz")) == []

    def test_activity_ranking_prefers_consistent_matches(self, service):
        # Deal A has the phrase in 1 of 2 docs; deal B in its only doc.
        groups = service.search_grouped(
            SiapiQuery(exact_phrase="data replication")
        )
        by_id = {g.activity_id: g.score for g in groups}
        assert set(by_id) == {"A", "B"}
