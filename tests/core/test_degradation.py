"""The online degradation ladder (repro.core.search under faults).

Each rung of docs/OPERATIONS.md's ladder, exercised end to end with an
armed fault injector: synopsis store down, index down, both down — plus
the invariants around it (degraded results are flagged, carry the
fallback content, are never cached, and user errors stay user errors).
"""

import pytest

from repro import CorpusConfig, CorpusGenerator, EILSystem, User, obs
from repro.core.metaqueries import (
    scope_query,
    service_keyword_query,
    worked_with_query,
)
from repro.core.presentation import render_results
from repro.core.query_analyzer import FormQuery
from repro.errors import EILUnavailableError, QuerySyntaxError
from repro.faults import FaultInjector, FaultProfile, use_injector

SALES = User("u", frozenset({"sales"}))

DB_DOWN = "db:error=1.0"
INDEX_DOWN = "index:error=1.0"
BOTH_DOWN = "db:error=1.0;index:error=1.0"


@pytest.fixture
def registry():
    with obs.use_registry() as fresh:
        yield fresh


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(
        CorpusConfig(n_deals=4, docs_per_deal=14)
    ).generate()


@pytest.fixture
def eil(corpus, registry):
    # Function-scoped: every test gets fresh breakers and caches.
    return EILSystem.build(corpus)


def _inject(spec):
    return use_injector(FaultInjector(FaultProfile.parse(spec)))


def _text_form(corpus):
    # Chosen so the 4-deal corpus yields BOTH synopsis matches and
    # keyword hits: the query exercises the scoped (Fig. 1 step 8)
    # path when healthy and has a fallback for either outage.
    return service_keyword_query("End User Services", "service")


class TestSynopsisDownRung:
    def test_text_query_degrades_to_keyword_only(self, eil, corpus,
                                                 registry):
        with _inject(DB_DOWN):
            results = eil.search(_text_form(corpus), SALES)
        assert results.degraded == "no-synopsis"
        assert not results.scoped
        assert results.activities, "keyword fallback should find hits"
        assert all(a.synopsis_score == 0.0 for a in results.activities)
        assert registry.counters["query.degraded"].value == 1
        assert (
            registry.counters["query.degraded.no-synopsis"].value == 1
        )

    def test_structured_only_query_degrades_empty(self, eil, registry):
        # No text criteria to fall back to: empty, flagged, no crash.
        with _inject(DB_DOWN):
            results = eil.search(scope_query("End User Services"), SALES)
        assert results.degraded == "no-synopsis"
        assert results.activities == ()

    def test_presentation_survives_db_down(self, eil, corpus, registry):
        # deal_row lookups fail too; names fall back to the deal id.
        with _inject(DB_DOWN):
            results = eil.search(_text_form(corpus), SALES)
        rendered = render_results(results)
        assert "degraded" in rendered
        assert "synopsis store unavailable" in rendered


class TestIndexDownRung:
    def test_text_query_keeps_synopsis_and_contacts(self, eil, corpus,
                                                    registry):
        clean = eil.search(_text_form(corpus), SALES)
        assert clean.degraded is None
        eil._search._cache.clear()
        with _inject(INDEX_DOWN):
            results = eil.search(_text_form(corpus), SALES)
        assert results.degraded == "no-index"
        assert results.activities, "synopsis matches must stand"
        assert all(not a.documents for a in results.activities)
        assert any(a.contacts for a in results.activities), (
            "the no-index rung is the synopsis + contact-list view"
        )
        assert (
            registry.counters["query.degraded.no-index"].value == 1
        )

    def test_structured_only_query_unaffected(self, eil, registry):
        # No text criteria means the index is never consulted.
        with _inject(INDEX_DOWN):
            results = eil.search(scope_query("End User Services"), SALES)
        assert results.degraded is None

    def test_rendered_with_banner_and_contacts(self, eil, corpus,
                                               registry):
        with _inject(INDEX_DOWN):
            results = eil.search(_text_form(corpus), SALES)
        rendered = render_results(results)
        assert "search index unavailable" in rendered
        assert "contacts:" in rendered


class TestBothDownRung:
    def test_structured_error_names_both_failures(self, eil, corpus,
                                                  registry):
        with _inject(BOTH_DOWN):
            with pytest.raises(EILUnavailableError) as excinfo:
                eil.search(_text_form(corpus), SALES)
        assert set(excinfo.value.failures) == {"synopsis", "index"}
        assert registry.counters["query.unavailable"].value == 1

    def test_structured_only_query_still_degrades(self, eil, registry):
        # Without text criteria the index is irrelevant; the double
        # outage behaves like the synopsis-down rung.
        with _inject(BOTH_DOWN):
            results = eil.search(scope_query("End User Services"), SALES)
        assert results.degraded == "no-synopsis"


class TestDegradedNeverCached:
    def test_full_fidelity_returns_after_outage(self, eil, corpus,
                                                registry):
        form = _text_form(corpus)
        with _inject(DB_DOWN):
            degraded = eil.search(form, SALES)
        assert degraded.degraded == "no-synopsis"
        assert registry.counters["query.cache.bypassed"].value == 1
        # Outage over: the same query must re-execute, not replay the
        # thinned-out answer.
        results = eil.search(form, SALES)
        assert results.degraded is None
        assert results.scoped

    def test_cached_clean_result_survives_outage(self, eil, corpus,
                                                 registry):
        # The inverse direction: a result cached before the outage is
        # still served during it — the cache is a resilience asset.
        form = _text_form(corpus)
        clean = eil.search(form, SALES)
        with _inject(DB_DOWN):
            cached = eil.search(form, SALES)
        assert cached.degraded is None
        assert cached.deal_ids == clean.deal_ids


class TestUserErrorsStayUserErrors:
    def test_empty_form_raises_even_under_faults(self, eil, registry):
        with _inject(BOTH_DOWN):
            with pytest.raises(QuerySyntaxError):
                eil.search(FormQuery(), SALES)

    def test_query_syntax_error_does_not_trip_breaker(self, eil, corpus,
                                                      registry):
        # A user's malformed query is never a substrate outage: both
        # breakers are configured to ignore QuerySyntaxError.
        search = eil._search

        def bad():
            raise QuerySyntaxError("unbalanced quote")

        for breaker in (search.siapi_breaker, search.synopsis_breaker):
            for _ in range(breaker.failure_threshold + 1):
                with pytest.raises(QuerySyntaxError):
                    breaker.call(bad)
            assert breaker.state == "closed"
        clean = eil.search(_text_form(corpus), SALES)
        assert clean.degraded is None


class TestBreakerSheddingUnderOutage:
    def test_synopsis_breaker_opens_and_sheds(self, eil, corpus,
                                              registry):
        search = eil._search
        threshold = search.synopsis_breaker.failure_threshold
        forms = [
            worked_with_query(f"nobody-{i}") for i in range(threshold + 2)
        ]
        with _inject(DB_DOWN):
            for form in forms:
                results = eil.search(form, SALES)
                assert results.degraded == "no-synopsis"
        assert search.synopsis_breaker.state == "open"
        assert registry.counters["breaker.open.synopsis"].value == 1
        # Once open, queries shed load: the store is no longer hit.
        rejected = registry.counters["breaker.rejected.synopsis"].value
        assert rejected >= 1
