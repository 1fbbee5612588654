"""Online query-result cache: hits, invalidation, access isolation."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import CorpusConfig, CorpusGenerator, EILSystem, User, obs
from repro.core import scope_query
from repro.core.metaqueries import service_keyword_query
from repro.core.query_analyzer import FormQuery
from repro.core.search import ActivityResult, EilResults, _copy_results
from repro.corpus import DealGenerator, WorkbookFactory

SALES = User("u", frozenset({"sales"}))


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
    return EILSystem.build(corpus)


@pytest.fixture
def extra_workbook(corpus):
    generator = DealGenerator(seed=999, taxonomy=corpus.taxonomy)
    new_deal = generator.generate(5)[4]
    return WorkbookFactory(corpus.taxonomy, seed=999).build_workbook(
        new_deal, 14
    )


def _hits(registry):
    counter = registry.counters.get("query.cache.hits")
    return counter.value if counter else 0


class TestQueryCacheHits:
    def test_repeat_query_hits_cache(self, eil, registry):
        form = scope_query("End User Services")
        first = eil.search(form, SALES)
        assert _hits(registry) == 0
        second = eil.search(form, SALES)
        assert _hits(registry) == 1
        assert second.deal_ids == first.deal_ids
        assert second.plan == first.plan

    def test_whitespace_variants_share_an_entry(self, eil, registry):
        eil.search(scope_query("End User Services"), SALES)
        eil.search(scope_query("  End User Services  "), SALES)
        assert _hits(registry) == 1

    def test_different_limits_are_distinct_entries(self, eil, registry):
        form = scope_query("End User Services")
        eil.search(form, SALES, limit=1)
        eil.search(form, SALES, limit=2)
        assert _hits(registry) == 0

    def test_cached_results_are_mutation_safe(self, eil, registry):
        form = scope_query("End User Services")
        first = eil.search(form, SALES)
        first.activities.clear()
        first.plan.append("tampered")
        second = eil.search(form, SALES)
        assert second.activities
        assert "tampered" not in second.plan


_FIELD_VALUES = st.one_of(
    st.text(alphabet=" \tab", max_size=6),
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=False),
    st.tuples(st.text(alphabet=" a", max_size=3)),
    st.lists(st.integers(), max_size=2),
)
_FORMS = st.builds(
    FormQuery,
    search_in=st.sampled_from(["ewb", "synopsis"]),
    **{
        f.name: _FIELD_VALUES
        for f in dataclasses.fields(FormQuery) if f.name != "search_in"
    },
)


class TestCacheKey:
    @pytest.fixture(scope="class")
    def search(self, corpus):
        return EILSystem.build(corpus)._search

    @given(form=_FORMS, limit=st.none() | st.integers(0, 20))
    def test_key_equals_the_astuple_expression(self, search, form, limit):
        """The key is built from the form's fields without copying the
        form, and is the key ``dataclasses.astuple`` used to give."""
        normalized = tuple(
            value.strip() if isinstance(value, str) else value
            for value in dataclasses.astuple(form)
        )
        assert search._cache_key(form, SALES, limit, 5) == (
            normalized,
            (SALES.user_id, frozenset(SALES.roles),
             search.access.policy_version),
            (search.epoch, search.siapi.engine.epoch),
            limit, 5,
        )

    def test_copy_is_equal_and_shares_no_list(self):
        # Every field non-default, so a field the copy forgot shows.
        activity = ActivityResult(
            "d1", "DEAL A", 3.0, 2.0, 1.0, ["tower"], ["doc"], True,
            ["Sam White"],
        )
        blank = ActivityResult("", "", 0.0, 0.0, 0.0)
        assert all(
            getattr(activity, f.name) != getattr(blank, f.name)
            for f in dataclasses.fields(ActivityResult)
        )
        cached = EilResults([activity], True, ["step 8"], None)
        copy = _copy_results(cached)
        assert copy == cached
        assert copy.activities is not cached.activities
        assert copy.plan is not cached.plan
        assert copy.activities[0] is not activity
        for name in ("reasons", "documents", "contacts"):
            assert getattr(copy.activities[0], name) is not getattr(
                activity, name
            )


class TestQueryCacheInvalidation:
    def test_add_workbook_invalidates(self, eil, registry, extra_workbook):
        form = scope_query("End User Services")
        eil.search(form, SALES)
        eil.add_workbook(extra_workbook)
        eil.search(form, SALES)
        assert _hits(registry) == 0

    def test_remove_deal_invalidates(self, eil, registry, corpus):
        form = scope_query("End User Services")
        before = eil.search(form, SALES)
        victim = (before.deal_ids or [corpus.deals[0].deal_id])[0]
        eil.remove_deal(victim)
        after = eil.search(form, SALES)
        assert _hits(registry) == 0
        assert victim not in after.deal_ids

    def test_engine_cache_hit_and_invalidation(self, eil, registry):
        eil.keyword_search("end user services")
        eil.keyword_search("end user services")
        assert registry.counters["engine.cache.hits"].value == 1
        doc_id = next(iter(eil.engine.index.doc_ids))
        eil.engine.remove(doc_id)
        eil.keyword_search("end user services")
        assert registry.counters["engine.cache.hits"].value == 1


class TestQueryCacheAccessIsolation:
    def test_no_cross_user_leakage(self, corpus, registry):
        """A restricted user must never see another user's cached docs."""
        eil = EILSystem.build(corpus)
        allowed = User("alice", frozenset({"sales"}))
        denied = User("bob", frozenset({"ops"}))
        # Restrict every repository to the sales role.
        for workbook in corpus.collection:
            eil.access.grant_role(workbook.name, "sales")
        form = service_keyword_query("Storage Management Services",
                                     "data replication")
        rich = eil.search(form, allowed)
        poor = eil.search(form, denied)
        assert rich.deal_ids == poor.deal_ids
        # The allowed user's view carries document hits; the denied
        # user's cached-adjacent view must not leak them.
        assert any(a.documents for a in rich.activities)
        for activity in poor.activities:
            assert activity.documents == []
        assert any(a.documents_withheld for a in poor.activities)

    def test_policy_change_invalidates(self, corpus, registry):
        eil = EILSystem.build(corpus)
        user = User("carol", frozenset({"ops"}))
        form = service_keyword_query("Storage Management Services",
                                     "data replication")
        first = eil.search(form, user)
        docs_before = sum(len(a.documents) for a in first.activities)
        for workbook in corpus.collection:
            eil.access.restrict(workbook.name)
        second = eil.search(form, user)
        assert _hits(registry) == 0  # policy bump forced a recompute
        assert sum(len(a.documents) for a in second.activities) <= docs_before
        for activity in second.activities:
            assert activity.documents == []
