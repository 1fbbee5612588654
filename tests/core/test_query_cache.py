"""Online query-result cache: hits, invalidation, access isolation."""

import dataclasses

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro import CorpusConfig, CorpusGenerator, EILSystem, User, obs
from repro.core import scope_query
from repro.core.metaqueries import service_keyword_query
from repro.core.query_analyzer import FormQuery
from repro.corpus import DealGenerator, WorkbookFactory
from repro.errors import QuerySyntaxError
from repro.serving import EILServer

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

    def test_a_padded_form_answers_alike_cold_and_cached(self, corpus):
        """The cache keys a form by its stripped fields, so what it
        serves a padded form after the unpadded one must be what a
        fresh system answers the padded form."""
        padded = FormQuery(tower="  End User Services ",
                           any_words=" services ")
        plain = FormQuery(tower="End User Services", any_words="services")
        fresh = EILSystem.build(corpus).search(padded, SALES)
        assert fresh.activities
        assert all(
            activity.reasons == ("tower=End User Services",)
            for activity in fresh.activities
        )
        warm = EILSystem.build(corpus)
        warm.search(plain, SALES)
        with obs.use_registry() as registry:
            cached = warm.search(padded, SALES)
            assert _hits(registry) == 1
        assert cached == fresh

    def test_different_limits_are_distinct_entries(self, eil, registry):
        form = scope_query("End User Services")
        eil.search(form, SALES, limit=1)
        eil.search(form, SALES, limit=2)
        assert _hits(registry) == 0

    def test_cached_results_are_mutation_safe(self, eil, registry):
        """An answer is frozen all the way down, so the one the cache
        hands to every hit cannot be changed by any of them."""
        form = scope_query("End User Services")
        first = eil.search(form, SALES)
        activity = first.activities[0]
        for target, name in ((first, "plan"), (first, "activities"),
                             (activity, "documents"),
                             (activity, "reasons"), (activity, "score")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(target, name, ())
        for sequence in (first.activities, first.plan, activity.reasons,
                         activity.documents, activity.contacts):
            assert isinstance(sequence, tuple)
            assert not hasattr(sequence, "clear")
            assert not hasattr(sequence, "append")
        second = eil.search(form, SALES)
        assert _hits(registry) == 1
        assert second == first

    def test_a_hit_returns_the_stored_answer_until_an_epoch_moves(
        self, eil, registry
    ):
        """No copy per hit: every hit, inline through the front door or
        not, is the very object the miss stored, until the search
        epoch, the engine epoch or the ACL policy version moves."""
        form = scope_query("End User Services")
        stored = eil.search(form, SALES)
        with EILServer(eil) as server:
            assert eil.search(form, SALES) is stored
            assert server.search(form, SALES) is stored
            assert registry.counters["serving.answered_inline"].value == 1
        moves = (
            lambda: eil.access.restrict("no such repository"),
            lambda: eil.engine.remove(next(iter(eil.engine.index.doc_ids))),
            eil._search.invalidate,
        )
        for move in moves:
            move()
            fresh = eil.search(form, SALES)
            assert fresh is not stored
            assert eil.search(form, SALES) is fresh
            stored = fresh


_TEXT = st.text(alphabet=" \tab", max_size=6)
_FIELD_VALUES = st.one_of(
    _TEXT,
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=False),
    st.tuples(st.text(alphabet=" a", max_size=3)),
    st.lists(st.integers(), max_size=2),
)
_CRITERIA_NAMES = [
    f.name for f in dataclasses.fields(FormQuery) if f.name != "search_in"
]
_FIELD_NAMES = [f.name for f in dataclasses.fields(FormQuery)]


def _forms(values):
    return st.builds(
        FormQuery,
        search_in=st.sampled_from(["ewb", "synopsis"]),
        **{name: values for name in _CRITERIA_NAMES},
    )


#: Text-only forms with at least one criterion that is not blank.
_TEXT_FORMS = _forms(_TEXT).filter(
    lambda form: any(getattr(form, name).strip() for name in _CRITERIA_NAMES)
)


class TestCacheKey:
    @pytest.fixture(scope="class")
    def search(self, corpus):
        return EILSystem.build(corpus)._search

    @given(form=_TEXT_FORMS, limit=st.none() | st.integers(0, 20))
    def test_key_equals_the_astuple_expression(self, search, form, limit):
        """The key is built from the form's fields without copying the
        form, and is the key ``dataclasses.astuple`` used to give."""
        normalized = tuple(
            value.strip() for value in dataclasses.astuple(form)
        )
        assert search._cache_key(form, SALES, limit, 5) == (
            normalized,
            (SALES.user_id, frozenset(SALES.roles),
             search.access.policy_version),
            (search.epoch, search.siapi.engine.epoch),
            limit, 5,
        )

    @given(form=_forms(_FIELD_VALUES), limit=st.none() | st.integers(0, 20))
    def test_a_non_text_value_is_a_typed_error_naming_it(
        self, search, form, limit
    ):
        """The first value that is not text is named, whatever the
        others hold."""
        non_text = [
            name for name, value in zip(_FIELD_NAMES,
                                        dataclasses.astuple(form))
            if not isinstance(value, str)
        ]
        assume(non_text)
        with pytest.raises(QuerySyntaxError, match=repr(non_text[0])):
            search._cache_key(form, SALES, limit, 5)

    @given(form=_forms(st.text(alphabet=" \t", max_size=4)))
    def test_a_blank_form_is_a_typed_error(self, search, form):
        with pytest.raises(QuerySyntaxError, match="empty"):
            search._cache_key(form, SALES, None, 5)


class TestNonTextFormFields:
    """A form value that is not text is the user's error, raised before
    the cache or any substrate is read."""

    @pytest.mark.parametrize("form", [
        FormQuery(tower=None),
        FormQuery(tower=3),
        FormQuery(tower=["End User Services"]),
        FormQuery(tower=("End User Services",)),
        FormQuery(tower="End User Services", all_words=None),
    ])
    def test_the_front_door_raises_a_typed_error_naming_the_field(
        self, eil, registry, form
    ):
        name = "tower" if form.all_words == "" else "all_words"
        with EILServer(eil) as server:
            with pytest.raises(QuerySyntaxError, match=repr(name)):
                server.search(form, SALES)
        with pytest.raises(QuerySyntaxError, match=repr(name)):
            eil.search(form, SALES)
        counters = registry.counters
        assert "query.cache.misses" not in counters
        assert "query.cache.hits" not in counters
        assert "synopsis.queries" not in counters


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
            assert activity.documents == ()
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
            assert activity.documents == ()
