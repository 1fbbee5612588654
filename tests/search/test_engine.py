"""Unit tests for the search engine: matching, ranking, filtering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SearchError
from repro.obs import use_registry
from repro.search import (
    Analyzer,
    Bm25Scorer,
    IndexableDocument,
    SearchEngine,
)
from repro.search.engine import _make_snippet
from tests.reference.search import make_snippet


@pytest.fixture
def engine():
    e = SearchEngine()
    for document in (
        IndexableDocument(
            "a",
            {"title": "End User Services scope",
             "body": "Customer Services Center and Distributed "
                     "Client Services are in scope for this deal."},
            {"deal_id": "d1", "doc_type": "scope"},
        ),
        IndexableDocument(
            "b",
            {"title": "Technical solution",
             "body": "data replication between the two data centers "
                     "with storage management services"},
            {"deal_id": "d2", "doc_type": "solution"},
        ),
        IndexableDocument(
            "c",
            {"title": "Team roster",
             "body": "Sam White is the CSE. Contact "
                     "sam.white@abc.com for details."},
            {"deal_id": "d2", "doc_type": "roster"},
        ),
        IndexableDocument(
            "d",
            {"title": "Weekly minutes",
             "body": "Nothing about services here, only schedules."},
            {"deal_id": "d3", "doc_type": "minutes"},
        ),
    ):
        e.add(document)
    return e


class TestMatching:
    def test_and_semantics(self, engine):
        assert [h.doc_id for h in engine.search("data replication")] == ["b"]

    def test_query_with_no_hits(self, engine):
        assert engine.search("zeppelin") == []

    def test_stemming_collides_variants(self, engine):
        # "service" matches documents containing "services".
        assert engine.count("service") == engine.count("services")

    def test_phrase_vs_bag_of_words(self, engine):
        assert engine.count('"customer services center"') == 1
        # Bag of words also matches doc a only here, but scores differ.
        phrase_hit = engine.search('"customer services center"')[0]
        bag_hit = engine.search("customer services center")[0]
        assert phrase_hit.score > bag_hit.score

    def test_or(self, engine):
        assert engine.count("replication OR roster") == 2

    def test_negation(self, engine):
        ids = {h.doc_id for h in engine.search("services -replication")}
        assert ids == {"a", "d"}

    def test_pure_negation_matches_complement(self, engine):
        # Only doc c lacks the term "services".
        ids = {h.doc_id for h in engine.search("-services")}
        assert ids == {"c"}

    def test_field_search(self, engine):
        assert [h.doc_id for h in engine.search("title:roster")] == ["c"]
        assert engine.count("body:roster") == 0

    def test_count_matches_search_length(self, engine):
        assert engine.count("services") == len(engine.search("services"))

    def test_negation_inside_or(self, engine):
        # "-services" contributes the complement {c}; "replication"
        # contributes {b}.  The union keeps both.
        ids = {h.doc_id for h in engine.search("replication OR -services")}
        assert ids == {"b", "c"}

    def test_phrase_with_field_restriction(self, engine):
        hits = engine.search('title:"end user services"')
        assert [h.doc_id for h in hits] == ["a"]
        # The same phrase never occurs inside a body field.
        assert engine.count('body:"end user services"') == 0


class TestRanking:
    def test_scores_descending(self, engine):
        hits = engine.search("services")
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_deterministic_tie_break(self, engine):
        hits = engine.search("services")
        # Re-running produces the identical order.
        assert [h.doc_id for h in hits] == [
            h.doc_id for h in engine.search("services")
        ]

    def test_limit(self, engine):
        assert len(engine.search("services", limit=1)) == 1

    def test_field_boost_changes_ranking(self):
        docs = [
            IndexableDocument("t", {"title": "replication", "body": "x y"}),
            IndexableDocument("b", {"title": "x", "body": "replication y"}),
        ]
        boosted = SearchEngine(field_boosts={"title": 5.0})
        for document in docs:
            boosted.add(document)
        assert boosted.search("replication")[0].doc_id == "t"

    def test_custom_scorer_pluggable(self, engine):
        docs = [
            IndexableDocument("x", {"body": "services services rare"}),
            IndexableDocument("y", {"body": "services"}),
        ]
        default = SearchEngine()
        for document in docs:
            default.add(document)
        assert default.search("services")[0].doc_id == "y"  # shorter wins
        e = SearchEngine(scorer=Bm25Scorer(b=0.0))
        for document in docs:
            e.add(document)
        # Without length normalization the higher tf wins.
        assert e.search("services")[0].doc_id == "x"

    def test_bm25_parameter_validation(self):
        with pytest.raises(ValueError):
            Bm25Scorer(k1=-1)
        with pytest.raises(ValueError):
            Bm25Scorer(b=2.0)

    def test_rare_term_outscores_common(self, engine):
        # "replication" (df=1) should contribute more than "services" (df=3)
        rep = engine.search("replication")[0].score
        srv = max(h.score for h in engine.search("services"))
        assert rep > srv * 0.5  # same ballpark check; rare term is strong


class TestFiltering:
    """The one filter is an activity scope, ``(metadata key, values)``."""

    def test_doc_filter_by_set(self, engine):
        hits = engine.search("services", scope=("deal_id", {"d1", "d3"}))
        assert {h.doc_id for h in hits} == {"a", "d"}

    def test_a_predicate_doc_filter_is_rejected_before_anything_runs(
        self, engine
    ):
        # A callable, or a set of document ids, is turned away before
        # the cache is probed or a posting read, and is never called.
        called = []

        def predicate(document):
            called.append(document.doc_id)
            return True

        with use_registry() as registry:
            for bad in (predicate, {"a", "d"}, frozenset({"a"})):
                for run in (
                    lambda: engine.search("services", scope=bad),
                    lambda: engine.count("services", scope=bad),
                    lambda: engine.select("services", len, None, bad),
                ):
                    with pytest.raises(SearchError, match="metadata key"):
                        run()
            assert registry.names() == []
        assert called == []

    def test_count_respects_filter(self, engine):
        assert engine.count("services", scope=("deal_id", {"d1"})) == 1
        assert engine.count("services", scope=("doc_type", {"scope"})) == 1
        assert engine.count("services", scope=("deal_id", set())) == 0

    def test_doc_filter_by_frozenset(self, engine):
        hits = engine.search(
            "services", scope=("deal_id", frozenset({"d1", "d3"}))
        )
        assert {h.doc_id for h in hits} == {"a", "d"}

    def test_doc_filter_by_dict_key_view(self, engine):
        # Any collections.abc.Set of values works, dict key views too.
        allowed = {"d2": None, "d3": None}
        hits = engine.search("services", scope=("deal_id", allowed.keys()))
        assert {h.doc_id for h in hits} == {"b", "d"}

    def test_invalid_doc_filter_raises(self, engine):
        for bad in (42, ("deal_id",), ("deal_id", ["d1"]), (1, {"d1"})):
            with pytest.raises(SearchError):
                engine.search("services", scope=bad)


class TestSnippets:
    def test_snippet_contains_match(self, engine):
        hit = engine.search("replication")[0]
        assert "replication" in hit.snippet.lower()

    def test_snippet_fallback_for_negation_only(self, engine):
        hit = engine.search("-zeppelin")[0]
        assert hit.snippet  # leading text used as fallback

    def test_snippet_fallback_when_surface_not_in_text(self, engine):
        # Stemming matches "scheduling" against "schedules", but the
        # query surface never occurs verbatim, so the snippet falls
        # back to the document's leading text instead of crashing or
        # returning an empty string.
        hits = engine.search("scheduling")
        assert [h.doc_id for h in hits] == ["d"]
        assert hits[0].snippet
        assert "scheduling" not in hits[0].snippet.lower()

    # "İ" lowers to two code points, so every one ahead of a match puts
    # the match one place further on in the lowered text than in the
    # text the window is cut from.
    LENGTHENED = (
        "\u0130" * 40 + " filler before the plan: "
        "the migration plan starts today and goes on for a while"
    )

    def test_window_anchors_in_the_text_when_lowering_lengthens_it(self):
        snippet = _make_snippet(
            self.LENGTHENED, ["migration plan"], set(), Analyzer()
        )
        assert "the migration plan starts" in snippet
        assert snippet == make_snippet(
            self.LENGTHENED, ["migration plan"], set(), Analyzer()
        )

    def test_a_hit_shows_its_match_when_lowering_lengthens_the_text(self):
        engine = SearchEngine()
        engine.add(IndexableDocument("t", {"body": self.LENGTHENED}))
        (hit,) = engine.search('"migration plan"')
        assert "migration plan" in hit.snippet

    def test_ascii_windows_are_cut_where_they_always_were(self):
        text = "x" * 50 + " the migration plan starts today " + "y" * 60
        best = text.lower().find("migration plan")
        assert _make_snippet(
            text, ["migration plan"], set(), Analyzer()
        ) == " ".join(text[best - 80 // 3:best - 80 // 3 + 80].split())


class TestLifecycle:
    def test_remove_then_search(self, engine):
        engine.remove("b")
        assert engine.count("replication") == 0
        assert len(engine) == 3

    def test_remove_takes_several_documents_under_one_epoch(self, engine):
        before = engine.epoch
        engine.remove("a", "b", "a")
        assert engine.epoch == before + 1
        assert len(engine) == 2
        assert engine.count("replication") == 0

    def test_remove_checks_every_id_before_removing_any(self, engine):
        before = engine.epoch
        with pytest.raises(SearchError):
            engine.remove("a", "nope")
        assert engine.epoch == before
        assert engine.index.has_document("a") and len(engine) == 4

    def test_remove_of_nothing_keeps_the_epoch(self, engine):
        before = engine.epoch
        engine.remove()
        assert engine.epoch == before

    def test_hit_fields_are_a_read_only_view(self, engine):
        hit = engine.search("replication")[0]
        with pytest.raises(TypeError):
            hit.fields["title"] = "changed"  # type: ignore[index]
        assert hit.fields == engine.index.document(hit.doc_id).fields

    def test_metadata_carried_through(self, engine):
        hit = engine.search("replication")[0]
        assert engine.index.metadata_column("deal_id").values[
            hit.doc_id
        ] == "d2"
        assert hit.fields == engine.index.document(hit.doc_id).fields

    def test_document_validation(self):
        with pytest.raises(SearchError):
            IndexableDocument("", {"a": "b"})
        with pytest.raises(SearchError):
            IndexableDocument("x", {})
        with pytest.raises(SearchError):
            IndexableDocument("x", {"a": 42})


class TestCachedRankingBuildsEachHitOnce:
    """The result cache stores ``(doc_id, score)`` pairs and the hits
    built from them so far: a second ask decodes nothing."""

    @pytest.fixture
    def decodes(self, engine, monkeypatch):
        """Doc ids in the order the engine fetched their documents."""
        fetched = []
        document = engine.index.document

        def counting(doc_id):
            fetched.append(doc_id)
            return document(doc_id)

        monkeypatch.setattr(engine.index, "document", counting)
        return fetched

    def test_hit_after_miss_serves_the_same_objects(self, engine, decodes):
        with use_registry() as registry:
            first = engine.search("services")
            assert sorted(decodes) == ["a", "b", "d"]
            second = engine.search("services")
            assert registry.counter("engine.cache.hits").value == 1
        assert len(decodes) == 3  # nothing decoded the second time
        assert first is not second  # a list of the caller's own
        assert len(first) == len(second) == 3
        assert all(a is b for a, b in zip(first, second))

    def test_covered_smaller_limit_builds_nothing_new(self, engine, decodes):
        with use_registry() as registry:
            top2 = engine.search("services", limit=2)
            assert len(decodes) == 2
            top1 = engine.search("services", limit=1)
            assert registry.counter("engine.cache.hits").value == 1
            assert registry.counter("engine.cache.sliced").value == 1
            assert len(decodes) == 2
            assert top1[0] is top2[0]
            # The same limit again is not a slice.
            engine.search("services", limit=2)
            assert registry.counter("engine.cache.sliced").value == 1

    def test_only_the_shown_hits_of_a_complete_ranking_are_built(
        self, engine, decodes
    ):
        with use_registry() as registry:
            # limit=50 finds 3: stored as complete, all three built.
            engine.search("services", limit=50)
            assert len(decodes) == 3
            assert engine.count("services") == 3
            assert registry.counter("engine.counts_from_cache").value == 1
        decodes.clear()
        engine.search("replication OR roster OR minutes")  # b, c, d
        assert sorted(decodes) == ["b", "c", "d"]

    def test_select_builds_what_choose_asks_for(self, engine, decodes):
        uncached = SearchEngine(cache_size=0)
        for doc_id in "abcd":
            uncached.add(engine.index.document(doc_id))
        expected = uncached.search("services")
        assert engine.select(
            "services",
            lambda ranking: ranking.reader.metadata_column("deal_id")
            .values["d"],
        ) == "d3"
        decodes.clear()

        def second_only(ranking):
            assert [doc_id for doc_id, _ in ranking.pairs] == [
                hit.doc_id for hit in expected
            ]
            return ranking.hit(1)

        hit = engine.select("services", second_only)
        assert decodes == [expected[1].doc_id]
        assert (hit.doc_id, hit.score, hit.snippet) == (
            expected[1].doc_id, expected[1].score, expected[1].snippet
        )
        # search() on the cached ranking reuses it and builds the rest.
        hits = engine.search("services")
        assert hits[1] is hit
        assert sorted(decodes) == sorted(h.doc_id for h in expected)


# Everything ``str.isspace`` calls a space and a regex ``\s`` has to
# agree on: the ASCII six, the four separators \x1c-\x1f, NEL, NBSP,
# the Unicode spaces, line and paragraph separators — and CRLF pairs.
_SPACES = list(
    " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680"
    "\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
    "\u2028\u2029\u202f\u205f\u3000"
) + ["\r\n"]
# Look like spaces, are not: zero-width space, Mongolian vowel
# separator, BOM, NUL, ESC.
_NEAR_SPACES = ["\u200b", "\u180e", "\ufeff", "\x00", "\x1b"]
_PIECES = st.one_of(
    st.sampled_from(_SPACES),
    st.sampled_from(_SPACES),
    st.sampled_from(_NEAR_SPACES),
    st.sampled_from(["finance", "Financed", "NETWORK", "storage", "\u00e9", "-",
                     "\u0130"]),
)


class TestSnippetWhitespace:
    @given(
        pieces=st.lists(_PIECES, max_size=60),
        surfaces=st.lists(
            st.sampled_from(["finance", "Network", "stor age", "zzz",
                             "financing", "\xa0", ""]),
            max_size=3,
        ),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_split_join_is_the_regex_fold(self, pieces, surfaces):
        """The engine folds whitespace with ``" ".join(s.split())`` and
        takes its surfaces lowered; the oracle runs ``re.sub(r"\\s+", " ",
        s).strip()`` and lowers per call.  Same snippet, any text."""
        text = "".join(pieces)
        analyzer = Analyzer()
        terms = set()
        for surface in surfaces:
            terms.update(analyzer.analyze_query_terms(surface))
        assert _make_snippet(
            text, [surface.lower() for surface in surfaces], terms, analyzer
        ) == make_snippet(text, surfaces, terms, analyzer)

    def test_the_alphabet_is_every_space_there_is(self):
        assert {c for c in _SPACES if len(c) == 1} == {
            chr(c) for c in range(0x110000) if chr(c).isspace()
        }
        assert not any(c.isspace() for c in _NEAR_SPACES)

    @pytest.mark.parametrize("space", _SPACES)
    def test_every_space_folds_to_one(self, space):
        text = f"finance{space}{space}network{space}"
        assert _make_snippet(text, ["finance"], set(), Analyzer()) == (
            "finance network"
        )
