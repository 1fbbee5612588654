"""Unit tests for the top-k execution engine's building blocks.

Covers the compiled posting arrays (lazy compile, incremental
maintenance, invalidation on remove), the metadata value index, the
bulk scorer API and its upper bounds, and the engine-level satellites:
limit-folding result cache, mutation-safe cached hits,
count-from-cache, and analyzed-token snippet anchoring.
"""

import dataclasses

import pytest

from repro.obs import use_registry
from repro.search import (
    Analyzer,
    Bm25Scorer,
    IndexableDocument,
    InvertedIndex,
    SearchEngine,
)
from tests.reference.search import bm25, exhaustive_ranking


def doc(doc_id, body, title=None, **metadata):
    fields = {"body": body}
    if title is not None:
        fields["title"] = title
    return IndexableDocument(doc_id, fields, metadata)


@pytest.fixture
def index():
    # No stemming: test terms below are index terms verbatim.
    ix = InvertedIndex(Analyzer(use_stemming=False))
    ix.add(doc("a", "wan wan lan", deal_id="d1"))
    ix.add(doc("b", "wan storage network", deal_id="d1"))
    ix.add(doc("c", "storage storage storage", deal_id="d2"))
    return ix


class TestCompiledPostings:
    def test_arrays_carry_tf_and_length(self, index):
        postings = index.term_postings("wan", "body")
        by_doc = dict(zip(postings.doc_ids, zip(postings.tfs,
                                                postings.lengths)))
        assert by_doc == {"a": (2, 3), "b": (1, 3)}
        assert postings.max_tf == 2
        assert len(postings) == 2

    def test_absent_term_compiles_to_none(self, index):
        assert index.term_postings("ghost", "body") is None
        assert index.term_postings("wan", "ghost_field") is None

    def test_compile_is_lazy_and_cached(self, index):
        with use_registry() as registry:
            first = index.term_postings("storage", "body")
            again = index.term_postings("storage", "body")
            assert (
                registry.counter("index.postings_compiled").value == 1
            )
        assert again is first

    def test_add_appends_incrementally(self, index):
        compiled = index.term_postings("storage", "body")
        index.add(doc("d", "storage wan", deal_id="d2"))
        assert compiled.doc_ids[-1] == "d"
        assert compiled.tfs[-1] == 1
        assert index.term_postings("storage", "body") is compiled

    def test_remove_invalidates_only_touched_terms(self, index):
        storage = index.term_postings("storage", "body")
        lan = index.term_postings("lan", "body")
        index.remove("c")  # contains storage, not lan
        rebuilt = index.term_postings("storage", "body")
        assert rebuilt is not storage
        assert rebuilt.doc_ids == ["b"]
        assert index.term_postings("lan", "body") is lan

    def test_max_tf_does_not_force_compilation(self, index):
        with use_registry() as registry:
            assert index.max_tf("wan", "body") is None
            assert (
                registry.counter("index.postings_compiled").value == 0
            )
        index.term_postings("wan", "body")
        assert index.max_tf("wan", "body") == 2

    def test_df_matches_document_frequency(self, index):
        for term in ("wan", "storage", "lan", "ghost"):
            assert index.df(term, "body") == (
                len(index.matching_docs(term, "body"))
            )

    def test_every_mutation_updates_or_invalidates_the_array(self, index):
        compiled = index.term_postings("wan", "body")
        index.add(doc("d", "wan wan wan"))
        assert index.term_postings("wan", "body") is compiled
        assert compiled.doc_ids == ["a", "b", "d"]
        assert index.max_tf("wan", "body") == 3
        index.remove("d")
        assert index.max_tf("wan", "body") is None  # dropped, not stale
        rebuilt = index.term_postings("wan", "body")
        assert rebuilt is not compiled
        assert (rebuilt.doc_ids, rebuilt.tfs, rebuilt.max_tf) == (
            ["a", "b"], [2, 1], 2
        )


class TestMetadataValueIndex:
    def test_docs_with_metadata(self, index):
        assert index.docs_with_metadata("deal_id", {"d1"}) == {"a", "b"}
        assert index.docs_with_metadata("deal_id", {"d1", "d2"}) == {
            "a", "b", "c"
        }
        assert index.docs_with_metadata("deal_id", {"ghost"}) == set()
        assert index.docs_with_metadata("ghost_key", {"d1"}) == set()

    def test_remove_cleans_value_index(self, index):
        index.remove("c")
        assert index.docs_with_metadata("deal_id", {"d2"}) == set()

    def test_unhashable_values_are_skipped(self):
        ix = InvertedIndex()
        ix.add(doc("a", "wan", tags=["x", "y"], deal_id="d1"))
        assert ix.docs_with_metadata("deal_id", {"d1"}) == {"a"}
        assert ix.docs_with_metadata("tags", {"x"}) == set()
        # An unhashable *probe* value must not raise either.
        assert ix.docs_with_metadata("deal_id", [["boom"]]) == set()


# b=1 makes the tf-saturation constant k1 * (1 - b) zero: the one case
# where ``upper_bound`` cannot use ``max_tf`` and returns the idf bound.
@pytest.mark.parametrize("scorer", [Bm25Scorer(), Bm25Scorer(k1=2.0, b=1.0)])
class TestBulkScorer:
    def test_score_postings_matches_per_doc(self, index, scorer):
        engine = SearchEngine(scorer=scorer, index=index)
        for term in ("wan", "storage", "lan"):
            compiled = index.term_postings(term, "body")
            df = len(compiled)
            bulk = scorer.score_postings(
                index, term, "body", compiled.tfs, compiled.lengths,
                df=df,
            )
            per_doc = [
                bm25(engine, term, doc_id, "body", df)
                for doc_id in compiled.doc_ids
            ]
            assert bulk == per_doc  # bit-identical, not approx

    def test_upper_bound_dominates_scores(self, index, scorer):
        engine = SearchEngine(scorer=scorer, index=index)
        for term in ("wan", "storage", "lan"):
            compiled = index.term_postings(term, "body")
            df = len(compiled)
            for max_tf in (None, compiled.max_tf):
                bound = scorer.upper_bound(
                    index, term, "body", df, max_tf=max_tf
                )
                for doc_id in compiled.doc_ids:
                    assert bound >= bm25(engine, term, doc_id, "body", df)

    def test_zero_df_bounds_and_bulk(self, index, scorer):
        assert scorer.upper_bound(index, "ghost", "body", 0) == 0.0
        assert scorer.score_postings(
            index, "ghost", "body", [], [], df=0
        ) == []


class TestEngineCacheSatellites:
    @pytest.fixture
    def engine(self):
        e = SearchEngine(cache_size=32)
        for document in (
            doc("a", "wan storage network services"),
            doc("b", "wan wan storage"),
            doc("c", "network network services"),
            doc("d", "storage services wan network"),
        ):
            e.add(document)
        return e

    def test_limits_share_one_cached_ranking(self, engine):
        with use_registry() as registry:
            full = engine.search("wan OR network")
            top2 = engine.search("wan OR network", limit=2)
            top1 = engine.search("wan OR network", limit=1)
            assert registry.counter("engine.cache.misses").value == 1
            assert registry.counter("engine.cache.hits").value == 2
        assert [h.doc_id for h in top2] == [h.doc_id for h in full][:2]
        assert [h.doc_id for h in top1] == [h.doc_id for h in full][:1]
        # What the cache slices out is what the oracle ranks.
        for limit, served in ((None, full), (2, top2), (1, top1)):
            assert [(h.doc_id, h.score) for h in served] == (
                exhaustive_ranking(engine, "wan OR network", limit)
            )

    def test_partial_ranking_serves_smaller_limits_only(self, engine):
        scored = "engine.terms_scored"
        with use_registry() as registry:
            engine.search("wan OR network", limit=2)
            base = registry.counter(scored).value
            engine.search("wan OR network", limit=1)  # covered: sliced
            assert registry.counter(scored).value == base
            engine.search("wan OR network", limit=3)  # not covered
            assert registry.counter(scored).value > base
            after = registry.counter(scored).value
            engine.search("wan OR network", limit=3)  # now covered
            assert registry.counter(scored).value == after

    def test_limited_result_smaller_than_limit_is_complete(self, engine):
        with use_registry() as registry:
            hits = engine.search("wan OR network", limit=50)
            assert len(hits) < 50
            engine.search("wan OR network")  # unlimited, still covered
            assert registry.counter("engine.cache.hits").value == 1

    def test_mutating_returned_list_does_not_poison_cache(self, engine):
        first = engine.search("wan OR network", limit=3)
        expected = [(h.doc_id, h.score) for h in first]
        first.clear()  # caller abuses the returned list
        second = engine.search("wan OR network", limit=3)
        assert [(h.doc_id, h.score) for h in second] == expected
        with pytest.raises(dataclasses.FrozenInstanceError):
            second[0].score = 999.0  # hits themselves are immutable

    def test_count_answered_from_cached_search(self, engine):
        with use_registry() as registry:
            hits = engine.search("wan OR network")
            assert engine.count("wan OR network") == len(hits)
            assert (
                registry.counter("engine.counts_from_cache").value == 1
            )

    def test_count_ignores_partial_cached_ranking(self, engine):
        with use_registry() as registry:
            engine.search("wan OR network", limit=1)
            assert engine.count("wan OR network") == 4
            assert (
                registry.counter("engine.counts_from_cache").value == 0
            )

    def test_count_never_scores(self, engine):
        with use_registry() as registry:
            assert engine.count("wan OR network") == 4
            assert registry.counter("engine.terms_scored").value == 0


class TestStemmedSnippets:
    def test_snippet_anchors_on_stemmed_variant(self):
        engine = SearchEngine()
        filler = "one two three four five six seven eight nine ten " * 8
        engine.add(
            doc("a", filler + "the deal was financed by the client")
        )
        hits = engine.search("financing")
        assert len(hits) == 1
        assert "financed" in hits[0].snippet

    def test_exact_surface_still_preferred(self):
        engine = SearchEngine()
        engine.add(
            doc("a", "financed early, but financing appears later here")
        )
        snippet = engine.search("financing")[0].snippet
        assert "financing" in snippet
