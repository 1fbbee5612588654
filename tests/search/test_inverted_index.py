"""Unit and property tests for the positional inverted index."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SearchError
from repro.search import Analyzer, IndexableDocument, InvertedIndex


def make_index():
    index = InvertedIndex(Analyzer(use_stemming=False, use_stopwords=False))
    index.add(IndexableDocument("a", {"title": "end user services",
                                      "body": "customer services center"}))
    index.add(IndexableDocument("b", {"title": "network services",
                                      "body": "end of the line"}))
    return index


class TestBasics:
    def test_matching_docs_across_fields(self):
        index = make_index()
        assert index.matching_docs("services") == {"a", "b"}
        assert index.matching_docs("services", "body") == {"a"}

    def test_document_roundtrip(self):
        index = make_index()
        assert index.document("a").fields["title"] == "end user services"
        assert index.has_document("a")
        assert not index.has_document("zz")

    def test_duplicate_add_rejected(self):
        index = make_index()
        with pytest.raises(SearchError):
            index.add(IndexableDocument("a", {"x": "y"}))

    def test_remove_cleans_postings(self):
        index = make_index()
        index.remove("a")
        assert index.matching_docs("customer") == set()
        assert index.matching_docs("services") == {"b"}
        assert len(index) == 1

    def test_remove_missing(self):
        with pytest.raises(SearchError):
            make_index().remove("zz")

    def test_fields_listing(self):
        assert make_index().fields == ["body", "title"]

    def test_vocabulary(self):
        index = make_index()
        assert "services" in index.vocabulary()
        assert "customer" in index.vocabulary("body")
        assert "customer" not in index.vocabulary("title")


class TestPhrase:
    def test_phrase_within_field(self):
        index = make_index()
        assert index.phrase_docs(["end", "user"], "title") == {"a"}
        assert index.phrase_docs(["user", "services"], "title") == {"a"}
        assert index.phrase_docs(["end", "services"], "title") == set()

    def test_phrase_any_field(self):
        index = make_index()
        assert index.phrase_docs(["customer", "services", "center"]) == {"a"}

    def test_phrase_does_not_cross_fields(self):
        # "services" ends the title of b? No - title is "network services",
        # body starts "end of" - "services end" must not match across.
        index = make_index()
        assert index.phrase_docs(["services", "end"]) == set()

    def test_empty_phrase(self):
        assert make_index().phrase_docs([]) == set()

    def test_single_term_phrase(self):
        assert make_index().phrase_docs(["network"]) == {"b"}

    def test_repeated_word_phrase(self):
        index = InvertedIndex(Analyzer(use_stemming=False))
        index.add(IndexableDocument("x", {"body": "deal deal closed"}))
        assert index.phrase_docs(["deal", "deal"], "body") == {"x"}
        assert index.phrase_docs(["deal", "closed"], "body") == {"x"}


class TestStatistics:
    def test_frequencies(self):
        index = make_index()
        assert len(index.matching_docs("services")) == 2
        assert len(index.positions("services", "title")["a"]) == 1
        assert len(index.positions("services", "body")["a"]) == 1

    def test_lengths(self):
        index = make_index()
        assert index.field_lengths("title")["a"] == 3
        assert index.field_lengths("body")["a"] == 3
        assert index.average_length("title") == 2.5

    def test_empty_index_statistics(self):
        index = InvertedIndex()
        assert index.average_length("body") == 0.0
        assert index.matching_docs("x") == set()


class TestRemoveBookkeeping:
    """Regression: ``remove`` must restore all statistics exactly and
    touch only the removed document's own terms (the seed scanned the
    whole vocabulary).
    """

    def _stats(self, index):
        return {
            "len": len(index),
            "fields": index.fields,
            "vocab": {f: index.vocabulary(f) for f in index.fields},
            "avg": {f: index.average_length(f) for f in index.fields},
            "field_docs": {
                f: index.field_document_count(f) for f in index.fields
            },
        }

    def test_add_remove_restores_exact_statistics(self):
        index = make_index()
        baseline = self._stats(index)
        index.add(IndexableDocument(
            "extra",
            {"title": "alpha services", "body": "beta beta gamma",
             "notes": "only this doc has notes"},
        ))
        index.remove("extra")
        assert self._stats(index) == baseline

    def test_remove_drops_field_owned_by_single_doc(self):
        index = make_index()
        index.add(IndexableDocument("solo", {"appendix": "alpha beta"}))
        assert "appendix" in index.fields
        index.remove("solo")
        assert "appendix" not in index.fields
        assert index.average_length("appendix") == 0.0

    def test_remove_touches_only_own_terms(self):
        from repro import obs

        index = make_index()
        index.add(IndexableDocument("extra", {"body": "alpha beta alpha"}))
        with obs.use_registry() as registry:
            index.remove("extra")
            # Two distinct (field, term) postings — not a scan over the
            # whole vocabulary (which holds many more terms).
            histogram = registry.histograms["index.remove_terms_touched"]
            assert histogram.count == 1
            assert histogram.max == 2
            assert histogram.max < len(index.vocabulary())


class TestProperties:
    words = st.lists(
        st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon"]),
        min_size=1, max_size=12,
    )

    @given(st.lists(words, min_size=1, max_size=8))
    @settings(max_examples=40)
    def test_matching_docs_agrees_with_membership(self, docs):
        index = InvertedIndex(Analyzer(use_stemming=False))
        for i, word_list in enumerate(docs):
            index.add(IndexableDocument(f"d{i}", {"body": " ".join(word_list)}))
        for term in ("alpha", "gamma"):
            expected = {f"d{i}" for i, ws in enumerate(docs) if term in ws}
            assert index.matching_docs(term) == expected

    @given(st.lists(words, min_size=1, max_size=8))
    @settings(max_examples=40)
    def test_phrase_agrees_with_substring(self, docs):
        index = InvertedIndex(Analyzer(use_stemming=False))
        for i, word_list in enumerate(docs):
            index.add(IndexableDocument(f"d{i}", {"body": " ".join(word_list)}))
        phrase = ["alpha", "beta"]
        expected = {
            f"d{i}"
            for i, ws in enumerate(docs)
            if any(ws[j:j + 2] == phrase for j in range(len(ws)))
        }
        assert index.phrase_docs(phrase, "body") == expected

    @given(st.lists(words, min_size=2, max_size=8))
    @settings(max_examples=40)
    def test_add_remove_is_identity(self, docs):
        index = InvertedIndex(Analyzer(use_stemming=False))
        for i, word_list in enumerate(docs):
            index.add(IndexableDocument(f"d{i}", {"body": " ".join(word_list)}))
        baseline = {
            term: index.matching_docs(term) for term in index.vocabulary()
        }
        index.add(IndexableDocument("extra", {"body": "alpha beta gamma"}))
        index.remove("extra")
        assert {
            term: index.matching_docs(term) for term in index.vocabulary()
        } == baseline
        assert len(index) == len(docs)
