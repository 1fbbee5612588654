"""Direct unit tests for the BM25 scorer."""

import pytest

from repro.search import Analyzer, Bm25Scorer, IndexableDocument
from repro.search.inverted_index import InvertedIndex


@pytest.fixture
def index():
    idx = InvertedIndex(Analyzer(use_stemming=False, use_stopwords=False))
    idx.add(IndexableDocument("short", {"body": "wan wan lan"}))
    idx.add(IndexableDocument("long", {"body": "wan " + "filler " * 40}))
    idx.add(IndexableDocument("other", {"body": "lan mainframe storage"}))
    return idx


class TestBm25:
    def test_absent_term_scores_zero(self, index):
        assert Bm25Scorer().score(index, "ghost", "short") == 0.0

    def test_higher_tf_higher_score(self, index):
        scorer = Bm25Scorer()
        assert scorer.score(index, "wan", "short") > 0

    def test_length_normalization(self, index):
        # Same tf=... actually short has tf=2, but test length effect
        # with tf=1 docs: matching term in a shorter document scores
        # higher than in a longer one.
        scorer = Bm25Scorer()
        short_lan = scorer.score(index, "lan", "short")
        # "lan" appears once in both 'short' (3 tokens) and 'other'
        # (3 tokens)... use 'wan' in 'long' (41 tokens) vs 'lan' in
        # 'other' (3 tokens): compare same-df different-length instead.
        long_wan = scorer.score(index, "wan", "long")
        short_wan = scorer.score(index, "wan", "short")
        assert short_wan > long_wan
        assert short_lan > 0

    def test_rare_term_beats_common_at_same_tf(self, index):
        scorer = Bm25Scorer()
        # "mainframe" (df=1) vs "lan" (df=2), both tf=1 in 'other'.
        assert scorer.score(index, "mainframe", "other") > scorer.score(
            index, "lan", "other"
        )

    def test_precomputed_df_matches_computed(self, index):
        scorer = Bm25Scorer()
        computed = scorer.score(index, "wan", "short", "body")
        df = index.document_frequency("wan", "body")
        assert scorer.score(index, "wan", "short", "body", df=df) == (
            pytest.approx(computed)
        )

    def test_b_zero_disables_length_normalization(self, index):
        scorer = Bm25Scorer(b=0.0)
        assert scorer.score(index, "wan", "long") == pytest.approx(
            scorer.score(index, "wan", "long", None)
        )
        # With b=0 and equal tf, doc length is irrelevant.
        long_score = scorer.score(index, "wan", "long")
        # 'short' has tf=2 so compare via 'lan': tf=1 in short & other.
        assert scorer.score(index, "lan", "short") == pytest.approx(
            scorer.score(index, "lan", "other")
        )
        assert long_score > 0

    def test_empty_index(self):
        empty = InvertedIndex()
        assert Bm25Scorer().score(empty, "x", "y") == 0.0


class TestSparseFieldAverageLength:
    """Regression: ``average_length(field)`` must divide by the number
    of documents that *have* the field, not the total document count.
    The old denominator deflated avgdl for sparse fields, inflating the
    BM25 length penalty for every document that carries the field.
    """

    @pytest.fixture
    def sparse(self):
        idx = InvertedIndex(Analyzer(use_stemming=False, use_stopwords=False))
        idx.add(IndexableDocument("t1", {"title": "alpha", "body": "x"}))
        idx.add(IndexableDocument(
            "t2", {"title": "alpha beta gamma", "body": "y"}))
        idx.add(IndexableDocument("nb", {"body": "z"}))  # no title
        return idx

    def test_average_length_counts_only_docs_with_field(self, sparse):
        # Two docs have a title, totalling 1 + 3 = 4 tokens.  The seed
        # divided by all three docs (4/3 ~ 1.33); correct is 4/2 = 2.0.
        assert sparse.average_length("title") == 2.0
        assert sparse.field_document_count("title") == 2
        assert sparse.field_document_count("body") == 3

    def test_bm25_scores_with_corrected_avgdl(self, sparse):
        # Pinned against the closed form with avgdl=2.0, N=3, df=2:
        #   idf = ln(1 + (3 - 2 + 0.5) / (2 + 0.5))
        #   score = idf * tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl))
        # The seed's deflated avgdl (4/3) gave 0.5235... for t1.
        scorer = Bm25Scorer()
        assert scorer.score(sparse, "alpha", "t1", "title") == pytest.approx(
            0.5908617053374963
        )
        assert scorer.score(sparse, "alpha", "t2", "title") == pytest.approx(
            0.3901916922040070
        )

    def test_missing_field_average_is_zero(self, sparse):
        assert sparse.average_length("ghost") == 0.0

