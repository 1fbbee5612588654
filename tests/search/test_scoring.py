"""BM25's behaviour, through the reference scalar scorer (the engine's
bulk scorer is held to it in test_topk_execution.py)."""

import pytest

from repro.search import Analyzer, Bm25Scorer, IndexableDocument, SearchEngine
from tests.reference.search import bm25


def make_engine(documents, scorer=None):
    engine = SearchEngine(
        Analyzer(use_stemming=False, use_stopwords=False), scorer,
        cache_size=0,
    )
    for document in documents:
        engine.add(document)
    return engine


@pytest.fixture
def engine():
    return make_engine([
        IndexableDocument("short", {"body": "wan wan lan"}),
        IndexableDocument("long", {"body": "wan " + "filler " * 40}),
        IndexableDocument("other", {"body": "lan mainframe storage"}),
    ])


class TestBm25:
    def test_absent_term_scores_zero(self, engine):
        assert bm25(engine, "ghost", "short", "body") == 0.0
        assert bm25(engine, "wan", "short", "ghost") == 0.0

    def test_higher_tf_higher_score(self, engine):
        assert bm25(engine, "wan", "short", "body") > 0

    def test_length_normalization(self, engine):
        # "wan" once in 'long' (41 tokens) scores below "wan" in the
        # 3-token 'short', which also has the higher tf.
        assert bm25(engine, "wan", "short", "body") > bm25(
            engine, "wan", "long", "body"
        )
        assert bm25(engine, "lan", "short", "body") > 0

    def test_rare_term_beats_common_at_same_tf(self, engine):
        # "mainframe" (df=1) vs "lan" (df=2), both tf=1 in 'other'.
        assert bm25(engine, "mainframe", "other", "body") > bm25(
            engine, "lan", "other", "body"
        )

    def test_precomputed_df_matches_computed(self, engine):
        df = len(engine.index.matching_docs("wan", "body"))
        assert bm25(engine, "wan", "short", "body", df) == (
            bm25(engine, "wan", "short", "body")
        )

    def test_b_zero_disables_length_normalization(self):
        engine = make_engine([
            IndexableDocument("short", {"body": "wan wan lan"}),
            IndexableDocument("other", {"body": "lan mainframe storage"}),
            IndexableDocument("long", {"body": "lan " + "filler " * 40}),
        ], Bm25Scorer(b=0.0))
        # With b=0 and equal tf, doc length is irrelevant.
        assert bm25(engine, "lan", "short", "body") == (
            bm25(engine, "lan", "long", "body")
        )

    def test_empty_index(self):
        empty = make_engine([])
        assert empty.index.average_length("body") == 0.0
        assert empty.scorer.score_postings(
            empty.index, "x", "body", [], [], df=0
        ) == []


class TestSparseFieldAverageLength:
    """Regression: ``average_length(field)`` must divide by the number
    of documents that *have* the field, not the total document count.
    The old denominator deflated avgdl for sparse fields, inflating the
    BM25 length penalty for every document that carries the field.
    """

    @pytest.fixture
    def sparse(self):
        return make_engine([
            IndexableDocument("t1", {"title": "alpha", "body": "x"}),
            IndexableDocument("t2", {"title": "alpha beta gamma",
                                     "body": "y"}),
            IndexableDocument("nb", {"body": "z"}),  # no title
        ])

    def test_average_length_counts_only_docs_with_field(self, sparse):
        # Two docs have a title, totalling 1 + 3 = 4 tokens.  The seed
        # divided by all three docs (4/3 ~ 1.33); correct is 4/2 = 2.0.
        assert sparse.index.average_length("title") == 2.0
        assert sparse.index.field_document_count("title") == 2
        assert sparse.index.field_document_count("body") == 3

    def test_bm25_scores_with_corrected_avgdl(self, sparse):
        # Pinned against the closed form with avgdl=2.0, N=3, df=2:
        #   idf = ln(1 + (3 - 2 + 0.5) / (2 + 0.5))
        #   score = idf * tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl))
        # The seed's deflated avgdl (4/3) gave 0.5235... for t1.
        assert bm25(sparse, "alpha", "t1", "title") == pytest.approx(
            0.5908617053374963
        )
        assert bm25(sparse, "alpha", "t2", "title") == pytest.approx(
            0.3901916922040070
        )

    def test_missing_field_average_is_zero(self, sparse):
        assert sparse.index.average_length("ghost") == 0.0

