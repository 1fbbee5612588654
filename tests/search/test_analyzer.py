"""Unit tests for the analysis pipeline."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.search import Analyzer
from tests.reference.text import analyze_by_composition, field_texts


class TestAnalyzer:
    def test_stems_and_stops(self):
        analyzer = Analyzer()
        terms = [t.term for t in analyzer.analyze("the services of a deal")]
        assert terms == ["servic", "deal"]

    def test_positions_account_for_stopwords(self):
        analyzer = Analyzer()
        terms = analyzer.analyze("the services of the deal")
        # "services" is token 1, "deal" is token 4.
        assert [(t.term, t.position) for t in terms] == [
            ("servic", 1),
            ("deal", 4),
        ]

    def test_offsets_point_into_source(self):
        analyzer = Analyzer()
        text = "Storage Management Services"
        for term in analyzer.analyze(text):
            assert text[term.start:term.end].lower().startswith(term.term[:3])

    def test_no_stemming_option(self):
        analyzer = Analyzer(use_stemming=False)
        terms = [t.term for t in analyzer.analyze("services")]
        assert terms == ["services"]

    def test_no_stopwords_option(self):
        analyzer = Analyzer(use_stopwords=False)
        terms = [t.term for t in analyzer.analyze("the deal")]
        assert terms[0] == "the"

    def test_it_is_not_a_stopword(self):
        # "IT services" must keep "it" — it's a domain term here.
        analyzer = Analyzer()
        terms = [t.term for t in analyzer.analyze("IT services")]
        assert "it" in terms

    def test_query_terms_helper(self):
        analyzer = Analyzer()
        assert analyzer.analyze_query_terms("End User Services") == [
            "end",
            "user",
            "servic",
        ]

    def test_empty_text(self):
        assert Analyzer().analyze("") == []


@pytest.fixture(scope="module")
def corpus_fields():
    """Every field of every document of a small corpus."""
    return field_texts(CorpusGenerator(
        CorpusConfig(seed=2008, n_deals=3, docs_per_deal=14)
    ).generate())


_EDGE_INPUTS = [
    "",
    "   \n\t ",
    "İstanbul office — naïve café",   # the pattern is ASCII: "stanbul"
    "ISTANBUL İ ı",
    "2008 Q3 10,000 seats 3.5 FTE 24x7",
    "snake_case_name __init__ _x_",
    "don't AT&T U.S.A. e.g. O'Neil's",
    "The THE the of OF a",
    "services SERVICES Servicing serviced",
    "a.b.c..d 'quoted' &amp; x&&y",
]


class TestAgainstComposition:
    """The fused loop is the composition it replaced, term for term."""

    @pytest.mark.parametrize("use_stemming", [True, False])
    @pytest.mark.parametrize("use_stopwords", [True, False])
    def test_edge_inputs(self, use_stemming, use_stopwords):
        analyzer = Analyzer(use_stemming, use_stopwords)
        for text in _EDGE_INPUTS:
            assert analyzer.analyze(text) == analyze_by_composition(
                text, use_stemming, use_stopwords
            ), text

    @pytest.mark.parametrize("use_stemming", [True, False])
    @pytest.mark.parametrize("use_stopwords", [True, False])
    def test_every_field_of_a_corpus(
            self, corpus_fields, use_stemming, use_stopwords):
        analyzer = Analyzer(use_stemming, use_stopwords)
        assert len(corpus_fields) > 80
        for text in corpus_fields:
            assert analyzer.analyze(text) == analyze_by_composition(
                text, use_stemming, use_stopwords
            )

    @given(st.text(max_size=60))
    def test_any_text(self, text):
        assert Analyzer().analyze(text) == analyze_by_composition(text)
