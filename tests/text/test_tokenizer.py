"""Unit tests for the offset-preserving tokenizer the analysis-path
suites use as their reference (``tests/reference/text.py``)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests.reference.text import Token, Tokenizer

tokenize = Tokenizer().tokenize


class TestToken:
    def test_span_length(self):
        token = Token("deal", 10, 14)
        assert len(token) == 4

    def test_lower(self):
        assert Token("CSE", 0, 3).lower == "cse"

    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            Token("x", 5, 3)
        with pytest.raises(ValueError):
            Token("x", -1, 0)


class TestTokenizer:
    def test_basic_words(self):
        tokens = tokenize("Storage Management Services")
        assert [t.text for t in tokens] == ["Storage", "Management", "Services"]

    def test_offsets_point_into_source(self):
        text = "Deal C is a Customer Service Center engagement."
        for token in tokenize(text):
            assert text[token.start:token.end] == token.text

    def test_apostrophes_kept_internal(self):
        tokens = tokenize("client's requirements don't change")
        assert "client's" in [t.text for t in tokens]
        assert "don't" in [t.text for t in tokens]

    def test_acronym_with_periods(self):
        tokens = tokenize("based in the U.S.A. today")
        assert "U.S.A" in [t.text for t in tokens]

    def test_ampersand_company_names(self):
        assert [t.text for t in tokenize("AT&T contract")] == ["AT&T", "contract"]

    def test_numbers_tokenized(self):
        tokens = tokenize("contract value 100M over 60 months")
        assert "100M" in [t.text for t in tokens]
        assert "60" in [t.text for t in tokens]

    def test_lowercase_option(self):
        tokens = Tokenizer(lowercase=True).tokenize("End User Services")
        assert [t.text for t in tokens] == ["end", "user", "services"]

    def test_min_length_filter(self):
        tokens = Tokenizer(min_length=3).tokenize("an IT deal of scope")
        assert [t.text for t in tokens] == ["deal", "scope"]

    def test_min_length_validation(self):
        with pytest.raises(ValueError):
            Tokenizer(min_length=0)

    def test_empty_text(self):
        assert tokenize("") == []

    def test_punctuation_only(self):
        assert tokenize("--- *** !!!") == []

    @given(st.text(max_size=200))
    def test_offsets_always_consistent(self, text):
        for token in tokenize(text):
            assert text[token.start:token.end] == token.text

    @given(st.text(max_size=200))
    def test_tokens_in_document_order(self, text):
        tokens = tokenize(text)
        for left, right in zip(tokens, tokens[1:]):
            assert left.end <= right.start

