"""Unit and property tests for string-similarity measures."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text import jaro, jaro_winkler

short_text = st.text(max_size=24)


class TestJaro:
    def test_identical(self):
        assert jaro("martha", "martha") == 1.0

    def test_known_value(self):
        assert jaro("martha", "marhta") == pytest.approx(0.944444, abs=1e-5)

    def test_disjoint(self):
        assert jaro("abc", "xyz") == 0.0

    def test_empty(self):
        assert jaro("", "abc") == 0.0

    @given(short_text, short_text)
    def test_symmetry_and_bounds(self, a, b):
        value = jaro(a, b)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(jaro(b, a))


class TestJaroWinkler:
    def test_prefix_boost(self):
        assert jaro_winkler("dixon", "dicksonx") > jaro("dixon", "dicksonx")

    def test_known_value(self):
        assert jaro_winkler("dwayne", "duane") == pytest.approx(0.84, abs=0.01)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            jaro_winkler("a", "b", prefix_scale=0.5)

    @given(short_text, short_text)
    def test_bounds(self, a, b):
        assert 0.0 <= jaro_winkler(a, b) <= 1.0

    @given(short_text, short_text)
    def test_at_least_jaro(self, a, b):
        assert jaro_winkler(a, b) >= jaro(a, b) - 1e-12
