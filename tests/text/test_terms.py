"""``term_pattern`` matches exactly what the longest-first alternation
it replaced matched (``tests/reference/terms.py``).

Both are compiled with the flags a caller would use and run over the
same text, in both case modes, and in both the ways callers use a term
dictionary: bounded by ``\\b`` on each side (the ontology and
technology annotators) and embedded before a continuation that can
fail after a long term, so the engine must backtrack to a shorter one
(the role heuristics' ``<Role>[ \\t]*:``).
"""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.annotators.regex import PHONE_PATTERN
from repro.text.terms import term_pattern
from tests.reference import terms as reference

# Characters whose case behaviour under re.IGNORECASE is irregular:
# dotted capital I and dotless i (no one-character lower/upper pair),
# the Kelvin sign (matches k and K), long s (matches s and S) and sharp
# s (no one-character upper case), with their plain relatives.
_TERM_ALPHABET = "aAbB" "iIİı" "kKK" "sSſ" "ßẞ" " -.&"
_TEXT_ALPHABET = _TERM_ALPHABET + ":\t"

_CASE_MODES = [(False, 0), (True, re.IGNORECASE)]
_USES = {
    "bounded": lambda source: r"\b" + source + r"\b",
    "embedded": lambda source: "(" + source + r")[ \t]*:",
}


@st.composite
def _term_lists(draw):
    terms = draw(st.lists(
        st.text(_TERM_ALPHABET, min_size=1, max_size=6),
        min_size=1, max_size=6,
    ))
    # Prefixes of drawn terms (a cut at or past the end is a duplicate)
    # and case variants of them.
    derived = draw(st.lists(st.tuples(
        st.integers(0, len(terms) - 1),
        st.integers(1, 7),
        st.sampled_from([str, str.upper, str.lower, str.swapcase]),
    ), max_size=6))
    return terms + [
        change(terms[index][:cut]) for index, cut, change in derived
    ]


@st.composite
def _cases(draw):
    terms = draw(_term_lists())
    pieces = st.one_of(
        st.sampled_from(terms).flatmap(
            lambda t: st.sampled_from([t, t.upper(), t.lower()])
        ),
        st.text(_TEXT_ALPHABET, max_size=3),
    )
    return terms, "".join(draw(st.lists(pieces, max_size=8)))


def _matches(source, flags, text):
    pattern = re.compile(source, flags)
    return [(m.span(), m.groups()) for m in pattern.finditer(text)]


def _assert_same(terms, text, ignore_case, flags, use):
    wrap = _USES[use]
    got = _matches(wrap(term_pattern(terms, ignore_case)), flags, text)
    want = _matches(wrap(reference.alternation(terms)), flags, text)
    assert got == want, (terms, text)


@pytest.mark.parametrize("use", sorted(_USES))
@pytest.mark.parametrize("ignore_case, flags", _CASE_MODES)
@settings(max_examples=400, deadline=None)
@given(case=_cases())
def test_matches_the_longest_first_alternation(case, ignore_case, flags, use):
    terms, text = case
    _assert_same(terms, text, ignore_case, flags, use)


@pytest.mark.parametrize("terms, text", [
    # Lower-casing "İ" gives two characters; re matches it to i and I.
    (["İa"], "Ia ia ıa"),
    # Case-variant siblings: with one branch each, "Ab" would be tried
    # (and accepted) before the longer "aB c".
    (["Ab", "aB c"], "ab c"),
    (["K", "kk", "Kk"], "kk K k"),
    (["ss", "ſ", "Sſs"], "SSS ſſ"),
    (["ß", "ẞa"], "ßA ẞ"),
    (["TSA", "Lead TSA", "Lead"], "Lead TSA: x Lead: y"),
])
@pytest.mark.parametrize("use", sorted(_USES))
@pytest.mark.parametrize("ignore_case, flags", _CASE_MODES)
def test_irregular_case_examples(terms, text, ignore_case, flags, use):
    _assert_same(terms, text, ignore_case, flags, use)


def test_shared_prefixes_are_spelt_once():
    source = term_pattern(["Lead TSA", "Lead", "Leader"])
    assert source.count("Lead") == 1, source


_PHONE_TEXT = st.lists(st.one_of(
    st.text("0123456789٣", min_size=1, max_size=4),
    st.sampled_from(["+", "(", ")", "-", ".", " ", "\t", "x"]),
), max_size=16).map("".join)


@settings(max_examples=400, deadline=None)
@given(text=_PHONE_TEXT)
@example(text="+1 (555) 123-4567, 555.123.4567 x(555)123-4567")
@example(text="٣٣٣-123-4567 12 555 123 4567")
def test_phone_guard_changes_no_match(text):
    got = [m.span() for m in PHONE_PATTERN.finditer(text)]
    want = [m.span() for m in reference.PHONE_PATTERN.finditer(text)]
    assert got == want
