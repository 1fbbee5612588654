"""Analysis pipeline: text -> index terms with positions.

The same analyzer instance must be used at index time and at query time
(stemming and stopping must agree on both sides); the engine owns one
and exposes it to the query parser.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from repro.text.stemmer import PorterStemmer
from repro.text.stopwords import STOPWORDS

__all__ = ["AnalyzedTerm", "Analyzer"]

# A word is a run of alphanumerics that may contain internal apostrophes
# (don't), ampersands (AT&T) or periods between single letters (U.S.A.).
_WORD_RE = re.compile(
    r"""
    [A-Za-z0-9]+                 # leading alphanumeric run
    (?:['&.][A-Za-z0-9]+)*       # internal joiners: don't, AT&T, U.S.A
    """,
    re.VERBOSE,
)


class AnalyzedTerm(NamedTuple):
    """A term ready for the index.

    A tuple, the cheapest object to build once per word analysed.

    Attributes:
        term: The normalized (lower-cased, stemmed) index term.
        position: Ordinal of the term in its field (stopwords consume
            positions so phrase queries stay aligned with the original
            text).
        start: Character offset in the source field.
        end: One past the last character.
    """

    term: str
    position: int
    start: int
    end: int


class Analyzer:
    """Tokenize, case-fold, drop stopwords, stem.

    Args:
        use_stemming: Disable to index surface forms (used by tests and
            the exact-match People index).
        use_stopwords: Disable to keep every token.
    """

    def __init__(self, use_stemming: bool = True, use_stopwords: bool = True):
        self._stem = PorterStemmer().stem if use_stemming else None
        self._stopwords = STOPWORDS if use_stopwords else frozenset()

    def analyze(self, text: str) -> List[AnalyzedTerm]:
        """Produce index terms for one field of text.

        Words of every length are taken straight from the pattern's
        matches with their character offsets, so a term maps back to
        its exact span in the source text.
        """
        terms: List[AnalyzedTerm] = []
        append = terms.append
        stopwords = self._stopwords
        stem = self._stem
        for position, match in enumerate(_WORD_RE.finditer(text)):
            term = match.group().lower()
            if term in stopwords:
                continue
            if stem is not None:
                term = stem(term)
            append(AnalyzedTerm(term, position, match.start(), match.end()))
        return terms

    def analyze_query_terms(self, text: str) -> List[str]:
        """Normalize query text into bare terms (for term/phrase queries)."""
        return [t.term for t in self.analyze(text)]
