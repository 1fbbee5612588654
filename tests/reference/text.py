"""Reference implementations the analysis-path tests compare against.

The program caches and fuses; these do neither.  They are the path the
program took before it did, kept here so that the suites in
``tests/text`` and ``tests/search`` state what "unchanged" means.

:class:`Tokenizer` is the offset-preserving word tokenizer the analyzer
was composed from before its loop was fused; it keeps its own copy of
the word pattern, so a change to the analyzer's shows up against it.
"""

import re
from dataclasses import dataclass
from typing import Iterator, List

from repro.docmodel import DocumentParser
from repro.search.analyzer import AnalyzedTerm
from repro.text import STOPWORDS, PorterStemmer

# A word is a run of alphanumerics that may contain internal apostrophes
# (don't), ampersands (AT&T) or periods between single letters (U.S.A.).
_WORD_RE = re.compile(
    r"""
    [A-Za-z0-9]+                 # leading alphanumeric run
    (?:['&.][A-Za-z0-9]+)*       # internal joiners: don't, AT&T, U.S.A
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    """A single token with its character span in the source text.

    Attributes:
        text: The exact surface form as it appears in the document.
        start: Offset of the first character (inclusive).
        end: Offset one past the last character (exclusive).
    """

    text: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid token span [{self.start}, {self.end})")

    @property
    def lower(self) -> str:
        """Case-folded surface form."""
        return self.text.lower()

    def __len__(self) -> int:
        return self.end - self.start


class Tokenizer:
    """Offset-preserving word tokenizer.

    Args:
        lowercase: If true, token text is case-folded (offsets still refer
            to the original text).
        min_length: Tokens shorter than this are dropped.
    """

    def __init__(self, lowercase: bool = False, min_length: int = 1) -> None:
        if min_length < 1:
            raise ValueError("min_length must be >= 1")
        self.lowercase = lowercase
        self.min_length = min_length

    def tokenize(self, text: str) -> List[Token]:
        """Tokenize ``text`` into a list of :class:`Token`."""
        return list(self.iter_tokens(text))

    def iter_tokens(self, text: str) -> Iterator[Token]:
        """Lazily yield tokens from ``text`` in document order."""
        for match in _WORD_RE.finditer(text):
            surface = match.group(0)
            if len(surface) < self.min_length:
                continue
            if self.lowercase:
                surface = surface.lower()
            yield Token(surface, match.start(), match.end())


_STEMMER = PorterStemmer()
_STEPS = (
    _STEMMER._step1a, _STEMMER._step1b, _STEMMER._step1c, _STEMMER._step2,
    _STEMMER._step3, _STEMMER._step4, _STEMMER._step5a, _STEMMER._step5b,
)


def porter_steps(word: str) -> str:
    """The eight Porter steps on ``word``; never looks at the memo."""
    if len(word) <= 2:
        return word
    for step in _STEPS:
        word = step(word)
    return word


def analyze_by_composition(
    text: str, use_stemming: bool = True, use_stopwords: bool = True
) -> List[AnalyzedTerm]:
    """``Tokenizer.iter_tokens`` -> ``STOPWORDS`` -> uncached stem."""
    terms = []
    for position, token in enumerate(Tokenizer().iter_tokens(text)):
        lowered = token.text.lower()
        if use_stopwords and lowered in STOPWORDS:
            continue
        if use_stemming:
            lowered = porter_steps(lowered)
        terms.append(AnalyzedTerm(lowered, position, token.start, token.end))
    return terms


def field_texts(corpus) -> List[str]:
    """Every field of every document, as the crawl hands them to the
    index."""
    parser = DocumentParser()
    return [
        text
        for workbook in corpus.collection
        for document in workbook.documents()
        for text in parser.to_indexable(document).fields.values()
    ]
