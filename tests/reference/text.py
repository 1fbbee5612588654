"""Reference implementations the analysis-path tests compare against.

The program caches and fuses; these do neither.  They are the path the
program took before it did, kept here so that the suites in
``tests/text`` and ``tests/search`` state what "unchanged" means.
"""

from typing import List

from repro.docmodel import DocumentParser
from repro.search.analyzer import AnalyzedTerm
from repro.text import STOPWORDS, PorterStemmer, Tokenizer

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
