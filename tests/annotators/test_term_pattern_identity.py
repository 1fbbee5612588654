"""The document pipeline annotates a real corpus exactly as it did with
the longest-first alternations and the unguarded phone pattern
(``tests/reference/terms.py``): every CAS ends with equal annotations,
type, span, features, id and order."""

import re

import pytest

import repro.annotators.content as content
import repro.annotators.heuristics as heuristics
import repro.annotators.ontology as ontology
import repro.annotators.regex as regex
from repro.annotators import build_eil_pipeline, register_eil_types
from repro.corpus import CorpusConfig, CorpusGenerator
from repro.docmodel import DocumentParser, register_structure_types
from repro.uima import TypeSystem
from tests.reference import terms as reference


@pytest.fixture(scope="module")
def corpus():
    # Deep-shaped: few deals, thick workbooks.
    return CorpusGenerator(
        CorpusConfig(n_deals=3, docs_per_deal=100, n_threads=0)
    ).generate()


def _annotate(corpus):
    type_system = TypeSystem()
    register_structure_types(type_system)
    register_eil_types(type_system)
    parser = DocumentParser(type_system)
    pipeline = build_eil_pipeline(corpus.taxonomy)
    pipeline.initialize_types(type_system)
    annotated = []
    for workbook in corpus.collection:
        for document in workbook.documents():
            cas = parser.to_cas(document)
            pipeline.process(cas)
            annotated.append(list(cas))
    return annotated


def test_annotations_equal_the_alternation_pipelines(corpus, monkeypatch):
    trie = _annotate(corpus)

    oracle_roles = reference.alternation(heuristics._ROLE_TERMS)
    monkeypatch.setattr(ontology, "term_pattern", reference.alternation)
    monkeypatch.setattr(content, "term_pattern", reference.alternation)
    monkeypatch.setattr(regex, "PHONE_PATTERN", reference.PHONE_PATTERN)
    monkeypatch.setattr(heuristics, "_PATTERNS", tuple(
        (re.compile(
            pattern.pattern.replace(heuristics.ROLE_TERM_RE, oracle_roles),
            pattern.flags,
        ), first, second)
        for pattern, first, second in heuristics._PATTERNS
    ))
    alternation = _annotate(corpus)

    assert len(trie) == 300
    found = {a.type_name for annotations in trie for a in annotations}
    assert found >= {"eil.Service", "eil.Technology", "eil.Person",
                     "eil.Phone"}
    assert trie == alternation
