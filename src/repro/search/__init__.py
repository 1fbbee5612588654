"""Full-text search engine (the paper's OmniFind substitute).

Public surface::

    from repro.search import SearchEngine, IndexableDocument, SiapiQuery

    engine = SearchEngine()
    engine.add(IndexableDocument("doc1", {"title": "...", "body": "..."},
                                 {"deal_id": "d1"}))
    hits = engine.search('"end user services" -template')

Features: positional inverted index, Porter-stemmed analysis, BM25
scoring, a keyword query language with phrases/fields/AND/OR/NOT, SIAPI
facade with activity-scoped search and grouped activity ranking, and a
resilient crawler.
"""

from repro.search.analyzer import AnalyzedTerm, Analyzer
from repro.search.crawler import Crawler, CrawlReport, DocumentSource
from repro.search.document import IndexableDocument, SearchHit
from repro.search.engine import SearchEngine
from repro.search.index_reader import IndexReader, TermPostings
from repro.search.inverted_index import InvertedIndex
from repro.search.querylang import (
    AndQuery,
    NotQuery,
    OrQuery,
    PhraseQuery,
    Query,
    TermQuery,
    parse_query,
)
from repro.search.scoring import Bm25Scorer, Scorer
from repro.search.siapi import ActivityHits, SiapiQuery, SiapiService

__all__ = [
    "Analyzer",
    "AnalyzedTerm",
    "Crawler",
    "CrawlReport",
    "DocumentSource",
    "IndexableDocument",
    "SearchHit",
    "SearchEngine",
    "IndexReader",
    "InvertedIndex",
    "TermPostings",
    "Query",
    "TermQuery",
    "PhraseQuery",
    "AndQuery",
    "OrQuery",
    "NotQuery",
    "parse_query",
    "Bm25Scorer",
    "Scorer",
    "SiapiQuery",
    "SiapiService",
    "ActivityHits",
]
