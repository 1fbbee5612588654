"""The search oracle: the exhaustive query interpreter.

This is what ``repro.search.engine`` did before it had a planner, and
what its ``ExecutionOptions.exhaustive()`` mode kept doing until the
planner became the only production path: every clause is evaluated in
the order it was written over its full matching set, every (term,
field, document) is scored by one :func:`bm25` call, filters are
applied after scoring, and the whole candidate set is sorted before a
limit cuts it.  Nothing is reordered, narrowed, pruned or heaped, which
is what makes it the statement of what the engine must return:
``tests/search/test_execution_equivalence.py`` compares the two on
documents, scores and order.

It reads an index only through the surface every index shares —
``matching_docs``, ``doc_ids``, ``fields``, ``document``,
``average_length`` and ``len`` — so the same code runs over an
``InvertedIndex`` and a ``SegmentBackedIndex`` in any segment layout.
A document's term frequencies, field lengths and
phrase adjacency are therefore not read off stored postings but
recomputed by analyzing the stored field text.

:func:`bm25` is the scalar BM25 the engine's bulk scorer must agree
with bit for bit: the same float expression, with ``k1`` / ``b`` read
off the engine's scorer, one (term, field, document) at a time.

It imports nothing from ``repro.search.engine`` and records no metrics;
the number of postings it scored comes back as a return value.

``exhaustive_hits`` is what ``SearchEngine._evaluate`` did with such a
ranking before the engine ranked to pairs and built only the hits a
result shows: every ranked document is fetched and given its snippet,
the query's surfaces lowered again for each one and the whitespace
folded by ``re.sub``.  ``tests/reference/siapi.py`` groups these hits
the way ``SiapiService.search_grouped`` used to.
"""

import math
import re
from collections.abc import Set as AbstractSet
from typing import Dict, List, Optional, Set, Tuple

from repro.search.document import SearchHit
from repro.search.querylang import (
    AndQuery,
    NotQuery,
    OrQuery,
    PhraseQuery,
    Query,
    TermQuery,
    parse_query,
)

__all__ = ["bm25", "exhaustive_search", "exhaustive_ranking",
           "exhaustive_hits", "make_snippet"]

# The engine's phrase boost, restated: a wrong constant on either side
# shows up as a score mismatch.
PHRASE_BOOST = 1.25

Ranking = List[Tuple[str, float]]


def _analyzed_field(
    engine, doc_id: str, field: str
) -> Tuple[Dict[str, Set[int]], int]:
    """term -> positions and the token count of one stored field
    instance, by analyzing its text (({}, 0) if the document lacks it).
    """
    text = engine.index.document(doc_id).fields.get(field)
    positions: Dict[str, Set[int]] = {}
    if text is None:
        return positions, 0
    analyzed = engine.analyzer.analyze(text)
    for token in analyzed:
        positions.setdefault(token.term, set()).add(token.position)
    return positions, len(analyzed)


def bm25(
    engine,
    term: str,
    doc_id: str,
    field: str,
    df: Optional[int] = None,
    analyzed: Optional[Tuple[Dict[str, Set[int]], int]] = None,
) -> float:
    """Okapi BM25 of ``term`` in ``doc_id``'s ``field`` (0 when absent).

    ``engine`` is anything with ``index``, ``scorer`` (for ``k1`` and
    ``b``) and ``analyzer``; ``df`` defaults to the term's in-field
    document frequency, ``analyzed`` to :func:`_analyzed_field` of the
    document.
    """
    index = engine.index
    positions, length = (
        analyzed if analyzed is not None
        else _analyzed_field(engine, doc_id, field)
    )
    tf = len(positions.get(term, ()))
    if tf == 0:
        return 0.0
    if df is None:
        df = len(index.matching_docs(term, field))
    average = index.average_length(field)
    if average == 0:
        return 0.0
    k1, b = engine.scorer.k1, engine.scorer.b
    total = len(index)
    idf = math.log(1.0 + (total - df + 0.5) / (df + 0.5))
    mult = idf * (k1 + 1.0)
    base = k1 * (1.0 - b)
    scale = k1 * b / average
    return mult * tf / (tf + base + scale * length)


class _Interpreter:
    """One exhaustive evaluation over ``engine``'s index and scorer."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.index = engine.index
        self.boosts = engine.field_boosts
        self.analyzer = engine.analyzer
        self.postings_scored = 0
        self._analyzed: Dict[
            Tuple[str, str], Tuple[Dict[str, Set[int]], int]
        ] = {}

    # -- scored evaluation ----------------------------------------------------

    def match(self, query: Query) -> Dict[str, float]:
        if isinstance(query, TermQuery):
            terms = self.analyzer.analyze_query_terms(query.text)
            if not terms:
                return {}
            if len(terms) > 1:
                # A "term" that analyzes into several tokens is an
                # implicit AND of its parts.
                return self.match_and(
                    [TermQuery(term, query.field) for term in terms]
                )
            return self.score_term(terms[0], query.field)
        if isinstance(query, PhraseQuery):
            return self.match_phrase(query)
        if isinstance(query, AndQuery):
            return self.match_and(query.clauses)
        if isinstance(query, OrQuery):
            scores: Dict[str, float] = {}
            for clause in query.clauses:
                for doc_id, score in self.match(clause).items():
                    scores[doc_id] = max(scores.get(doc_id, 0.0), score)
            return scores
        if isinstance(query, NotQuery):
            excluded = self.match_docs(query.clause)
            return {
                doc_id: 0.0 for doc_id in self.index.doc_ids - excluded
            }
        raise AssertionError(f"unknown query node {query!r}")

    def score_term(
        self, term: str, field: Optional[str]
    ) -> Dict[str, float]:
        scores: Dict[str, float] = {}
        fields = [field] if field is not None else self.index.fields
        for field_name in fields:
            boost = self.boosts.get(field_name, 1.0)
            matching = self.index.matching_docs(term, field_name)
            df = len(matching)
            self.postings_scored += df
            for doc_id in matching:
                contribution = bm25(
                    self.engine, term, doc_id, field_name, df,
                    self._field_analysis(doc_id, field_name),
                )
                scores[doc_id] = (
                    scores.get(doc_id, 0.0) + boost * contribution
                )
        return scores

    def match_phrase(self, query: PhraseQuery) -> Dict[str, float]:
        terms = self.analyzer.analyze_query_terms(query.text)
        if not terms:
            return {}
        if len(terms) == 1:
            return self.score_term(terms[0], query.field)
        docs = self.phrase_docs(terms, query.field)
        if not docs:
            return {}
        # Each member term is scored over its full matching set.
        contributions = [
            self.score_term(term, query.field) for term in terms
        ]
        return {
            doc_id: sum(c.get(doc_id, 0.0) for c in contributions)
            * PHRASE_BOOST
            for doc_id in docs
        }

    def match_and(self, clauses) -> Dict[str, float]:
        positive = [c for c in clauses if not isinstance(c, NotQuery)]
        negative = [c.clause for c in clauses if isinstance(c, NotQuery)]
        if not positive:
            excluded: Set[str] = set()
            for clause in negative:
                excluded |= self.match_docs(clause)
            return {
                doc_id: 0.0 for doc_id in self.index.doc_ids - excluded
            }
        parts = []
        candidates: Optional[Set[str]] = None
        for clause in positive:
            part = self.match(clause)
            parts.append(part)
            candidates = (
                set(part) if candidates is None else candidates & set(part)
            )
            if not candidates:
                return {}
        for clause in negative:
            candidates -= self.match_docs(clause)
        scores: Dict[str, float] = {}
        for doc_id in candidates:
            total = parts[0][doc_id]
            for part in parts[1:]:
                total = total + part[doc_id]
            scores[doc_id] = total
        return scores

    # -- membership -----------------------------------------------------------

    def match_docs(self, query: Query) -> Set[str]:
        if isinstance(query, TermQuery):
            terms = self.analyzer.analyze_query_terms(query.text)
            if not terms:
                return set()
            docs = self.index.matching_docs(terms[0], query.field)
            for term in terms[1:]:
                docs &= self.index.matching_docs(term, query.field)
            return docs
        if isinstance(query, PhraseQuery):
            terms = self.analyzer.analyze_query_terms(query.text)
            if not terms:
                return set()
            if len(terms) == 1:
                return self.index.matching_docs(terms[0], query.field)
            return self.phrase_docs(terms, query.field)
        if isinstance(query, AndQuery):
            matched: Optional[Set[str]] = None
            excluded: Set[str] = set()
            for clause in query.clauses:
                if isinstance(clause, NotQuery):
                    excluded |= self.match_docs(clause.clause)
                    continue
                docs = self.match_docs(clause)
                matched = docs if matched is None else matched & docs
            if matched is None:
                return self.index.doc_ids - excluded
            return matched - excluded
        if isinstance(query, OrQuery):
            matched = set()
            for clause in query.clauses:
                matched |= self.match_docs(clause)
            return matched
        if isinstance(query, NotQuery):
            return self.index.doc_ids - self.match_docs(query.clause)
        raise AssertionError(f"unknown query node {query!r}")

    def phrase_docs(
        self, terms: List[str], field: Optional[str]
    ) -> Set[str]:
        """Documents with ``terms`` at consecutive positions of one field."""
        fields = [field] if field is not None else self.index.fields
        matches: Set[str] = set()
        for field_name in fields:
            candidates = self.index.matching_docs(terms[0], field_name)
            for term in terms[1:]:
                candidates &= self.index.matching_docs(term, field_name)
            for doc_id in candidates:
                positions = self._field_analysis(doc_id, field_name)[0]
                starts = set(positions[terms[0]])
                for offset, term in enumerate(terms[1:], start=1):
                    starts &= {p - offset for p in positions[term]}
                if starts:
                    matches.add(doc_id)
        return matches

    def _field_analysis(
        self, doc_id: str, field_name: str
    ) -> Tuple[Dict[str, Set[int]], int]:
        key = (doc_id, field_name)
        analyzed = self._analyzed.get(key)
        if analyzed is None:
            analyzed = self._analyzed[key] = _analyzed_field(
                self.engine, doc_id, field_name
            )
        return analyzed


def exhaustive_search(
    engine, query, limit: Optional[int] = None, doc_filter=None
) -> Tuple[Ranking, int]:
    """``(ranking, postings scored)`` for ``query`` over ``engine``.

    ``engine`` is anything with ``index``, ``scorer``, ``field_boosts``
    and ``analyzer`` — a ``SearchEngine`` over any index layout.
    The ranking is ``[(doc_id, score), ...]`` by descending score, ties
    by doc id; ``doc_filter`` is an id set, a predicate over stored
    documents, or an activity scope ``(metadata key, values)`` — which
    is resolved to the id set of its documents through the index's
    ``docs_with_metadata``, the way the engine took a scope before it
    checked one on the postings it walks — applied after scoring.
    """
    if isinstance(query, str):
        query = parse_query(query)
    interpreter = _Interpreter(engine)
    scores = interpreter.match(query)
    if isinstance(doc_filter, tuple):
        key, values = doc_filter
        doc_filter = engine.index.docs_with_metadata(key, values)
    if isinstance(doc_filter, AbstractSet):
        scores = {
            doc_id: score
            for doc_id, score in scores.items()
            if doc_id in doc_filter
        }
    elif doc_filter is not None:
        scores = {
            doc_id: score
            for doc_id, score in scores.items()
            if doc_filter(engine.index.document(doc_id))
        }
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    if limit is not None:
        ranked = ranked[:limit]
    return ranked, interpreter.postings_scored


def exhaustive_ranking(
    engine, query, limit: Optional[int] = None, doc_filter=None
) -> Ranking:
    """The ranking half of :func:`exhaustive_search`."""
    return exhaustive_search(engine, query, limit, doc_filter)[0]


def query_surfaces(query: Query) -> List[str]:
    """Positive surface strings in the query, for snippet highlighting."""
    if isinstance(query, (TermQuery, PhraseQuery)):
        return [query.text]
    if isinstance(query, (AndQuery, OrQuery)):
        surfaces: List[str] = []
        for clause in query.clauses:
            surfaces.extend(query_surfaces(clause))
        return surfaces
    return []  # NotQuery: nothing to highlight


def make_snippet(
    text: str,
    surfaces: List[str],
    highlight_terms: Set[str],
    analyzer,
    width: int = 80,
) -> str:
    """A short window of text around the first query-term occurrence:
    the first verbatim surface, else the first token whose analyzed
    form is a query term, else the document's head.  A match is found
    in the lowered text and the window cut from ``text``, at the
    character the match's first lowered code point came from (``"İ"``
    lowers to two)."""
    lowered = text.lower()
    came_from = [i for i, char in enumerate(text) for _ in char.lower()]
    best = None
    for surface in surfaces:
        position = lowered.find(surface.lower())
        if position != -1 and (best is None or position < best):
            best = position
    if best is not None:
        best = came_from[best] if best < len(came_from) else len(text)
    if best is None and highlight_terms:
        for analyzed in analyzer.analyze(text):
            if analyzed.term in highlight_terms:
                best = analyzed.start
                break
    if best is None:
        snippet = text[:width]
    else:
        start = max(0, best - width // 3)
        snippet = text[start:start + width]
    return re.sub(r"\s+", " ", snippet).strip()


def exhaustive_hits(
    engine, query, limit: Optional[int] = None, doc_filter=None
) -> List[SearchHit]:
    """Every document of :func:`exhaustive_ranking` as a built hit."""
    if isinstance(query, str):
        query = parse_query(query)
    surfaces = query_surfaces(query)
    highlight_terms: Set[str] = set()
    for surface in surfaces:
        highlight_terms.update(
            engine.analyzer.analyze_query_terms(surface)
        )
    hits = []
    for doc_id, score in exhaustive_ranking(
        engine, query, limit, doc_filter
    ):
        document = engine.index.document(doc_id)
        hits.append(
            SearchHit(
                doc_id=doc_id,
                score=score,
                fields=document.fields,
                snippet=make_snippet(
                    document.text, surfaces, highlight_terms,
                    engine.analyzer,
                ),
            )
        )
    return hits
