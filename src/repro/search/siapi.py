"""SIAPI (Search and Index API) facade over the search engine.

This mirrors the role OmniFind's SIAPI plays in the paper: the EIL query
analyzer builds a :class:`SiapiQuery` from the form fields ("all of these
words", "the exact phrase", ...; see paper Fig. 8), and executes it
either unscoped or *scoped to a set of business activities* — the
activities returned by the synopsis query (paper Fig. 1 steps 7-8).

Activity-level relevance follows Section 3: per-document scores are
normalized by the best score in the result set, then averaged per
activity.

Fault behaviour: this facade adds no fault point of its own — the
``index`` fault point lives one layer down, in
:meth:`~repro.search.engine.SearchEngine.search` /
:meth:`~repro.search.engine.SearchEngine.count` — so every SIAPI entry
(search, count, search_grouped) surfaces the same
:class:`~repro.errors.TransientError` stream.  Callers that need to
survive an index outage wrap these calls in the ``siapi`` circuit
breaker (see :mod:`repro.core.search` and docs/OPERATIONS.md).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import QuerySyntaxError
from repro.obs import HistogramHandle
from repro.search.document import SearchHit
from repro.search.engine import Ranking, SearchEngine
from repro.search.querylang import (
    AndQuery,
    NotQuery,
    OrQuery,
    PhraseQuery,
    Query,
    TermQuery,
    parse_query,
)

__all__ = ["SiapiQuery", "ActivityHits", "SiapiService"]

_SIAPI_ACTIVITIES_MATCHED = HistogramHandle("siapi.activities_matched")
_SIAPI_HITS = HistogramHandle("siapi.hits")

_ABSENT = object()


@dataclass(frozen=True)
class SiapiQuery:
    """A form-shaped keyword query (paper Fig. 8, "with this text").

    Attributes:
        all_words: Every word must appear.
        exact_phrase: Must appear consecutively.
        any_words: At least one must appear.
        none_words: None may appear.
        search_field: Restrict to one indexed field (None = anywhere).
        raw: Free-form query string in the engine grammar; combined
            conjunctively with the structured parts when present.
    """

    all_words: str = ""
    exact_phrase: str = ""
    any_words: str = ""
    none_words: str = ""
    search_field: Optional[str] = None
    raw: str = ""

    def is_empty(self) -> bool:
        """True when no text criteria were entered."""
        return not any(
            (self.all_words.strip(), self.exact_phrase.strip(),
             self.any_words.strip(), self.none_words.strip(),
             self.raw.strip())
        )

    def to_query(self) -> Query:
        """Compile the form fields into a query AST."""
        clauses: List[Query] = []
        for word in self.all_words.split():
            clauses.append(TermQuery(word, self.search_field))
        if self.exact_phrase.strip():
            clauses.append(
                PhraseQuery(self.exact_phrase.strip(), self.search_field)
            )
        any_terms = [
            TermQuery(word, self.search_field)
            for word in self.any_words.split()
        ]
        if any_terms:
            clauses.append(
                any_terms[0] if len(any_terms) == 1
                else OrQuery(tuple(any_terms))
            )
        for word in self.none_words.split():
            clauses.append(NotQuery(TermQuery(word, self.search_field)))
        if self.raw.strip():
            clauses.append(parse_query(self.raw))
        if not clauses:
            raise QuerySyntaxError("empty SIAPI query")
        if len(clauses) == 1:
            return clauses[0]
        return AndQuery(tuple(clauses))


@dataclass
class ActivityHits:
    """All hits of one business activity, with its combined relevance.

    Attributes:
        activity_id: The business activity (deal) identifier.
        score: Average normalized document score, in [0, 1].
        hits: The activity's document hits, best first.
    """

    activity_id: str
    score: float
    hits: List[SearchHit] = field(default_factory=list)


class SiapiService:
    """Executes SIAPI queries, optionally scoped to activities.

    Args:
        engine: The underlying search engine.
        activity_key: Metadata key holding each document's business
            activity id.
    """

    def __init__(self, engine: SearchEngine, activity_key: str = "deal_id"):
        self.engine = engine
        self.activity_key = activity_key

    def _scope(
        self, scope: Optional[Set[str]]
    ) -> Optional[Tuple[str, FrozenSet[str]]]:
        """An activity scope as the engine takes it: the activity key
        and the deal ids, which the engine checks on the postings it
        walks and folds into its result-cache key."""
        if scope is None:
            return None
        return (self.activity_key, frozenset(scope))

    def search(
        self,
        query: SiapiQuery,
        scope: Optional[Set[str]] = None,
        limit: Optional[int] = None,
    ) -> List[SearchHit]:
        """Ranked document hits; ``scope`` restricts to those activities."""
        return self.engine.search(
            query.to_query(), limit, self._scope(scope)
        )

    def count(self, query: SiapiQuery, scope: Optional[Set[str]] = None) -> int:
        """Number of matching documents (the paper's "N documents")."""
        return self.engine.count(query.to_query(), self._scope(scope))

    def search_grouped(
        self,
        query: SiapiQuery,
        scope: Optional[Set[str]] = None,
        per_activity_limit: Optional[int] = None,
        activity_limit: Optional[int] = None,
    ) -> List[ActivityHits]:
        """Hits grouped by business activity with normalized scores.

        Per Section 3 of the paper: document scores are normalized by
        the maximum in the result set, then averaged within each
        activity; activities sort by that average.  ``activity_limit``
        keeps only the best activities (score normalization still sees
        every hit, so kept activities score identically either way).

        Grouping, normalising, averaging and trimming work on the
        engine's ``(doc_id, score)`` pairs; a document is decoded and
        given a snippet only if a kept activity shows it, all under the
        engine's one read-side hold (:meth:`SearchEngine.select`).
        """
        return self.engine.select(
            query.to_query(),
            lambda ranking: self._group(
                ranking, per_activity_limit, activity_limit
            ),
            None,
            self._scope(scope),
        )

    def _group(
        self,
        ranking: Ranking,
        per_activity_limit: Optional[int],
        activity_limit: Optional[int],
    ) -> List[ActivityHits]:
        pairs = ranking.pairs
        _SIAPI_HITS.observe(len(pairs))
        if not pairs:
            return []
        best = pairs[0][1] or 1.0  # best first: the result set's maximum
        reader = ranking.reader
        activity_key = self.activity_key
        activity_of = reader.metadata_column(activity_key).values.get
        # activity -> (-normalized score, doc id, position in the
        # ranking): tuples that sort into the presentation order.
        grouped: Dict[str, List[Tuple[float, str, int]]] = {}
        for position, (doc_id, score) in enumerate(pairs):
            activity = activity_of(doc_id, _ABSENT)
            if activity is _ABSENT:  # no key, or a value no index holds
                activity = reader.document(doc_id).metadata.get(
                    activity_key
                )
            if activity is None:
                continue
            grouped.setdefault(activity, []).append(
                (-(score / best), doc_id, position)
            )
        # (-average score, activity id, its entries), sorted the same way.
        scored = []
        for activity_id, entries in grouped.items():
            # Distinct scores can normalize to one float, so the ranking
            # order is not yet the (normalized score, doc id) order.
            entries.sort()
            average = sum(-entry[0] for entry in entries) / len(entries)
            scored.append((-average, activity_id, entries))
        _SIAPI_ACTIVITIES_MATCHED.observe(len(scored))
        if activity_limit is not None and activity_limit < len(scored):
            scored = heapq.nsmallest(activity_limit, scored)
        else:
            scored.sort()
        results = []
        for negated, activity_id, entries in scored:
            if per_activity_limit:
                entries = entries[:per_activity_limit]
            results.append(
                ActivityHits(
                    activity_id=activity_id,
                    score=-negated,
                    hits=[ranking.hit(position) for _, _, position in entries],
                )
            )
        return results
