"""The keyword search engine (OmniFind substitute).

Executes the query AST over the inverted index, scores hits with BM25
(configurable), and returns ranked :class:`SearchHit` lists with
snippets.  A ``scope`` — a metadata key and the values a document's
key must be one of — restricts the searchable set: this is the hook the
SIAPI facade uses to scope a search to the business activities selected
by the synopsis query (paper Fig. 1, step 8).

Execution model (docs/ARCHITECTURE.md, "Query execution engine"):
queries run through one small planner/executor.

* **Bulk scoring** — each (term, field) is scored over its compiled
  flat posting array (:class:`~repro.search.index_reader
  .TermPostings`) in one ``score_postings`` call: idf and the length
  norm constants are computed once, each hit costs a multiply-add.
* **df-ordered AND** — conjunction clauses evaluate in ascending
  document-frequency order and the running intersection is pushed into
  every later clause's posting traversal, so big terms only score
  documents the small terms already admitted.
* **Scope pushdown** — the activity scope is checked on the posting
  arrays traversal already walks, against the index's metadata column
  (doc id -> value); out-of-scope documents are never scored, and the
  scope never becomes a set of document ids.
* **Top-k + MaxScore** — with a ``limit``, OR/hybrid queries select
  hits with a bounded heap instead of a full sort, and whole OR
  clauses are skipped once their score upper bound drops below the
  running k-th best score.
* **Rank → choose → build** — evaluation stops at ``(doc_id, score)``
  pairs (:class:`Ranking`); a caller's ``choose`` picks from them and
  only what it picks is decoded and given a snippet, all under one
  read-side hold of the engine lock (:meth:`SearchEngine.select`).

None of this is selectable: there is one executor.  The original
interpreter (per-document scoring, clause-order evaluation, post-hoc
scope predicate, full sort) is the test oracle ``tests/reference/search.py``,
and ``tests/search/test_execution_equivalence.py`` holds the executor
to it: **identical rankings** (same documents, bit-identical scores,
same tie-breaks) — the scorer shares its arithmetic between
per-document and bulk paths, AND contributions are summed in clause
order regardless of evaluation order, and MaxScore only skips a clause
when its bound is *strictly* below the k-th best score.
"""

from __future__ import annotations

import heapq
from collections.abc import Set as AbstractSet
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
)

from repro.cache import LruCache
from repro.concurrency import ReadWriteLock
from repro.errors import SearchError
from repro.faults import get_injector
from repro.obs import CounterHandle, HistogramHandle
from repro.search.analyzer import Analyzer
from repro.search.document import IndexableDocument, SearchHit
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

__all__ = ["SearchEngine", "Ranking"]

_SEARCHES = CounterHandle("engine.searches")
_COUNTS = CounterHandle("engine.counts")
_CACHE_SLICED = CounterHandle("engine.cache.sliced")
_COUNTS_FROM_CACHE = CounterHandle("engine.counts_from_cache")
_CANDIDATES = HistogramHandle("engine.candidates")
_TERMS_SCORED = CounterHandle("engine.terms_scored")
_POSTINGS_TOUCHED = CounterHandle("engine.postings_touched")
_TOPK_SEARCHES = CounterHandle("engine.maxscore.topk_searches")
_CLAUSES_PRUNED = CounterHandle("engine.maxscore.clauses_pruned")

_T = TypeVar("_T")

#: An activity scope: a metadata key and the values it may take.
Scope = Tuple[str, FrozenSet[Any]]

#: Phrase matches are stronger evidence than the bag of words.
_PHRASE_BOOST = 1.25

# When a restrict set is much smaller than a posting list, look its
# documents up in the posting array instead of scanning all of it.
_PROBE_RATIO = 8

_ABSENT = object()


class Ranking:
    """One query's ranking as ``(doc_id, score)`` pairs, best first, and
    the hits built from it so far.

    What a ``choose`` callback of ``engine.select`` works on — group and
    trim on :attr:`pairs`, read metadata through ``reader
    .metadata_column``, call :meth:`hit` only for the positions the
    result shows — and what the result cache stores.  A hit is built
    once per position and then shared (``SearchHit`` is frozen), so a
    cached ranking never decodes a document or cuts a snippet twice.

    ``limit is None`` means the ranking is complete; otherwise it holds
    the top ``limit`` pairs and can serve any request asking for that
    many or fewer.  (A limited computation that found fewer pairs than
    its limit is stored as complete — nothing was cut off.)

    Only valid under the read-side hold it was handed out in: hits are
    built from the owning engine's index as it is *now*, which is the
    index the pairs were ranked on only while the epoch stands still.
    """

    __slots__ = ("pairs", "limit", "_engine", "_query", "_hits",
                 "_highlight")

    def __init__(
        self,
        engine,
        query: Query,
        pairs: Sequence[Tuple[str, float]],
        limit: Optional[int],
    ) -> None:
        self.pairs = tuple(pairs)
        self.limit = (
            None if limit is not None and len(self.pairs) < limit else limit
        )
        self._engine = engine
        self._query = query
        self._hits: List[Optional[SearchHit]] = [None] * len(self.pairs)
        self._highlight: Optional[Tuple[List[str], Set[str]]] = None

    def covers(self, requested: Optional[int]) -> bool:
        if self.limit is None:
            return True
        return requested is not None and requested <= self.limit

    @property
    def reader(self):
        """The :class:`~repro.search.index_reader.IndexReader` the pairs
        were ranked on, unlocked: for use inside ``choose`` only."""
        return self._engine.index

    def hit(self, position: int) -> SearchHit:
        """The hit for ``pairs[position]``, built on first request."""
        hit = self._hits[position]
        if hit is None:
            highlight = self._highlight
            if highlight is None:  # once per ranking, not per hit
                analyzer = self._engine.analyzer
                surfaces = _query_surfaces(self._query)
                terms: Set[str] = set()
                for surface in surfaces:
                    terms.update(analyzer.analyze_query_terms(surface))
                highlight = self._highlight = (
                    [surface.lower() for surface in surfaces], terms
                )
            doc_id, score = self.pairs[position]
            document = self.reader.document(doc_id)
            hit = self._hits[position] = SearchHit(
                doc_id=doc_id,
                score=score,
                document=document,
                snippet=_make_snippet(
                    document.text, *highlight, self._engine.analyzer
                ),
            )
        return hit

    def head(self, limit: Optional[int]) -> List[SearchHit]:
        """A fresh list of the first ``limit`` hits (all, for None)."""
        return [self.hit(i) for i in range(len(self.pairs[:limit]))]


def _scope(scope) -> Optional[Scope]:
    """``scope`` as a hashable ``(key, frozenset of values)`` (None:
    every document).

    Anything else — a set of document ids, a predicate — raises
    :class:`SearchError` before the cache is probed or a posting read,
    so it is turned away rather than half-applied.
    """
    if scope is None:
        return None
    if (
        isinstance(scope, tuple)
        and len(scope) == 2
        and isinstance(scope[0], str)
        and isinstance(scope[1], AbstractSet)
    ):
        return (scope[0], frozenset(scope[1]))
    raise SearchError(
        f"a scope must be (metadata key, set of values), "
        f"got {type(scope).__name__}"
    )


class _Execution:
    """One query evaluation: the scope and scratch state.

    The executor keeps per-search state (memoized query-term analysis,
    the scope's column, the candidate count for metrics) out of the
    engine so concurrent searches never share mutables.

    A ``restrict`` set handed down the evaluation (the running AND
    intersection, a phrase's documents) is always inside the scope —
    it is made of documents an in-scope evaluation matched — so the
    scope is checked only where no ``restrict`` is given.
    """

    def __init__(self, engine: "SearchEngine", scope: Optional[Scope]) -> None:
        self.engine = engine
        self.index = engine.index
        self.scorer = engine.scorer
        self.boosts = engine.field_boosts
        self.scope = scope
        self.column = (
            self.index.metadata_column(scope[0]) if scope is not None
            else None
        )
        self._terms_cache: Dict[str, List[str]] = {}
        self.n_candidates = 0

    # -- entry ----------------------------------------------------------------

    def ranked(
        self, query: Query, limit: Optional[int]
    ) -> List[Tuple[str, float]]:
        """Evaluate ``query`` and return the (doc_id, score) ranking.

        MaxScore applies to root OR queries under a positive limit (the
        scope is applied during traversal, before any threshold is
        taken, so it never makes pruning unsound).
        """
        if limit is not None and limit > 0 and isinstance(query, OrQuery):
            scores = self._or_top_k(query, limit)
        else:
            scores = self.match(query)
        self.n_candidates = len(scores)
        return self._select(scores, limit)

    def count_docs(self, query: Query) -> int:
        """Number of matching documents (membership only, no scoring)."""
        docs = self.match_docs(query)
        if self.scope is None:
            return len(docs)
        return len(self._in_scope(docs))

    def _select(
        self, scores: Dict[str, float], limit: Optional[int]
    ) -> List[Tuple[str, float]]:
        def sort_key(item: Tuple[str, float]) -> Tuple[float, str]:
            return (-item[1], item[0])

        if limit is not None and limit < len(scores):
            return heapq.nsmallest(limit, scores.items(), key=sort_key)
        ranked = sorted(scores.items(), key=sort_key)
        return ranked[:limit] if limit is not None else ranked

    # -- scored evaluation ----------------------------------------------------

    def match(
        self, query: Query, restrict: Optional[Set[str]] = None
    ) -> Dict[str, float]:
        """Evaluate a query node to doc_id -> score.

        ``restrict`` narrows evaluation to a candidate set the caller
        already established (the running AND intersection); restricting
        never changes a surviving document's score, only skips
        documents the caller would discard anyway.
        """
        if isinstance(query, TermQuery):
            return self.match_term(query, restrict)
        if isinstance(query, PhraseQuery):
            return self.match_phrase(query, restrict)
        if isinstance(query, AndQuery):
            return self.match_and(query.clauses, restrict)
        if isinstance(query, OrQuery):
            return self.match_or(query.clauses, restrict)
        if isinstance(query, NotQuery):
            # A bare negation matches everything except the clause; at
            # top level that is "all documents minus matches" with a
            # flat score, mirroring common engine behaviour.
            excluded = self.match_docs(query.clause)
            universe = self._universe(restrict)
            return {doc_id: 0.0 for doc_id in universe - excluded}
        raise SearchError(f"unknown query node {query!r}")

    def match_term(
        self, query: TermQuery, restrict: Optional[Set[str]] = None
    ) -> Dict[str, float]:
        terms = self._analyze(query.text)
        if not terms:
            return {}
        if len(terms) > 1:
            # A "term" that analyzes into several tokens (hyphens etc.)
            # behaves as an implicit AND of its parts.
            return self.match_and(
                tuple(TermQuery(t, query.field) for t in terms), restrict
            )
        return self.score_term(terms[0], query.field, restrict)

    def score_term(
        self,
        term: str,
        field: Optional[str],
        restrict: Optional[Set[str]] = None,
    ) -> Dict[str, float]:
        scores: Dict[str, float] = {}
        fields = [field] if field is not None else self.index.fields
        _TERMS_SCORED.inc()
        for field_name in fields:
            boost = self.boosts.get(field_name, 1.0)
            self._score_field_bulk(term, field_name, boost, restrict, scores)
        return scores

    def _score_field_bulk(
        self,
        term: str,
        field_name: str,
        boost: float,
        restrict: Optional[Set[str]],
        scores: Dict[str, float],
    ) -> None:
        compiled = self.index.term_postings(term, field_name)
        if compiled is None:
            return
        df = len(compiled)
        doc_ids: Sequence[str] = compiled.doc_ids
        tfs: Sequence[int] = compiled.tfs
        lengths: Sequence[int] = compiled.lengths
        if restrict is None and self.scope is not None:
            # Keep the postings whose document's value is in scope.
            value_of = self.column.values.get
            values = self.scope[1]
            keep = [
                i
                for i, doc_id in enumerate(doc_ids)
                if value_of(doc_id, _ABSENT) in values
            ]
            if len(keep) < df:  # else every posting is in scope
                doc_ids = [doc_ids[i] for i in keep]
                tfs = [tfs[i] for i in keep]
                lengths = [lengths[i] for i in keep]
        elif restrict is not None:
            if not restrict:
                return
            if len(restrict) * _PROBE_RATIO < df:
                # Few allowed documents against a long posting list:
                # probe the array for them instead of scanning all of it.
                doc_ids, tfs, lengths = [], [], []
                for doc_id in restrict:
                    i = compiled.position(doc_id)
                    if i is None:
                        continue
                    doc_ids.append(doc_id)
                    tfs.append(compiled.tfs[i])
                    lengths.append(compiled.lengths[i])
            else:
                keep = [
                    i
                    for i, doc_id in enumerate(doc_ids)
                    if doc_id in restrict
                ]
                doc_ids = [doc_ids[i] for i in keep]
                tfs = [tfs[i] for i in keep]
                lengths = [lengths[i] for i in keep]
        if not doc_ids:
            return
        _POSTINGS_TOUCHED.inc(len(doc_ids))
        contributions = self.scorer.score_postings(
            self.index, term, field_name, tfs, lengths, df=df
        )
        for doc_id, contribution in zip(doc_ids, contributions):
            scores[doc_id] = (
                scores.get(doc_id, 0.0) + boost * contribution
            )

    def match_phrase(
        self, query: PhraseQuery, restrict: Optional[Set[str]] = None
    ) -> Dict[str, float]:
        terms = self._analyze(query.text)
        if not terms:
            return {}
        if len(terms) == 1:
            return self.score_term(terms[0], query.field, restrict)
        docs = self.index.phrase_docs(terms, query.field)
        if restrict is not None:
            docs &= restrict
        elif self.scope is not None:
            docs = self._in_scope(docs)
        if not docs:
            return {}
        # Score each member term over the phrase documents only, then
        # sum per phrase document (per-document rescoring is quadratic).
        contributions = [
            self.score_term(term, query.field, docs) for term in terms
        ]
        scores: Dict[str, float] = {}
        for doc_id in docs:
            total = sum(c.get(doc_id, 0.0) for c in contributions)
            scores[doc_id] = total * _PHRASE_BOOST
        return scores

    def match_and(
        self,
        clauses: Sequence[Query],
        restrict: Optional[Set[str]] = None,
    ) -> Dict[str, float]:
        positive = [c for c in clauses if not isinstance(c, NotQuery)]
        negative = [c.clause for c in clauses if isinstance(c, NotQuery)]
        if not positive:
            # All clauses negative: everything except the exclusions.
            excluded: Set[str] = set()
            for clause in negative:
                excluded |= self.match_docs(clause)
            universe = self._universe(restrict)
            return {doc_id: 0.0 for doc_id in universe - excluded}
        order = sorted(
            range(len(positive)),
            key=lambda i: (self.estimate_df(positive[i]), i),
        )
        parts: List[Optional[Dict[str, float]]] = [None] * len(positive)
        candidates: Optional[Set[str]] = (
            set(restrict) if restrict is not None else None
        )
        for i in order:
            # The running intersection narrows every later clause.
            part = self.match(positive[i], candidates)
            parts[i] = part
            matched = set(part)
            candidates = (
                matched if candidates is None else candidates & matched
            )
            if not candidates:
                return {}
        for clause in negative:
            candidates -= self.match_docs(clause)
            if not candidates:
                return {}
        # Sum contributions in original clause order regardless of the
        # evaluation order, so scores are bit-identical to clause-order
        # evaluation (float addition is not associative).
        scores: Dict[str, float] = {}
        for doc_id in candidates:
            total = parts[0][doc_id]  # type: ignore[index]
            for part in parts[1:]:
                total = total + part[doc_id]  # type: ignore[index]
            scores[doc_id] = total
        return scores

    def match_or(
        self,
        clauses: Sequence[Query],
        restrict: Optional[Set[str]] = None,
    ) -> Dict[str, float]:
        scores: Dict[str, float] = {}
        for clause in clauses:
            for doc_id, score in self.match(clause, restrict).items():
                scores[doc_id] = max(scores.get(doc_id, 0.0), score)
        return scores

    # -- membership-only evaluation -------------------------------------------

    def match_docs(self, query: Query) -> Set[str]:
        """Matching document ids without any scoring work.

        Produces exactly the key set :meth:`match` would, at a fraction
        of the cost — NOT-clause exclusions and ``count`` never need
        scores.  Always evaluates over the full corpus (exclusion sets
        are subtracted from already-filtered candidates, so an
        unfiltered superset is harmless and cheaper than filtering).
        """
        if isinstance(query, TermQuery):
            terms = self._analyze(query.text)
            if not terms:
                return set()
            docs = self.index.matching_docs(terms[0], query.field)
            for term in terms[1:]:
                if not docs:
                    break
                docs &= self.index.matching_docs(term, query.field)
            return docs
        if isinstance(query, PhraseQuery):
            terms = self._analyze(query.text)
            if not terms:
                return set()
            if len(terms) == 1:
                return self.index.matching_docs(terms[0], query.field)
            return self.index.phrase_docs(terms, query.field)
        if isinstance(query, AndQuery):
            matched: Optional[Set[str]] = None
            excluded: Set[str] = set()
            for clause in query.clauses:
                if isinstance(clause, NotQuery):
                    excluded |= self.match_docs(clause.clause)
                    continue
                docs = self.match_docs(clause)
                matched = docs if matched is None else matched & docs
                if not matched:
                    return set()
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
        raise SearchError(f"unknown query node {query!r}")

    # -- planning -------------------------------------------------------------

    def estimate_df(self, query: Query) -> int:
        """Cheap candidate-count estimate for AND clause ordering."""
        if isinstance(query, (TermQuery, PhraseQuery)):
            terms = self._analyze(query.text)
            if not terms:
                return 0
            return min(self.index.df(t, query.field) for t in terms)
        if isinstance(query, AndQuery):
            positive = [
                c for c in query.clauses if not isinstance(c, NotQuery)
            ]
            if not positive:
                return len(self.index)
            return min(self.estimate_df(c) for c in positive)
        if isinstance(query, OrQuery):
            return sum(self.estimate_df(c) for c in query.clauses)
        return len(self.index)  # NotQuery: evaluate late

    def upper_bound(self, query: Query) -> float:
        """Upper bound on any document's score for ``query``.

        Correctness never depends on tightness: a loose bound only
        makes the clause harder to prune.
        """
        if isinstance(query, TermQuery):
            terms = self._analyze(query.text)
            if not terms:
                return 0.0
            return sum(self._term_bound(t, query.field) for t in terms)
        if isinstance(query, PhraseQuery):
            terms = self._analyze(query.text)
            if not terms:
                return 0.0
            if len(terms) == 1:
                return self._term_bound(terms[0], query.field)
            return _PHRASE_BOOST * sum(
                self._term_bound(t, query.field) for t in terms
            )
        if isinstance(query, AndQuery):
            return sum(
                self.upper_bound(c)
                for c in query.clauses
                if not isinstance(c, NotQuery)
            )
        if isinstance(query, OrQuery):
            bounds = [self.upper_bound(c) for c in query.clauses]
            return max(bounds) if bounds else 0.0
        return 0.0  # NotQuery contributes flat 0.0 scores

    def _term_bound(self, term: str, field: Optional[str]) -> float:
        fields = [field] if field is not None else self.index.fields
        bound = 0.0
        for field_name in fields:
            df = self.index.df(term, field_name)
            if df == 0:
                continue
            boost = self.boosts.get(field_name, 1.0)
            bound += boost * self.scorer.upper_bound(
                self.index,
                term,
                field_name,
                df,
                max_tf=self.index.max_tf(term, field_name),
            )
        return bound

    def _or_top_k(
        self, query: OrQuery, limit: Optional[int]
    ) -> Dict[str, float]:
        """MaxScore-style OR evaluation: clauses in descending bound
        order, stopping once the remaining bounds cannot crack the
        top k.

        Strict comparison (``bound < theta``) keeps the ranking
        identical to exhaustive evaluation: a skipped clause can only
        contribute scores strictly below the current k-th best, so it
        can neither promote a new document into the top k nor change
        any top-k document's score (OR combines with ``max``, and every
        top-k score is already >= theta > bound).
        """
        assert limit is not None
        _TOPK_SEARCHES.inc()
        ordered = sorted(
            ((self.upper_bound(c), i, c) for i, c in enumerate(query.clauses)),
            key=lambda item: (-item[0], item[1]),
        )
        scores: Dict[str, float] = {}
        for position, (bound, _, clause) in enumerate(ordered):
            if len(scores) >= limit:
                theta = heapq.nlargest(limit, scores.values())[-1]
                if bound < theta:
                    _CLAUSES_PRUNED.inc(len(ordered) - position)
                    break
            for doc_id, score in self.match(clause).items():
                scores[doc_id] = max(scores.get(doc_id, 0.0), score)
        return scores

    # -- shared helpers -------------------------------------------------------

    def _analyze(self, text: str) -> List[str]:
        terms = self._terms_cache.get(text)
        if terms is None:
            terms = self.engine.analyzer.analyze_query_terms(text)
            self._terms_cache[text] = terms
        return terms

    def _universe(self, restrict: Optional[Set[str]]) -> Set[str]:
        """The documents a negation ranges over."""
        if restrict is not None:
            return set(restrict)
        if self.scope is None:
            return self.index.doc_ids
        values = self.scope[1]
        return {
            doc_id
            for doc_id, value in self.column.values.items()
            if value in values
        }

    def _in_scope(self, docs: Iterable[str]) -> Set[str]:
        """The members of ``docs`` the scope admits."""
        value_of = self.column.values.get
        values = self.scope[1]
        return {
            doc_id for doc_id in docs if value_of(doc_id, _ABSENT) in values
        }


class SearchEngine:
    """Index + query planner/executor + ranker.

    Args:
        analyzer: Shared analysis pipeline (defaults to stemmed+stopped).
        scorer: Term scorer (defaults to BM25).
        field_boosts: Multiplier per field name; unlisted fields get 1.0.
            EIL boosts ``title`` because slide titles carry the key point
            (paper Section 3.3, "Custom Parsing").
        cache_size: Result-cache capacity (0 disables caching).  Keys
            embed the index ``epoch``, which every ``add``/``remove``
            bumps, so cached results can never outlive the index state
            they were computed against.  ``limit`` is *not* part of the
            key: one cached ranking serves every limit it covers, sliced
            per request.
        index: A prebuilt index to serve instead of a fresh in-memory
            one — typically a :class:`~repro.storage.store
            .SegmentBackedIndex` (loaded from disk or configured with a
            flush threshold) or a :class:`~repro.serving.sharding
            .ShardedIndex` (partitioned by deal).  Must share the engine's analyzer; when
            ``analyzer`` is omitted the index's own analyzer is
            adopted.  Any writable
            :class:`~repro.search.index_reader.IndexReader` works.
    """

    def __init__(
        self,
        analyzer: Optional[Analyzer] = None,
        scorer: Optional[Scorer] = None,
        field_boosts: Optional[Mapping[str, float]] = None,
        cache_size: int = 256,
        index=None,
    ) -> None:
        if analyzer is None and index is not None:
            analyzer = getattr(index, "analyzer", None)
        self.analyzer = analyzer or Analyzer()
        self.scorer: Scorer = scorer or Bm25Scorer()
        self.field_boosts = dict(field_boosts or {})
        self.index = (
            index if index is not None else InvertedIndex(self.analyzer)
        )
        self.epoch = 0
        self._cache = LruCache("engine.cache", cache_size)
        # Searches run under the read side, index mutations + their
        # epoch bump under the write side: a query's (epoch, index)
        # view is a consistent snapshot, and incremental maintenance
        # can never tear an in-flight query's posting traversal.
        self._rw = ReadWriteLock()

    # -- indexing -----------------------------------------------------------

    def add(self, document: IndexableDocument) -> None:
        """Index one document."""
        with self._rw.write():
            self.index.add(document)
            self.epoch += 1

    def remove(self, doc_id: str) -> None:
        """Remove a document from the index."""
        with self._rw.write():
            self.index.remove(doc_id)
            self.epoch += 1

    # -- persistence ---------------------------------------------------------

    def replace_index(self, index) -> None:
        """Swap the engine onto a different index under the write lock.

        The epoch bump retires every cached ranking computed against
        the old index; in-flight queries finish against the snapshot
        they started with (they hold the read side).
        """
        with self._rw.write():
            self.index = index
            self.epoch += 1

    def save_index(self, directory: str) -> Dict[str, object]:
        """Persist the index as delta-varint segments under ``directory``.

        An index that can save itself (segment-backed, sharded) does; a
        plain in-memory index is encoded through a transient store
        without being modified (:func:`repro.storage.store.save_index`).
        Returns the storage stats of the written state.  Runs under the
        write lock so a concurrent mutation can never tear the on-disk
        snapshot.
        """
        from repro.storage.store import save_index

        with self._rw.write():
            return save_index(self.index, directory)

    def load_index(self, directory: str):
        """Cold-start the engine from what ``save_index`` wrote.

        The directory is read by the ``load`` of the index type the
        engine serves (a sharded index reads ``SHARDS.json`` + its
        ``shard-NN/`` stores), an in-memory engine's by
        :meth:`SegmentBackedIndex.load <repro.storage.store
        .SegmentBackedIndex.load>`.  Returns the loaded index, already
        installed via :meth:`replace_index`.
        """
        from repro.storage.store import SegmentBackedIndex

        load = getattr(type(self.index), "load", SegmentBackedIndex.load)
        store = load(directory, analyzer=self.analyzer)
        self.replace_index(store)
        return store

    def __len__(self) -> int:
        return len(self.index)

    def docs_with_metadata(
        self, key: str, values: Iterable[object]
    ) -> Set[str]:
        """Ids of the documents whose metadata ``key`` is one of
        ``values``, read under the read side of the engine lock.

        The locked entry point for walks of the index from outside a
        query (offboarding): a bare
        ``engine.index.docs_with_metadata`` beside a writer can see a
        segment store between the statements of a flush or merge and
        miss documents nobody is touching.
        """
        with self._rw.read():
            return self.index.docs_with_metadata(key, values)

    # -- search --------------------------------------------------------------

    def search(
        self,
        query: Union[str, Query],
        limit: Optional[int] = None,
        scope: Optional[Scope] = None,
    ) -> List[SearchHit]:
        """Run ``query`` and return ranked hits.

        Args:
            query: Query string (parsed with the engine's grammar) or a
                prebuilt AST.
            limit: Maximum hits to return (None = all).  The top-k
                hits under a limit are guaranteed identical (documents,
                scores, order) to the head of the unlimited ranking.
            scope: ``(metadata key, set of values)``: only documents
                whose value of the key is one of the values are
                searched, checked during posting traversal.  Anything
                else (a set of document ids, a predicate) raises
                :class:`~repro.errors.SearchError`.

        Returns:
            Hits sorted by descending score; ties broken by doc id for
            determinism.

        This is the ``index`` fault point, and :meth:`select` choosing
        the first ``limit`` hits.
        """
        return self.select(
            query, lambda ranking: ranking.head(limit), limit, scope
        )

    @contextmanager
    def _logical_query(
        self, counter: CounterHandle, query: Union[str, Query], limit,
        scope,
    ) -> Iterator[
        Tuple[Query, Optional[Scope], tuple, Optional[Ranking]]
    ]:
        """What a search or a count does before it evaluates.

        The scope check; the ``index`` fault point (the engine stands
        in for the OmniFind service, which can be down as a whole: an
        installed injector checks *before* the result cache, modelling
        an unreachable service rather than a slow query) and the
        ``counter`` metric, once.  Then the body runs under the read
        side of the engine lock with the parsed query, the scope,
        the cache key and the cached ranking that covers ``limit``, if
        any: epoch read, cache probe, posting traversal, cache store
        and hit building see one snapshot, so concurrent mutations can
        neither tear a traversal, nor let a post-mutation epoch key a
        pre-mutation ranking, nor remove a ranked document before its
        hit is built.

        The owning engine's epoch is part of every cache key, which is
        how ``add``/``remove`` invalidate without touching the cache;
        so is the scope, as its key and values (never as the document
        ids it admits).
        ``limit`` is deliberately absent: the cached value records its
        own coverage and serves any covered limit from its head (see
        :class:`Ranking`).
        """
        scope = _scope(scope)
        get_injector().check("index")
        if isinstance(query, str):
            query = parse_query(query)
        counter.inc()
        with self._rw.read():
            cache_key = (self.epoch, query, scope)
            cached = self._cache.get(cache_key)
            if cached is not None and not cached.covers(limit):
                cached = None
            yield query, scope, cache_key, cached

    def select(
        self,
        query: Union[str, Query],
        choose: Callable[[Ranking], _T],
        limit: Optional[int] = None,
        scope: Optional[Scope] = None,
    ) -> _T:
        """Rank ``query``, let ``choose`` pick, build only what it picks.

        ``choose`` gets the :class:`Ranking` (at least the top ``limit``
        pairs — a cached one may hold more; all, for None) and returns
        the answer, calling :meth:`Ranking.hit` for each position it
        wants a :class:`SearchHit` of.  :meth:`search` is this with
        ``choose`` = the first ``limit`` hits; the SIAPI facade's
        grouped search chooses by activity.

        Ranking, the choice and the hit building run inside one
        read-side hold of the engine lock, so the answer is whole at
        one epoch: were the hits built under a second hold, a
        ``remove`` between the two would make a ranked document "not
        indexed".
        """
        with self._logical_query(
            _SEARCHES, query, limit, scope
        ) as (query, scope, cache_key, ranking):
            if ranking is None:
                ranking = Ranking(
                    self, query, self._rank(query, limit, scope), limit
                )
                self._cache.put(cache_key, ranking)
            elif ranking.limit is None or limit != ranking.limit:
                # Served from a ranking not computed for exactly this limit.
                _CACHE_SLICED.inc()
            return choose(ranking)

    def count(
        self, query: Union[str, Query], scope: Optional[Scope] = None
    ) -> int:
        """Number of documents matching ``query`` (no ranking work).

        Answered from a cached *complete* search ranking when one
        exists; otherwise evaluated membership-only (no scores are ever
        computed for a count).
        """
        with self._logical_query(
            _COUNTS, query, None, scope
        ) as (query, scope, _, ranking):
            if ranking is not None:
                _COUNTS_FROM_CACHE.inc()
                return len(ranking.pairs)
            return _Execution(self, scope).count_docs(query)

    def _rank(
        self,
        query: Query,
        limit: Optional[int],
        scope: Optional[Scope],
    ) -> List[Tuple[str, float]]:
        """The ``(doc_id, score)`` ranking: one evaluation, nothing else
        (:meth:`select` owns the fault point, the counter, the cache
        and the hits), by a caller that holds the read side."""
        execution = _Execution(self, scope)
        ranked = execution.ranked(query, limit)
        _CANDIDATES.observe(execution.n_candidates)
        return ranked


def _query_surfaces(query: Query) -> List[str]:
    """Positive surface strings in the query, for snippet highlighting."""
    if isinstance(query, TermQuery):
        return [query.text]
    if isinstance(query, PhraseQuery):
        return [query.text]
    if isinstance(query, (AndQuery, OrQuery)):
        surfaces: List[str] = []
        for clause in query.clauses:
            surfaces.extend(_query_surfaces(clause))
        return surfaces
    return []  # NotQuery: nothing to highlight


def _make_snippet(
    text: str,
    lowered_surfaces: List[str],
    highlight_terms: Set[str],
    analyzer: Analyzer,
    width: int = 80,
) -> str:
    """A short window of text around the first query-term occurrence.

    Exact surface substrings win (cheapest, and what users expect to
    see highlighted); when no surface occurs verbatim, the document is
    run through the analyzer and the window anchors on the first token
    whose *analyzed* form matches a query term — a query for
    "financing" lands on a document's "financed" instead of falling
    back to the document head.  The surfaces arrive lowered: that is
    done once per query, not per hit.
    """
    lowered = text.lower()
    best = None
    for surface in lowered_surfaces:
        position = lowered.find(surface)
        if position != -1 and (best is None or position < best):
            best = position
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
    # Whitespace runs to one space, ends trimmed (``\s+`` -> " ").
    return " ".join(snippet.split())
