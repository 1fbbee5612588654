"""Deal-keyed sharding for the semantic index.

Partitioning reuses the ``shard_key=deal_id`` convention of the
process-sharded offline build: a deal's documents all land in one shard
(:func:`shard_for` is a stable content hash, so the assignment survives
restarts and process boundaries).

**Why sharded rankings are bit-identical to the unsharded engine.**
BM25 scores depend on per-document facts — tf and field length, which
are shard-invariant — and three corpus-global statistics:
corpus size N, document frequency df, and average field length avgdl.
Each shard engine therefore scores with a wrapper scorer
(:class:`_GlobalStatsScorer`) that substitutes the *global* view for
the shard-local one: N and df are integer sums over shards (exact,
since every document lives in exactly one shard) and avgdl is computed
as ``sum(int token totals) / sum(int doc counts)`` — one float divide
over exact integers, which is the same float the unsharded index
produces.  With identical per-document scores, merging the per-shard
rankings by the engine's own tie-break key ``(-score, doc_id)`` and
slicing to the limit reproduces the unsharded ranking exactly; each
shard's top-``limit`` covers the global top-``limit`` because shards
partition the corpus.

Concurrency: the sharded engine has a parent-level writer-preferring
:class:`~repro.concurrency.ReadWriteLock`.  Queries fan out under the
read side, one shard after another on the calling thread (evaluation
is pure Python, so threads would only add a hand-off under the GIL);
mutations run under the write side and bump the parent epoch, which
keys the one result cache (the children run uncached: any shard's
mutation moves N/avgdl/df for all shards, so a per-shard ranking could
never be kept anyway).
"""

from __future__ import annotations

import json
import os
import zlib
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.cache import LruCache
from repro.concurrency import AtomicCounter, ReadWriteLock
from repro.errors import SearchError, StorageError
from repro.search.analyzer import Analyzer
from repro.search.document import IndexableDocument, SearchHit
from repro.search.engine import (
    DocFilter,
    SearchEngine,
    _LogicalQueries,
)
from repro.search.index_reader import CompositeIndexReader, IndexReader
from repro.search.querylang import Query
from repro.search.scoring import Bm25Scorer, Scorer
from repro.storage.atomic import atomic_write_text, read_manifest

__all__ = ["shard_for", "ShardedSearchEngine"]


def shard_for(key: Any, shards: int) -> int:
    """Stable shard assignment for ``key`` (deal id, usually).

    CRC32 of the key's string form — deterministic across processes and
    runs (``hash()`` is salted for strings), cheap, and uniform enough
    for the deal-count scales this system serves.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return zlib.crc32(str(key).encode("utf-8")) % shards


class _ShardedIndexView(CompositeIndexReader):
    """Corpus-global view over the shard indexes: the composite whose
    parts are the shards' own indexes.

    It is the *statistics provider* for :class:`_GlobalStatsScorer` —
    N, df, avgdl and per-document lookups computed over all shards, so
    per-shard scoring uses corpus-global numbers.  It takes no lock:
    the scorer calls it from inside a fan-out query, which already
    holds the parent read lock (the lock is not reentrant, so taking it
    again would deadlock against a waiting writer).  Everyone else
    reads it through :class:`_ReadLockedIndex`.
    """

    def __init__(self, parent: "ShardedSearchEngine") -> None:
        self._parent = parent

    @property
    def parts(self) -> List[IndexReader]:
        return [shard.index for shard in self._parent.shards]

    def _owner(self, doc_id: str) -> Optional[IndexReader]:
        shard = self._parent._doc_shard.get(doc_id)
        return shard.index if shard is not None else None


class _ReadLockedIndex:
    """The engine-compatible ``.index`` of :class:`ShardedSearchEngine`.

    Callers that walk ``engine.index`` (the SIAPI scope filter,
    incremental offboarding, the test oracle) are external entry
    points: each attribute read and method call on the view runs under
    the parent's read lock, so it can never race a mutation.
    """

    def __init__(self, view: _ShardedIndexView, rw: ReadWriteLock) -> None:
        self._view = view
        self._rw = rw

    def __len__(self) -> int:
        with self._rw.read():
            return len(self._view)

    def __getattr__(self, name: str):
        member = getattr(type(self._view), name)
        if isinstance(member, property):
            with self._rw.read():
                return member.fget(self._view)

        def locked(*args, **kwargs):
            with self._rw.read():
                return member(self._view, *args, **kwargs)

        return locked


class _GlobalStatsScorer:
    """Wraps a shard engine's scorer to score with global statistics.

    The shard engine hands its *local* index and df to the scorer; this
    wrapper swaps in the :class:`_ShardedIndexView` (global N, avgdl,
    routed per-document lookups) and replaces the local df with the
    global one, so every shard computes exactly the score the unsharded
    engine would.  The shard-local ``max_tf`` the engine passes to
    ``upper_bound`` remains a valid bound for that shard's own postings.
    """

    def __init__(self, base: Scorer, view: _ShardedIndexView) -> None:
        self._base = base
        self._view = view

    def _global_df(self, term: str, field: Optional[str]) -> int:
        if field is not None:
            return self._view.df(term, field)
        return self._view.document_frequency(term)

    def score(
        self,
        index,
        term: str,
        doc_id: str,
        field: Optional[str] = None,
        df: Optional[int] = None,
    ) -> float:
        if df is not None:
            df = self._global_df(term, field)
        return self._base.score(self._view, term, doc_id, field, df=df)

    def score_postings(
        self,
        index,
        term: str,
        field: Optional[str],
        tfs: Sequence[int],
        lengths: Sequence[int],
        df: int,
    ) -> List[float]:
        return self._base.score_postings(
            self._view, term, field, tfs, lengths,
            df=self._global_df(term, field),
        )

    def upper_bound(
        self,
        index,
        term: str,
        field: Optional[str],
        df: int,
        max_tf: Optional[int] = None,
    ) -> float:
        return self._base.upper_bound(
            self._view, term, field, self._global_df(term, field),
            max_tf=max_tf,
        )


class ShardedSearchEngine(_LogicalQueries):
    """A drop-in :class:`~repro.search.engine.SearchEngine` over shards.

    Documents route to shards by their ``shard_key`` metadata (deal id
    by default, the process-sharded build's convention); queries fan
    out to every shard and merge by the engine's tie-break ordering.
    Rankings are bit-identical to one unsharded engine over the same
    corpus (see the module docstring for why).

    Args:
        shards: Number of index partitions (>= 1).
        analyzer, scorer, field_boosts, cache_size: As for
            :class:`~repro.search.engine.SearchEngine`; every child
            shares the analyzer and (via the global-stats wrapper) the
            scorer, so idf caches warm once for the whole corpus.
        shard_key: Metadata key that routes a document to its shard;
            documents without it route by their own ``doc_id``.
    """

    def __init__(
        self,
        shards: int = 4,
        analyzer: Optional[Analyzer] = None,
        scorer: Optional[Scorer] = None,
        field_boosts: Optional[Mapping[str, float]] = None,
        cache_size: int = 256,
        shard_key: str = "deal_id",
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.analyzer = analyzer or Analyzer()
        self.scorer: Scorer = scorer or Bm25Scorer()
        self.field_boosts = dict(field_boosts or {})
        self.shard_key = shard_key
        self._rw = ReadWriteLock()
        self._epoch = AtomicCounter()
        self._view = _ShardedIndexView(self)
        self.index = _ReadLockedIndex(self._view, self._rw)
        wrapped = _GlobalStatsScorer(self.scorer, self._view)
        # One logical query is one fault draw, one ``engine.searches``
        # and one cache hit/miss, all at the parent; the fan-out calls
        # the children's evaluation step, which has none of the three.
        self.shards: List[SearchEngine] = [
            SearchEngine(
                analyzer=self.analyzer,
                scorer=wrapped,
                field_boosts=self.field_boosts,
                cache_size=0,
            )
            for _ in range(shards)
        ]
        self._cache = LruCache("engine.cache", cache_size)
        self._doc_shard: Dict[str, SearchEngine] = {}

    @property
    def epoch(self) -> int:
        """Parent mutation epoch; bumped by every ``add``/``remove``."""
        return self._epoch.value

    def _route(self, document: IndexableDocument) -> SearchEngine:
        key = document.metadata.get(self.shard_key, document.doc_id)
        return self.shards[shard_for(key, len(self.shards))]

    # -- indexing -----------------------------------------------------------

    def add(self, document: IndexableDocument) -> None:
        """Index one document into its deal's shard."""
        with self._rw.write():
            shard = self._route(document)
            shard.index.add(document)
            self._doc_shard[document.doc_id] = shard
            self._epoch.increment()

    def add_all(self, documents: Iterable[IndexableDocument]) -> int:
        """Index many documents; returns the count."""
        count = 0
        for document in documents:
            self.add(document)
            count += 1
        return count

    def remove(self, doc_id: str) -> None:
        """Remove a document from its owning shard."""
        with self._rw.write():
            shard = self._doc_shard.pop(doc_id, None)
            if shard is None:
                raise SearchError(f"document {doc_id!r} not indexed")
            shard.index.remove(doc_id)
            self._epoch.increment()

    def __len__(self) -> int:
        return len(self._view)

    # -- search --------------------------------------------------------------

    def search(
        self,
        query: Union[str, Query],
        limit: Optional[int] = None,
        doc_filter: DocFilter = None,
    ) -> List[SearchHit]:
        """Ranked hits, as :meth:`SearchEngine.search` gives them."""
        return self.select(
            query, lambda ranking: ranking.head(limit), limit, doc_filter
        )

    @property
    def _reader(self) -> _ShardedIndexView:
        """What :class:`Ranking` reads documents from: the unlocked
        view, since a ranking is only used under the parent's hold."""
        return self._view

    def _rank(
        self, query: Query, limit: Optional[int], doc_filter: DocFilter
    ) -> List[Tuple[str, float]]:
        """Fan the query out to every shard and merge the pairs.

        Each shard returns its own top ``limit`` (scored with global
        statistics); since the shards partition the corpus, the merged
        ``(-score, doc_id)`` order cut at ``limit`` is exactly the
        unsharded ranking.  No shard builds a hit: the parent builds
        the ones a result shows, from its view.
        """
        merged: List[Tuple[str, float]] = []
        for shard in self.shards:
            merged.extend(shard._rank(query, limit, doc_filter))
        merged.sort(key=lambda pair: (-pair[1], pair[0]))
        return merged[:limit]

    def _count_docs(self, query: Query, doc_filter: DocFilter) -> int:
        """Per-shard counts are disjoint, so they add."""
        return sum(
            shard._count_docs(query, doc_filter) for shard in self.shards
        )

    # -- persistence ---------------------------------------------------------

    SHARDS_MANIFEST = "SHARDS.json"
    _SHARDS_FORMAT = "repro-sharded-index"
    _SHARDS_VERSION = 1

    def save_index(self, directory: str) -> Dict[str, Any]:
        """Persist every shard's index under ``directory``.

        Layout: ``SHARDS.json`` (format marker + shard count) plus one
        ``shard-NN/`` segment directory per shard.  Runs under the
        parent write lock so the per-shard snapshots are mutually
        consistent.  Returns combined storage stats.
        """
        directory = os.path.abspath(directory)
        os.makedirs(directory, exist_ok=True)
        with self._rw.write():
            combined: Dict[str, Any] = {}
            for position, shard in enumerate(self.shards):
                stats = shard.save_index(
                    os.path.join(directory, f"shard-{position:02d}")
                )
                for key, value in stats.items():
                    combined[key] = combined.get(key, 0) + value
            if combined.get("docs"):
                combined["bytes_per_doc"] = (
                    combined["size_bytes"] / combined["docs"]
                )
            atomic_write_text(
                os.path.join(directory, self.SHARDS_MANIFEST),
                json.dumps(
                    {
                        "format": self._SHARDS_FORMAT,
                        "version": self._SHARDS_VERSION,
                        "shards": len(self.shards),
                    },
                    indent=2,
                    sort_keys=True,
                )
                + "\n",
            )
            return combined

    def load_index(self, directory: str, **load_options) -> None:
        """Cold-start every shard from a ``save_index`` directory.

        The on-disk shard count must match this engine's — documents
        were partitioned by :func:`shard_for` at save time, and loading
        them into a different partition count would misroute every
        query fan-out.
        """
        body = read_manifest(
            os.path.join(directory, self.SHARDS_MANIFEST),
            self._SHARDS_FORMAT,
            self._SHARDS_VERSION,
        )
        saved_shards = body.get("shards")
        if saved_shards != len(self.shards):
            raise StorageError(
                f"index was saved with {saved_shards} shards but this "
                f"engine has {len(self.shards)} — shard counts must "
                f"match (set REPRO_SHARDS/--shards accordingly)"
            )
        with self._rw.write():
            for position, shard in enumerate(self.shards):
                shard.load_index(
                    os.path.join(directory, f"shard-{position:02d}"),
                    **load_options,
                )
            self._doc_shard = {
                doc_id: shard
                for shard in self.shards
                for doc_id in shard.index.doc_ids
            }
            self._epoch.increment()
