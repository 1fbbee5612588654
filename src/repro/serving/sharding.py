"""Deal-keyed sharding of the semantic index.

Sharding is an index *layout*, not an engine: :class:`ShardedIndex` is
the :class:`~repro.search.index_reader.CompositeIndexReader` whose parts
are one index per shard, served by the one
:class:`~repro.search.engine.SearchEngine` — lock, epoch, result cache
and fault point included — like any other index.  Partitioning reuses
the ``shard_key=deal_id`` convention of the process-sharded offline
build: a deal's documents all land in one shard (:func:`shard_for` is a
stable content hash, so the assignment survives restarts).

**Why sharded rankings are bit-identical to the unsharded engine.**
The scorer reads the composite.  BM25 depends on per-document facts —
tf and field length, which the owning part answers — and three
corpus-global statistics: N and df are integer sums over the parts
(exact, since every document lives in exactly one) and avgdl is
``sum(int token totals) / sum(int doc counts)``, one float divide over
exact integers, which is the same float a single index produces.  The
engine ranks the merged posting arrays by ``(-score, doc_id)`` exactly
as it ranks one index's.
"""

from __future__ import annotations

import os
import zlib
from typing import Any, Dict, Optional, Sequence

from repro.errors import SearchError, StorageError
from repro.search.analyzer import Analyzer
from repro.search.document import IndexableDocument
from repro.search.index_reader import CompositeIndexReader, IndexReader
from repro.search.inverted_index import InvertedIndex
from repro.storage.atomic import (
    atomic_write_text,
    encode_document,
    read_manifest,
)
from repro.storage.store import SegmentBackedIndex, save_index

__all__ = ["shard_for", "ShardedIndex"]


def shard_for(key: Any, shards: int) -> int:
    """Stable shard assignment for ``key`` (deal id, usually).

    CRC32 of the key's string form — deterministic across processes and
    runs (``hash()`` is salted for strings), cheap, and uniform enough
    for the deal-count scales this system serves.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return zlib.crc32(str(key).encode("utf-8")) % shards


class ShardedIndex(CompositeIndexReader):
    """A writable index partitioned by deal, read as one corpus.

    Args:
        shards: Number of partitions (>= 1); in memory until a
            :meth:`load`, segment-backed after.
        analyzer: Shared by every partition.
        shard_key: Metadata key that routes a document to its shard;
            documents without it route by their own ``doc_id``.
    """

    #: One index per shard, in shard order (the composite's parts).
    parts: Sequence[IndexReader] = ()
    SHARDS_MANIFEST = "SHARDS.json"
    _SHARDS_FORMAT = "repro-sharded-index"
    _SHARDS_VERSION = 2

    def __init__(
        self,
        shards: int = 4,
        analyzer: Optional[Analyzer] = None,
        shard_key: str = "deal_id",
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.analyzer = analyzer or Analyzer()
        self.shard_key = shard_key
        self.parts = [InvertedIndex(self.analyzer) for _ in range(shards)]
        self._doc_part: Dict[str, IndexReader] = {}

    def _owner(self, doc_id: str) -> Optional[IndexReader]:
        return self._doc_part.get(doc_id)

    def add(self, document: IndexableDocument) -> None:
        """Index one document into its deal's shard."""
        if document.doc_id in self._doc_part:
            raise SearchError(f"document {document.doc_id!r} already indexed")
        key = document.metadata.get(self.shard_key, document.doc_id)
        part = self.parts[shard_for(key, len(self.parts))]
        part.add(document)
        self._doc_part[document.doc_id] = part

    def remove(self, doc_id: str) -> IndexableDocument:
        """Remove a document from its owning shard and return it."""
        part = self._doc_part.pop(doc_id, None)
        if part is None:
            raise SearchError(f"document {doc_id!r} not indexed")
        return part.remove(doc_id)

    # -- persistence ---------------------------------------------------------

    def save(self, directory: str) -> Dict[str, Any]:
        """Persist every shard under ``directory``.

        Layout: ``SHARDS.json`` (the shard count) plus one
        ``shard-NN/`` segment directory per shard.  Returns combined
        storage stats.
        """
        directory = os.path.abspath(directory)
        os.makedirs(directory, exist_ok=True)
        combined: Dict[str, Any] = {}
        for position, part in enumerate(self.parts):
            stats = save_index(
                part, os.path.join(directory, f"shard-{position:02d}")
            )
            for key, value in stats.items():
                combined[key] = combined.get(key, 0) + value
        if combined.get("docs"):
            combined["bytes_per_doc"] = (
                combined["size_bytes"] / combined["docs"]
            )
        atomic_write_text(
            os.path.join(directory, self.SHARDS_MANIFEST),
            encode_document(
                self._SHARDS_FORMAT,
                self._SHARDS_VERSION,
                {"shards": len(self.parts)},
            ),
        )
        return combined

    @classmethod
    def saved_shards(cls, directory: str) -> int:
        """The shard count ``directory``'s ``SHARDS.json`` records."""
        path = os.path.join(directory, cls.SHARDS_MANIFEST)
        body = read_manifest(path, cls._SHARDS_FORMAT, cls._SHARDS_VERSION)
        shards = body.get("shards")
        if not isinstance(shards, int) or shards < 1:
            raise StorageError(f"{path} records {shards!r} shards")
        return shards

    @classmethod
    def load(
        cls, directory: str, analyzer: Optional[Analyzer] = None
    ) -> "ShardedIndex":
        """Cold-start from a :meth:`save` directory, in the shard count
        it records."""
        index = cls(cls.saved_shards(directory), analyzer)
        index.parts = [
            SegmentBackedIndex.load(
                os.path.join(directory, f"shard-{position:02d}"),
                analyzer=index.analyzer,
            )
            for position in range(len(index.parts))
        ]
        index._doc_part = {
            doc_id: part for part in index.parts for doc_id in part.doc_ids
        }
        return index
