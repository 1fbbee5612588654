"""LSM-style segmented index store.

:class:`SegmentBackedIndex` layers a mutable in-memory *memtable* (a
plain :class:`~repro.search.inverted_index.InvertedIndex`) over a list
of immutable :class:`~repro.storage.segment.Segment` files, and reads
them as one :class:`~repro.search.index_reader.CompositeIndexReader`
(parts = segments oldest-first, then the memtable); what it adds to the
composite is caching — merged posting arrays and positions per (field,
term), an LRU of stored field maps (what a shown hit reads):

* ``add`` writes to the memtable; when it reaches ``memtable_limit``
  documents it *flushes* — the memtable is encoded into one compact
  delta-varint segment and replaced with a fresh empty one.
* ``remove`` of a memtable document is a plain in-memory remove; for a
  segment document it writes a *tombstone* (the segment stays
  immutable; live statistics are adjusted incrementally).
* After each flush a *tiered merge* runs: segments are bucketed by
  live-document-count tier (powers of ``merge_fanout``), and any tier
  holding ``merge_fanout`` or more segments is structurally merged into
  one — posting bytes and docstore records are copied, never
  re-analyzed — dropping tombstones along the way.

Query-path equivalence is exact: every statistic BM25 and the MaxScore
planner consume (N, df, tf, field lengths, integer token totals
divided once for avgdl) is summed live across the parts, so a
segment-backed engine returns **bit-identical rankings** to the
all-in-memory engine (enforced by the execution-equivalence suite).
Two bound-side details make MaxScore stay sound: ``df`` is always the
exact live count (a tombstoned segment decode-counts once and caches),
and ``max_tf`` only ever over-estimates (stored encode-time maxima, or
``None`` when the memtable's contribution is unknown — a loose bound
never prunes wrongly).

Concurrency matches ``InvertedIndex``: the store itself is unlocked
and relies on the owning engine's writer-preferring ReadWriteLock —
flushes and merges happen inside ``add`` calls, which the engine
already runs under its write lock, so queries never observe a
half-merged segment list.

Persistence (``save``/``load``) writes a manifest (a
:func:`~repro.storage.atomic.encode_document` document, atomically
replaced) plus one file per segment.  While a
directory is attached, flushed and merged segments spill straight to
disk (docstores leave RAM — this is what bounds build memory at 100k+
docs); the manifest is only rewritten by ``save``, so a crash leaves
the previous manifest's consistent view intact and ``save`` sweeps any
unreferenced segment files.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import SearchError, StorageError
from repro.obs import CounterHandle, GaugeHandle, HistogramHandle
from repro.search.analyzer import Analyzer
from repro.search.document import IndexableDocument
from repro.search.index_reader import (
    CompositeIndexReader,
    IndexReader,
    TermPostings,
)
from repro.search.inverted_index import InvertedIndex
from repro.storage.atomic import (
    atomic_write_bytes,
    atomic_write_text,
    checksum,
    encode_document,
    read_manifest,
)
from repro.storage.segment import (
    Segment,
    encode_from_index,
    merge_segments,
)

__all__ = [
    "SegmentBackedIndex",
    "save_index",
    "MANIFEST_NAME",
    "MANIFEST_FORMAT",
]

_POSTINGS_COMPILED = CounterHandle("index.postings_compiled")
_REMOVALS = CounterHandle("index.removals")
_REMOVE_TERMS_TOUCHED = HistogramHandle("index.remove_terms_touched")
_FLUSHES = CounterHandle("storage.flushes")
_MERGES = CounterHandle("storage.merges")
_MERGE_SECONDS = HistogramHandle("storage.merge_seconds")
_SEGMENTS = GaugeHandle("storage.segments")
_MEMTABLE_DOCS = GaugeHandle("storage.memtable_docs")
_TOMBSTONES = GaugeHandle("storage.tombstones")
_BYTES_PER_DOC = GaugeHandle("storage.bytes_per_doc")

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_FORMAT = "repro-segment-index"
MANIFEST_VERSION = 2

#: Documents held in the memtable before an automatic flush.
DEFAULT_MEMTABLE_LIMIT = 4096
#: Segments per size tier before a tiered merge compacts them.
DEFAULT_MERGE_FANOUT = 4

_DOC_CACHE_SIZE = 256

#: field -> type of one ``segments`` entry of ``MANIFEST.json``.
_ENTRY_FIELDS = {"file": str, "checksum": str, "bytes": int,
                 "tombstones": list}


def _segment_entries(body: Mapping[str, Any], path: str) -> List[Dict]:
    """``body``'s segment entries, once its fields have the shapes
    :meth:`SegmentBackedIndex.save` writes; a :class:`StorageError`
    naming ``path`` otherwise (the envelope vouches for the bytes, not
    for the code that wrote them)."""
    next_segment = body.get("next_segment")
    if type(next_segment) is not int or next_segment < 1:
        raise StorageError(
            f"malformed {path}: next_segment is {next_segment!r}"
        )
    entries = body.get("segments")
    if not isinstance(entries, list) or not all(
        isinstance(entry, dict)
        and all(
            type(entry.get(field)) is kind
            for field, kind in _ENTRY_FIELDS.items()
        )
        for entry in entries
    ):
        raise StorageError(
            f"malformed {path}: segments must be a list of "
            f"{sorted(_ENTRY_FIELDS)} entries"
        )
    return entries


class SegmentBackedIndex(CompositeIndexReader):
    """Memtable + immutable segments, read as one composite index."""

    def __init__(
        self,
        analyzer: Optional[Analyzer] = None,
        memtable_limit: int = DEFAULT_MEMTABLE_LIMIT,
        merge_fanout: int = DEFAULT_MERGE_FANOUT,
    ) -> None:
        if memtable_limit < 1:
            raise ValueError(
                f"memtable_limit must be >= 1, got {memtable_limit}"
            )
        if merge_fanout < 2:
            raise ValueError(
                f"merge_fanout must be >= 2, got {merge_fanout}"
            )
        super().__init__()
        self.analyzer = analyzer or Analyzer()
        self.memtable = InvertedIndex(self.analyzer)
        self.segments: List[Segment] = []
        self.memtable_limit = memtable_limit
        self.merge_fanout = merge_fanout
        self.directory: Optional[str] = None
        # Merged (segments + memtable) posting arrays; content-stable
        # across flush/merge, invalidated per touched (field, term) on
        # add and remove.
        self._compiled: Dict[Tuple[str, str], TermPostings] = {}
        # Merged positional postings for phrase matching, same policy.
        self._positional: Dict[Tuple[str, str], Dict[str, List[int]]] = {}
        # Small cache of decoded field maps in front of the on-disk
        # docstore: what a shown hit reads (metadata is never cached).
        self._doc_cache: "OrderedDict[str, Dict[str, str]]" = OrderedDict()
        self._checksums: Dict[str, str] = {}
        self._next_segment = 1

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_inverted(cls, index: InvertedIndex) -> "SegmentBackedIndex":
        """Adopt an existing in-memory index as the initial memtable.

        The index is taken over, not copied — the caller must stop
        using it directly.
        """
        store = cls(analyzer=index.analyzer)
        store.memtable = index
        store._refresh_gauges()
        return store

    # -- mutation -----------------------------------------------------------

    def add(self, document: IndexableDocument) -> None:
        """Index ``document`` into the memtable (auto-flush at limit)."""
        if self.has_document(document.doc_id):
            raise SearchError(
                f"document {document.doc_id!r} already indexed"
            )
        self.memtable.add(document)
        self._track(document)
        self._invalidate(self.memtable.terms_of(document.doc_id))
        if len(self.memtable) >= self.memtable_limit:
            self.flush()
            self.maybe_merge()
        else:
            _MEMTABLE_DOCS.set(len(self.memtable))

    def remove(self, doc_id: str) -> IndexableDocument:
        """Remove a document: memtable delete or segment tombstone."""
        if self.memtable.has_document(doc_id):
            touched = self.memtable.terms_of(doc_id)
            document = self.memtable.remove(doc_id)
            self._untrack(doc_id)
            self._invalidate(touched)
            self._doc_cache.pop(doc_id, None)
            _MEMTABLE_DOCS.set(len(self.memtable))
            return document
        for segment in self.segments:
            if not segment.has_document(doc_id):
                continue
            document = segment.document(doc_id)
            segment.tombstone(doc_id)
            self._untrack(doc_id)
            # The segment has no reverse term map; re-analyzing this one
            # document recovers exactly the touched (field, term) pairs
            # so cache invalidation stays per-term, like the memtable's.
            terms_touched = self._invalidate(
                {
                    field: {a.term for a in self.analyzer.analyze(text)}
                    for field, text in document.fields.items()
                }
            )
            self._doc_cache.pop(doc_id, None)
            _REMOVALS.inc()
            _REMOVE_TERMS_TOUCHED.observe(terms_touched)
            _TOMBSTONES.set(self._tombstone_count())
            return document
        raise SearchError(f"document {doc_id!r} not indexed")

    def _invalidate(self, touched: Mapping[str, Iterable[str]]) -> int:
        """Drop the merged caches of each (field, term); returns how many."""
        count = 0
        for field, terms in touched.items():
            for term in terms:
                self._compiled.pop((field, term), None)
                self._positional.pop((field, term), None)
                count += 1
        return count

    # -- segment lifecycle --------------------------------------------------

    def flush(self) -> bool:
        """Encode the memtable into a segment; True if one was written.

        Content-preserving: merged posting caches stay valid (segments
        are ordered oldest-first with the memtable logically last, and
        a flush moves the memtable's documents to the new last
        segment without reordering anything).
        """
        if len(self.memtable) == 0:
            return False
        data = encode_from_index(self.memtable)
        self._append_segment(data)
        self.memtable = InvertedIndex(self.analyzer)
        _FLUSHES.inc()
        self._refresh_gauges()
        return True

    def _append_segment(self, data: bytes) -> Segment:
        segment = Segment.from_bytes(data)
        if self.directory is not None:
            path = self._new_segment_path()
            atomic_write_bytes(path, data)
            self._checksums[path] = checksum(data)
            segment.attach_file(path)
        self.segments.append(segment)
        return segment

    def _new_segment_path(self) -> str:
        assert self.directory is not None
        name = f"seg-{self._next_segment:06d}.rsg"
        self._next_segment += 1
        return os.path.join(self.directory, name)

    def maybe_merge(self) -> int:
        """Run the tiered merge policy; returns merges performed.

        Dead segments (every document tombstoned) are dropped outright.
        Then, while any live-doc-count tier (powers of
        ``merge_fanout``) holds ``merge_fanout`` or more segments, that
        tier is merged into one tombstone-free segment, placed at the
        oldest member's position so segment order stays oldest-first.
        """
        merges = 0
        for segment in [s for s in self.segments if len(s) == 0]:
            self.segments.remove(segment)
            segment.close()
        while True:
            tiers: Dict[int, List[int]] = {}
            for position, segment in enumerate(self.segments):
                tiers.setdefault(self._tier(segment), []).append(position)
            group = next(
                (
                    positions
                    for _, positions in sorted(tiers.items())
                    if len(positions) >= self.merge_fanout
                ),
                None,
            )
            if group is None:
                break
            self._merge_positions(group)
            merges += 1
        if merges:
            self._refresh_gauges()
        return merges

    def _tier(self, segment: Segment) -> int:
        tier = 0
        size = max(1, len(segment))
        while size >= self.merge_fanout:
            size //= self.merge_fanout
            tier += 1
        return tier

    def _merge_positions(self, positions: List[int]) -> None:
        group = [self.segments[i] for i in positions]
        start = time.monotonic()
        data = merge_segments(group)
        merged = Segment.from_bytes(data)
        if self.directory is not None:
            path = self._new_segment_path()
            atomic_write_bytes(path, data)
            self._checksums[path] = checksum(data)
            merged.attach_file(path)
        insert_at = positions[0]
        for position in sorted(positions, reverse=True):
            segment = self.segments.pop(position)
            if segment.path is not None:
                self._checksums.pop(segment.path, None)
            segment.close()
        self.segments.insert(insert_at, merged)
        elapsed = time.monotonic() - start
        _MERGES.inc()
        _MERGE_SECONDS.observe(elapsed)

    def _tombstone_count(self) -> int:
        return sum(len(segment.tombstones) for segment in self.segments)

    def _refresh_gauges(self) -> None:
        _SEGMENTS.set(len(self.segments))
        _MEMTABLE_DOCS.set(len(self.memtable))
        _TOMBSTONES.set(self._tombstone_count())

    # -- persistence --------------------------------------------------------

    def save(self, directory: str) -> Dict[str, Any]:
        """Flush + write every segment and an atomic manifest.

        Returns the storage stats recorded (also exported as gauges).
        Any ``seg-*.rsg`` file in the directory that the new manifest
        does not reference (older merged-away segments, files from a
        crashed run) is deleted — the manifest is the source of truth.
        """
        directory = os.path.abspath(directory)
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.flush()
        entries: List[Dict[str, Any]] = []
        for segment in self.segments:
            if (
                segment.path is None
                or os.path.dirname(os.path.abspath(segment.path))
                != directory
            ):
                data = segment.raw_bytes()
                path = self._new_segment_path()
                atomic_write_bytes(path, data)
                self._checksums[path] = checksum(data)
                segment.attach_file(path)
            digest = self._checksums.get(segment.path)
            if digest is None:
                digest = checksum(segment.raw_bytes())
                self._checksums[segment.path] = digest
            entries.append(
                {
                    "file": os.path.basename(segment.path),
                    "checksum": digest,
                    "bytes": segment.size_bytes,
                    "docs": segment.doc_count,
                    "tombstones": segment.tombstoned_ids(),
                }
            )
        atomic_write_text(
            os.path.join(directory, MANIFEST_NAME),
            encode_document(
                MANIFEST_FORMAT,
                MANIFEST_VERSION,
                {"segments": entries, "next_segment": self._next_segment},
            ),
        )
        referenced = {entry["file"] for entry in entries}
        for name in os.listdir(directory):
            if (
                name.startswith("seg-")
                and name.endswith(".rsg")
                and name not in referenced
            ):
                try:
                    os.unlink(os.path.join(directory, name))
                except OSError:
                    pass
        stats = self.storage_stats()
        _BYTES_PER_DOC.set(stats["bytes_per_doc"])
        self._refresh_gauges()
        return stats

    @classmethod
    def load(
        cls,
        directory: str,
        analyzer: Optional[Analyzer] = None,
    ) -> "SegmentBackedIndex":
        """Cold-start a store from a saved directory.

        Rejects foreign or damaged state with :class:`StorageError`
        naming the file: a manifest that
        :func:`~repro.storage.atomic.read_manifest` rejects, missing
        segment files, segment checksum or length mismatches, and
        segments that do not decode.
        """
        directory = os.path.abspath(directory)
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        body = read_manifest(manifest_path, MANIFEST_FORMAT, MANIFEST_VERSION)
        entries = _segment_entries(body, manifest_path)
        store = cls(analyzer=analyzer)
        store.directory = directory
        store._next_segment = body["next_segment"]
        for entry in entries:
            path = os.path.join(directory, entry["file"])
            if not os.path.isfile(path):
                raise StorageError(f"missing segment file {path}")
            with open(path, "rb") as handle:
                data = handle.read()
            if checksum(data) != entry["checksum"]:
                raise StorageError(f"segment {path} failed its checksum")
            if len(data) != entry["bytes"]:
                raise StorageError(
                    f"segment {path} has {len(data)} bytes, "
                    f"manifest says {entry['bytes']}"
                )
            try:
                segment = Segment.from_bytes(data)
            except StorageError as exc:
                raise StorageError(f"segment {path}: {exc}") from exc
            segment.attach_file(path)
            for doc_id in entry["tombstones"]:
                segment.tombstone(doc_id)
            store._checksums[path] = entry["checksum"]
            store.segments.append(segment)
        store._refresh_gauges()
        _BYTES_PER_DOC.set(store.storage_stats()["bytes_per_doc"])
        return store

    def storage_stats(self) -> Dict[str, Any]:
        """Byte and document accounting across all segments."""
        size_bytes = sum(s.size_bytes for s in self.segments)
        postings_bytes = sum(s.postings_bytes for s in self.segments)
        docstore_bytes = sum(s.docstore_bytes for s in self.segments)
        docs = len(self)
        return {
            "segments": len(self.segments),
            "memtable_docs": len(self.memtable),
            "docs": docs,
            "tombstones": self._tombstone_count(),
            "size_bytes": size_bytes,
            "postings_bytes": postings_bytes,
            "docstore_bytes": docstore_bytes,
            "bytes_per_doc": (size_bytes / docs) if docs else 0.0,
        }

    def close(self) -> None:
        """Release every segment's file descriptor."""
        for segment in self.segments:
            segment.close()

    # -- reads: the composite, plus what the store caches -------------------

    @property
    def parts(self) -> List[IndexReader]:
        """Segments oldest-first, then the memtable (posting order)."""
        return [*self.segments, self.memtable]

    def stored_fields(self, doc_id: str) -> Mapping[str, str]:
        """A document's fields (memtable, LRU, then the docstores)."""
        if self.memtable.has_document(doc_id):
            return self.memtable.stored_fields(doc_id)
        cached = self._doc_cache.get(doc_id)
        if cached is not None:
            try:
                self._doc_cache.move_to_end(doc_id)
            except KeyError:
                pass  # another reader evicted it since the get
            return cached
        fields = super().stored_fields(doc_id)
        self._doc_cache[doc_id] = fields
        if len(self._doc_cache) > _DOC_CACHE_SIZE:
            self._doc_cache.popitem(last=False)
        return fields

    def positions(self, term: str, field: str) -> Dict[str, List[int]]:
        """Merged positional postings, cached per (field, term)."""
        key = (field, term)
        merged = self._positional.get(key)
        if merged is None:
            merged = self._positional[key] = super().positions(term, field)
        return merged

    def term_postings(
        self, term: str, field: str
    ) -> Optional[TermPostings]:
        """Merged compiled postings, cached per (field, term)."""
        key = (field, term)
        compiled = self._compiled.get(key)
        if compiled is None:
            compiled = super().term_postings(term, field)
            if compiled is not None:
                self._compiled[key] = compiled
                _POSTINGS_COMPILED.inc()
        return compiled

    def max_tf(self, term: str, field: str) -> Optional[int]:
        """O(1) upper bound on the live max tf, or None if unknown.

        Soundness rule for MaxScore: the returned value must never be
        *below* the true live maximum.  A cached merged array is exact.
        Otherwise stored segment maxima only ever over-estimate
        (tombstones can't raise a max) and the memtable's contribution
        is exact when compiled and unknown otherwise — in the unknown
        case the whole answer is None and the planner falls back to its
        loose bound.
        """
        compiled = self._compiled.get((field, term))
        if compiled is not None:
            return compiled.max_tf
        return super().max_tf(term, field)


def save_index(index, directory: str) -> Dict[str, Any]:
    """Persist ``index`` under ``directory``; returns its storage stats.

    An index that can save itself does.  A plain in-memory one is
    encoded through a transient :class:`SegmentBackedIndex` and stays
    usable: encoding only reads.
    """
    if not hasattr(index, "save"):
        index = SegmentBackedIndex.from_inverted(index)
    return index.save(directory)
