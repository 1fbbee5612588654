"""Immutable on-disk index segments: delta-varint postings + docstore.

One segment file holds a self-contained slice of the inverted index —
documents, per-field lengths, the metadata value index, and positional
postings — in a compact delta-varint layout (format version 2):

::

    +--------+---------+----------+----------------------+-------------+
    | "RSG1" | version | head_len |  head (statistics +  |  docstore   |
    | magic  | (2)     | (varint) |  postings, in RAM)   |  (on disk)  |
    +--------+---------+----------+----------------------+-------------+

    head := n_docs, then per doc: doc_id, docstore offset, length
            length fields: name, token_total, n, (ord-gap, len)*
            meta index:    key, n_values, (value_json, n, ord-gap*)*
            posting fields: name, n_terms, then per (sorted) term:
                term, df, max_tf, blob_len, blob
    blob := per doc (ascending ordinal):
                ord-gap, rest_len, rest
    rest := tf, then position deltas (first absolute, then gaps)
    docstore record := n_fields, (name, text)*, metadata JSON
            (names and texts length-prefixed UTF-8; the metadata is
            the record's tail, compact and key-sorted, unprefixed)

Document ids are mapped to dense ordinals (sorted order at encode
time), so posting entries store tiny ordinal *gaps* instead of repeated
string ids — the source of the bytes/doc win over a JSON dump.  Each
posting's ``rest`` (tf + positions) is length-prefixed, which buys two
things: the scoring path decodes ``(ordinal, tf)`` and *skips*
positions, and the structural merge copies ``rest`` bytes verbatim —
compaction never re-analyzes text or even decodes a position.

A docstore record puts the fields first so a shown hit, which needs its
title and text and nothing else, decodes them and stops
(:meth:`Segment.stored_fields`); only :meth:`Segment.document` reads
the metadata tail.  Version 1 records led with the metadata; a
version-1 file is refused, not converted.

A segment is immutable once written; deletes are *tombstones* (a set of
dead ordinals held by the owning store and applied here), and live
statistics (df, token totals, field document counts) are maintained
incrementally so BM25 inputs stay exact without rescanning.

``Segment.from_bytes`` decodes a whole buffer and keeps it (the
memtable-flush path before a save); once the same bytes are on disk,
``attach_file`` drops the buffer, keeping only the head in memory, and
docstore reads come straight from the file via ``os.pread`` (safe
under concurrent reader threads).  A load reads each file whole to
check it against the manifest, so it decodes through ``from_bytes``
too.
"""

from __future__ import annotations

import json
import os
from array import array
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import SearchError, StorageError
from repro.search.document import IndexableDocument
from repro.search.index_reader import (
    IndexReader,
    MetadataColumn,
    TermPostings,
)
from repro.storage.varint import (
    read_str,
    read_uint,
    write_str,
    write_uint,
)

__all__ = ["Segment", "MAGIC", "FORMAT_VERSION", "encode_from_index", "merge_segments"]

MAGIC = b"RSG1"
#: Bump on any layout change; readers reject other versions.
FORMAT_VERSION = 2


class Segment(IndexReader):
    """One decoded segment: parsed head + lazily-read docstore.

    The varint-backed :class:`~repro.search.index_reader.IndexReader`
    leaf: every read answers for the live (non-tombstoned) documents.
    """

    __slots__ = (
        "path",
        "_data",
        "_head",
        "_docstore_base",
        "_fd",
        "size_bytes",
        "postings_bytes",
        "docstore_bytes",
        "_ids",
        "_ord",
        "_doc_offs",
        "_doc_lens",
        "_length_arrays",
        "_field_token_totals",
        "_field_doc_counts",
        "_live_field_tokens",
        "_live_field_docs",
        "_meta",
        "_terms",
        "tombstones",
        "_live_df",
    )

    def __init__(self) -> None:
        self.path: Optional[str] = None
        self._data: Optional[bytes] = None
        self._head: bytes = b""
        self._docstore_base = 0
        self._fd: Optional[int] = None
        self.size_bytes = 0
        self.postings_bytes = 0
        self.docstore_bytes = 0
        # ordinal -> doc id, tombstoned ones included.
        self._ids: List[str] = []
        self._ord: Dict[str, int] = {}
        self._doc_offs: List[int] = []
        self._doc_lens: List[int] = []
        # field -> array of per-ordinal token counts, -1 = field absent.
        self._length_arrays: Dict[str, array] = {}
        self._field_token_totals: Dict[str, int] = {}
        self._field_doc_counts: Dict[str, int] = {}
        self._live_field_tokens: Dict[str, int] = {}
        self._live_field_docs: Dict[str, int] = {}
        # key -> value_json -> ascending ordinals.
        self._meta: Dict[str, Dict[str, Tuple[int, ...]]] = {}
        # field -> term -> (stored_df, stored_max_tf, blob_off, blob_len)
        self._terms: Dict[str, Dict[str, Tuple[int, int, int, int]]] = {}
        self.tombstones: Set[int] = set()
        self._live_df: Dict[Tuple[str, str], int] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_bytes(cls, data: bytes) -> "Segment":
        """Decode an in-memory segment (keeps the docstore in RAM)."""
        if data[:4] != MAGIC:
            raise StorageError("not a segment file (bad magic)")
        version, off = read_uint(data, 4)
        if version != FORMAT_VERSION:
            raise StorageError(
                f"segment format version {version} unsupported "
                f"(expected {FORMAT_VERSION})"
            )
        head_len, off = read_uint(data, off)
        head = bytes(data[off : off + head_len])
        if len(head) != head_len:
            raise StorageError("truncated segment head")
        segment = cls()
        segment._data = bytes(data)
        segment._docstore_base = off + head_len
        segment.size_bytes = len(data)
        segment._parse_head(head)
        # A buffered record is sliced, never length-checked, so a cut
        # docstore is refused here rather than read short later.
        ends = map(int.__add__, segment._doc_offs, segment._doc_lens)
        if max(ends, default=0) > segment.docstore_bytes:
            raise StorageError(
                f"truncated segment docstore: {segment.docstore_bytes} "
                f"bytes do not hold every record"
            )
        return segment

    def close(self) -> None:
        """Release the cached file descriptor (file-backed mode)."""
        if self._fd is not None:
            try:
                os.close(self._fd)
            finally:
                self._fd = None

    def attach_file(self, path: str) -> None:
        """Switch docstore access to ``path`` and free the in-RAM copy.

        ``path`` must contain exactly the bytes this segment was
        decoded from (the store writes them itself before calling
        this) — the parsed head and docstore offsets carry over
        unchanged, so no re-parse happens.
        """
        self.close()
        self.path = path
        self._data = None

    def raw_bytes(self) -> bytes:
        """The segment's full encoded bytes (RAM copy or file read)."""
        if self._data is not None:
            return self._data
        try:
            with open(self.path, "rb") as handle:  # type: ignore[arg-type]
                return handle.read()
        except OSError as exc:
            raise StorageError(
                f"cannot read segment {self.path}: {exc}"
            ) from exc

    def _parse_head(self, head: bytes) -> None:
        try:
            self._parse_head_inner(head)
        except (StorageError, UnicodeDecodeError, OverflowError) as exc:
            raise StorageError(f"corrupt segment head: {exc}") from exc
        self.docstore_bytes = self.size_bytes - self._docstore_base

    def _parse_head_inner(self, head: bytes) -> None:
        self._head = head
        off = 0
        n_docs, off = read_uint(head, off)
        doc_ids: List[str] = []
        doc_offs: List[int] = []
        doc_lens: List[int] = []
        for _ in range(n_docs):
            doc_id, off = read_str(head, off)
            doc_off, off = read_uint(head, off)
            doc_len, off = read_uint(head, off)
            doc_ids.append(doc_id)
            doc_offs.append(doc_off)
            doc_lens.append(doc_len)
        self._ids = doc_ids
        self._ord = {doc_id: i for i, doc_id in enumerate(doc_ids)}
        if len(self._ord) != n_docs:
            raise StorageError("duplicate doc_id in segment")
        self._doc_offs = doc_offs
        self._doc_lens = doc_lens

        n_length_fields, off = read_uint(head, off)
        for _ in range(n_length_fields):
            name, off = read_str(head, off)
            token_total, off = read_uint(head, off)
            n_entries, off = read_uint(head, off)
            lengths = array("q", [-1]) * n_docs
            ordinal = -1
            for _ in range(n_entries):
                gap, off = read_uint(head, off)
                ordinal += gap
                length, off = read_uint(head, off)
                if ordinal >= n_docs:
                    raise StorageError("length entry ordinal out of range")
                lengths[ordinal] = length
            self._length_arrays[name] = lengths
            self._field_token_totals[name] = token_total
            self._field_doc_counts[name] = n_entries
        self._live_field_tokens = dict(self._field_token_totals)
        self._live_field_docs = dict(self._field_doc_counts)

        n_meta_keys, off = read_uint(head, off)
        for _ in range(n_meta_keys):
            key, off = read_str(head, off)
            n_values, off = read_uint(head, off)
            by_value: Dict[str, Tuple[int, ...]] = {}
            for _ in range(n_values):
                value_json, off = read_str(head, off)
                n_ords, off = read_uint(head, off)
                ords: List[int] = []
                ordinal = -1
                for _ in range(n_ords):
                    gap, off = read_uint(head, off)
                    ordinal += gap
                    ords.append(ordinal)
                by_value[value_json] = tuple(ords)
            self._meta[key] = by_value

        n_posting_fields, off = read_uint(head, off)
        postings_bytes = 0
        for _ in range(n_posting_fields):
            name, off = read_str(head, off)
            n_terms, off = read_uint(head, off)
            terms: Dict[str, Tuple[int, int, int, int]] = {}
            for _ in range(n_terms):
                term, off = read_str(head, off)
                df, off = read_uint(head, off)
                max_tf, off = read_uint(head, off)
                blob_len, off = read_uint(head, off)
                if off + blob_len > len(head):
                    raise StorageError("posting blob overruns head")
                terms[term] = (df, max_tf, off, blob_len)
                postings_bytes += blob_len
                off += blob_len
            self._terms[name] = terms
        self.postings_bytes = postings_bytes

    # -- document access ----------------------------------------------------

    def _read_docstore(self, offset: int, length: int) -> bytes:
        if self._data is not None:  # from_bytes checked the length
            start = self._docstore_base + offset
            return self._data[start : start + length]
        if self._fd is None:
            try:
                self._fd = os.open(self.path, os.O_RDONLY)  # type: ignore[arg-type]
            except OSError as exc:
                raise StorageError(
                    f"cannot open segment {self.path}: {exc}"
                ) from exc
        data = os.pread(self._fd, length, self._docstore_base + offset)
        if len(data) != length:
            raise StorageError(f"truncated docstore read in {self.path}")
        return data

    def _record(self, doc_id: str) -> bytes:
        ordinal = self._ord.get(doc_id)
        if ordinal is None or ordinal in self.tombstones:
            raise SearchError(f"document {doc_id!r} not indexed")
        return self._read_docstore(
            self._doc_offs[ordinal], self._doc_lens[ordinal]
        )

    def stored_fields(self, doc_id: str) -> Dict[str, str]:
        """Decode a live document's fields, never its metadata."""
        return _decode_fields(self._record(doc_id), doc_id)[0]

    def document(self, doc_id: str) -> IndexableDocument:
        """Decode a live document from the docstore."""
        record = self._record(doc_id)
        fields, off = _decode_fields(record, doc_id)
        try:
            metadata = json.loads(record[off:].decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise StorageError(
                f"corrupt docstore record for {doc_id!r}: {exc}"
            ) from exc
        return IndexableDocument(
            doc_id=doc_id, fields=fields, metadata=metadata
        )

    def has_document(self, doc_id: str) -> bool:
        """True if ``doc_id`` is stored here and not tombstoned."""
        ordinal = self._ord.get(doc_id)
        return ordinal is not None and ordinal not in self.tombstones

    @property
    def doc_ids(self) -> Set[str]:
        """Ids of the live documents."""
        ids = self._ids
        return set(ids).difference(ids[o] for o in self.tombstones)

    def tombstoned_ids(self) -> List[str]:
        """Ids of the stored documents marked dead, sorted."""
        return sorted(self._ids[ordinal] for ordinal in self.tombstones)

    @property
    def doc_count(self) -> int:
        """Total stored documents (including tombstoned)."""
        return len(self._ids)

    def __len__(self) -> int:
        """Stored documents minus tombstones."""
        return len(self._ids) - len(self.tombstones)

    # -- mutation (tombstones only) -----------------------------------------

    def tombstone(self, doc_id: str) -> bool:
        """Mark ``doc_id`` dead; returns True if it was live here."""
        ordinal = self._ord.get(doc_id)
        if ordinal is None or ordinal in self.tombstones:
            return False
        self.tombstones.add(ordinal)
        for field, lengths in self._length_arrays.items():
            length = lengths[ordinal]
            if length >= 0:
                self._live_field_tokens[field] -= length
                self._live_field_docs[field] -= 1
        self._live_df.clear()
        return True

    # -- statistics (live-exact) --------------------------------------------

    @property
    def fields(self) -> List[str]:
        """Posting fields with at least one live posting, sorted."""
        if not self.tombstones:
            return sorted(self._terms)
        return sorted(
            field
            for field, terms in self._terms.items()
            if any(self.df(term, field) > 0 for term in terms)
        )

    def field_document_count(self, field: str) -> int:
        return self._live_field_docs.get(field, 0)

    def field_token_total(self, field: str) -> int:
        return self._live_field_tokens.get(field, 0)

    def df(self, term: str, field: Optional[str] = None) -> int:
        """Exact *live* document frequency of ``(field, term)``.

        Tombstone-free segments answer from the stored df in O(1); with
        tombstones the posting list is scanned once and the result
        cached until the next tombstone (MaxScore's bounds need df to
        never exceed the true value, so a stale stored df is unsound).
        """
        if field is None:
            return super().df(term)
        entry = self._terms.get(field, {}).get(term)
        if entry is None:
            return 0
        if not self.tombstones:
            return entry[0]
        key = (field, term)
        cached = self._live_df.get(key)
        if cached is None:
            cached = sum(1 for _ in self.iter_term(term, field))
            self._live_df[key] = cached
        return cached

    def max_tf(self, term: str, field: str) -> Optional[int]:
        """Encode-time max tf — an upper bound on the live max tf."""
        entry = self._terms.get(field, {}).get(term)
        return entry[1] if entry is not None else None

    def vocabulary(self, field: Optional[str] = None) -> Set[str]:
        """Terms with at least one live posting."""
        if field is None:
            return super().vocabulary()
        terms = self._terms.get(field, {})
        if not self.tombstones:
            return set(terms)
        return {term for term in terms if self.df(term, field) > 0}

    # -- posting decode -----------------------------------------------------

    def iter_term(self, term: str, field: str) -> Iterator[Tuple[str, int, int]]:
        """Yield ``(doc_id, tf, field_length)`` for live postings.

        Positions are skipped via the ``rest`` length prefix — this is
        the scoring-path decode.
        """
        entry = self._terms.get(field, {}).get(term)
        if entry is None:
            return
        head = self._head
        off = entry[2]
        end = off + entry[3]
        lengths = self._length_arrays.get(field)
        tombstones = self.tombstones
        doc_ids = self._ids
        ordinal = -1
        while off < end:
            gap, off = read_uint(head, off)
            ordinal += gap
            rest_len, off = read_uint(head, off)
            rest_end = off + rest_len
            if ordinal not in tombstones:
                tf, _ = read_uint(head, off)
                length = lengths[ordinal] if lengths is not None else 0
                yield doc_ids[ordinal], tf, (length if length >= 0 else 0)
            off = rest_end

    def iter_term_raw(
        self, term: str, field: str
    ) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(ordinal, rest_bytes)`` for live postings (merge path)."""
        entry = self._terms.get(field, {}).get(term)
        if entry is None:
            return
        head = self._head
        off = entry[2]
        end = off + entry[3]
        tombstones = self.tombstones
        ordinal = -1
        while off < end:
            gap, off = read_uint(head, off)
            ordinal += gap
            rest_len, off = read_uint(head, off)
            rest_end = off + rest_len
            if ordinal not in tombstones:
                yield ordinal, head[off:rest_end]
            off = rest_end

    def term_postings(
        self, term: str, field: str
    ) -> Optional[TermPostings]:
        """The live postings decoded into a flat array (never cached)."""
        postings = TermPostings()
        for doc_id, tf, length in self.iter_term(term, field):
            postings.append(doc_id, tf, length)
        return postings if len(postings) else None

    def positions(self, term: str, field: str) -> Dict[str, List[int]]:
        """doc_id -> positions for live postings (phrase matching)."""
        entry = self._terms.get(field, {}).get(term)
        if entry is None:
            return {}
        head = self._head
        off = entry[2]
        end = off + entry[3]
        tombstones = self.tombstones
        doc_ids = self._ids
        result: Dict[str, List[int]] = {}
        ordinal = -1
        while off < end:
            gap, off = read_uint(head, off)
            ordinal += gap
            rest_len, off = read_uint(head, off)
            rest_end = off + rest_len
            if ordinal not in tombstones:
                tf, pos_off = read_uint(head, off)
                positions: List[int] = []
                position = 0
                for i in range(tf):
                    delta, pos_off = read_uint(head, pos_off)
                    position = delta if i == 0 else position + delta
                    positions.append(position)
                result[doc_ids[ordinal]] = positions
            off = rest_end
        return result

    # -- metadata index -----------------------------------------------------

    def docs_with_metadata(
        self, key: str, values: Iterable[Any]
    ) -> Set[str]:
        """Live doc ids whose metadata ``key`` is one of ``values``."""
        matches: Set[str] = set()
        by_value = self._meta.get(key)
        if not by_value:
            return matches
        tombstones = self.tombstones
        doc_ids = self._ids
        for value in values:
            value_json = _meta_value_json(value)
            if value_json is None:
                continue
            for ordinal in by_value.get(value_json, ()):
                if ordinal not in tombstones:
                    matches.add(doc_ids[ordinal])
        return matches

    def metadata_column(self, key: str, keep: bool = True) -> MetadataColumn:
        """The live documents' values of ``key``, read off the value
        index on every call: a segment is only ever a part, and its
        composite keeps the union."""
        column = MetadataColumn(key)
        values = column.values
        tombstones = self.tombstones
        doc_ids = self._ids
        for value_json, ordinals in self._meta.get(key, {}).items():
            value = _indexed_value(json.loads(value_json))
            for ordinal in ordinals:
                if ordinal not in tombstones:
                    values[doc_ids[ordinal]] = value
        return column


def _indexed_value(decoded: Any) -> Any:
    """The hashable value the index encoded, from its decoded JSON.

    Only hashable values are encoded, and JSON turns a tuple into a
    list, so every list decoded here was a tuple.
    """
    if isinstance(decoded, list):
        return tuple(_indexed_value(item) for item in decoded)
    return decoded


def _meta_value_json(value: Any) -> Optional[str]:
    """Canonical JSON for a metadata value, or None if not encodable.

    Mirrors the in-memory index's hashability rule: unhashable values
    are never indexed there, so they are not encoded (or matched) here
    either.  Hashable-but-unserializable values are likewise skipped.
    """
    try:
        hash(value)
    except TypeError:
        return None
    try:
        return json.dumps(value, sort_keys=True)
    except (TypeError, ValueError):
        return None


def _decode_fields(record: bytes, doc_id: str) -> Tuple[Dict[str, str], int]:
    """A docstore record's fields and the offset of its metadata tail."""
    try:
        n_fields, off = read_uint(record, 0)
        if not n_fields:
            raise StorageError("no fields")
        fields: Dict[str, str] = {}
        for _ in range(n_fields):
            name, off = read_str(record, off)
            text, off = read_str(record, off)
            fields[name] = text
    except (StorageError, UnicodeDecodeError) as exc:
        raise StorageError(
            f"corrupt docstore record for {doc_id!r}: {exc}"
        ) from exc
    return fields, off


def _encode_docstore_record(out: bytearray, document: IndexableDocument) -> None:
    try:
        meta_json = json.dumps(
            dict(document.metadata), sort_keys=True, separators=(",", ":")
        )
    except (TypeError, ValueError) as exc:
        raise StorageError(
            f"document {document.doc_id!r} metadata is not "
            f"JSON-serializable: {exc}"
        ) from exc
    write_uint(out, len(document.fields))
    for name, text in document.fields.items():
        write_str(out, name)
        write_str(out, text)
    out.extend(meta_json.encode("utf-8"))


def _finish_segment(
    head: bytearray, docstore: bytearray
) -> bytes:
    out = bytearray(MAGIC)
    write_uint(out, FORMAT_VERSION)
    write_uint(out, len(head))
    out.extend(head)
    out.extend(docstore)
    return bytes(out)


def encode_from_index(index) -> bytes:
    """Encode a full :class:`~repro.search.inverted_index.InvertedIndex`.

    Documents are assigned ordinals in sorted-doc_id order; uses only
    the index's public API (``doc_ids``, ``document``, ``field_lengths``,
    ``vocabulary``, ``positions``).
    """
    doc_ids = sorted(index.doc_ids)
    ords = {doc_id: i for i, doc_id in enumerate(doc_ids)}

    docstore = bytearray()
    head = bytearray()
    write_uint(head, len(doc_ids))
    meta_index: Dict[str, Dict[str, List[int]]] = {}
    for doc_id in doc_ids:
        document = index.document(doc_id)
        start = len(docstore)
        _encode_docstore_record(docstore, document)
        write_str(head, doc_id)
        write_uint(head, start)
        write_uint(head, len(docstore) - start)
        for key, value in document.metadata.items():
            value_json = _meta_value_json(value)
            if value_json is None:
                continue
            meta_index.setdefault(key, {}).setdefault(
                value_json, []
            ).append(ords[doc_id])

    # ``index.fields`` lists posting fields only; a field whose every
    # instance analyzed to zero terms still has lengths, so union in the
    # documents' own field names.
    seen = set(index.fields)
    for doc_id in doc_ids:
        seen.update(index.document(doc_id).fields)
    length_fields = sorted(seen)

    length_sections: List[Tuple[str, int, List[Tuple[int, int]]]] = []
    for field in length_fields:
        lengths = index.field_lengths(field)
        if not lengths:
            continue
        entries = sorted(
            (ords[doc_id], length) for doc_id, length in lengths.items()
        )
        token_total = index.field_token_total(field)
        length_sections.append((field, token_total, entries))
    write_uint(head, len(length_sections))
    for field, token_total, entries in length_sections:
        write_str(head, field)
        write_uint(head, token_total)
        write_uint(head, len(entries))
        previous = -1
        for ordinal, length in entries:
            write_uint(head, ordinal - previous)
            write_uint(head, length)
            previous = ordinal

    write_uint(head, len(meta_index))
    for key in sorted(meta_index):
        by_value = meta_index[key]
        write_str(head, key)
        write_uint(head, len(by_value))
        for value_json in sorted(by_value):
            ordinals = by_value[value_json]
            write_str(head, value_json)
            write_uint(head, len(ordinals))
            previous = -1
            for ordinal in ordinals:
                write_uint(head, ordinal - previous)
                previous = ordinal

    posting_fields = [
        field for field in index.fields if index.vocabulary(field)
    ]
    write_uint(head, len(posting_fields))
    for field in posting_fields:
        terms = sorted(index.vocabulary(field))
        write_str(head, field)
        write_uint(head, len(terms))
        for term in terms:
            docs = index.positions(term, field)
            entries = sorted(
                (ords[doc_id], positions)
                for doc_id, positions in docs.items()
            )
            blob = bytearray()
            previous = -1
            max_tf = 0
            for ordinal, positions in entries:
                write_uint(blob, ordinal - previous)
                previous = ordinal
                rest = bytearray()
                tf = len(positions)
                if tf > max_tf:
                    max_tf = tf
                write_uint(rest, tf)
                last = 0
                for i, position in enumerate(positions):
                    write_uint(rest, position if i == 0 else position - last)
                    last = position
                write_uint(blob, len(rest))
                blob.extend(rest)
            write_str(head, term)
            write_uint(head, len(entries))
            write_uint(head, max_tf)
            write_uint(head, len(blob))
            head.extend(blob)

    return _finish_segment(head, docstore)


def merge_segments(segments: List[Segment]) -> bytes:
    """Structurally merge segments into one tombstone-free segment.

    Live documents keep their relative order (older segments first);
    ordinals are remapped, posting ``rest`` bytes and docstore records
    are copied verbatim — no text is re-analyzed and no position is
    decoded.
    """
    remaps: List[Dict[int, int]] = []
    doc_ids: List[str] = []
    next_ordinal = 0
    for segment in segments:
        remap: Dict[int, int] = {}
        for ordinal, doc_id in enumerate(segment._ids):
            if ordinal in segment.tombstones:
                continue
            remap[ordinal] = next_ordinal
            doc_ids.append(doc_id)
            next_ordinal += 1
        remaps.append(remap)
    if len(set(doc_ids)) != len(doc_ids):
        raise StorageError("duplicate live doc_id across merged segments")

    docstore = bytearray()
    head = bytearray()
    write_uint(head, len(doc_ids))
    for seg_index, segment in enumerate(segments):
        remap = remaps[seg_index]
        for ordinal in sorted(remap):
            record = segment._read_docstore(
                segment._doc_offs[ordinal], segment._doc_lens[ordinal]
            )
            start = len(docstore)
            docstore.extend(record)
            write_str(head, segment._ids[ordinal])
            write_uint(head, start)
            write_uint(head, len(record))

    all_length_fields = sorted(
        {
            field
            for segment in segments
            for field in segment._length_arrays
        }
    )
    length_sections = []
    for field in all_length_fields:
        entries: List[Tuple[int, int]] = []
        token_total = 0
        for seg_index, segment in enumerate(segments):
            lengths = segment._length_arrays.get(field)
            if lengths is None:
                continue
            remap = remaps[seg_index]
            for ordinal, new_ordinal in remap.items():
                length = lengths[ordinal]
                if length >= 0:
                    entries.append((new_ordinal, length))
                    token_total += length
        if entries:
            entries.sort()
            length_sections.append((field, token_total, entries))
    write_uint(head, len(length_sections))
    for field, token_total, entries in length_sections:
        write_str(head, field)
        write_uint(head, token_total)
        write_uint(head, len(entries))
        previous = -1
        for ordinal, length in entries:
            write_uint(head, ordinal - previous)
            write_uint(head, length)
            previous = ordinal

    meta_index: Dict[str, Dict[str, List[int]]] = {}
    for seg_index, segment in enumerate(segments):
        remap = remaps[seg_index]
        for key, by_value in segment._meta.items():
            for value_json, ordinals in by_value.items():
                live = [
                    remap[ordinal]
                    for ordinal in ordinals
                    if ordinal in remap
                ]
                if live:
                    meta_index.setdefault(key, {}).setdefault(
                        value_json, []
                    ).extend(live)
    write_uint(head, len(meta_index))
    for key in sorted(meta_index):
        by_value = meta_index[key]
        write_str(head, key)
        write_uint(head, len(by_value))
        for value_json in sorted(by_value):
            ordinals = sorted(by_value[value_json])
            write_str(head, value_json)
            write_uint(head, len(ordinals))
            previous = -1
            for ordinal in ordinals:
                write_uint(head, ordinal - previous)
                previous = ordinal

    all_posting_fields = sorted(
        {
            field
            for segment in segments
            for field in segment._terms
        }
    )
    posting_sections = []
    for field in all_posting_fields:
        terms = sorted(
            {
                term
                for segment in segments
                for term in segment._terms.get(field, ())
            }
        )
        term_entries = []
        for term in terms:
            blob = bytearray()
            previous = -1
            df = 0
            max_tf = 0
            for seg_index, segment in enumerate(segments):
                remap = remaps[seg_index]
                for ordinal, rest in segment.iter_term_raw(term, field):
                    new_ordinal = remap[ordinal]
                    write_uint(blob, new_ordinal - previous)
                    previous = new_ordinal
                    write_uint(blob, len(rest))
                    blob.extend(rest)
                    df += 1
                    tf, _ = read_uint(rest, 0)
                    if tf > max_tf:
                        max_tf = tf
            if df:
                term_entries.append((term, df, max_tf, bytes(blob)))
        if term_entries:
            posting_sections.append((field, term_entries))
    write_uint(head, len(posting_sections))
    for field, term_entries in posting_sections:
        write_str(head, field)
        write_uint(head, len(term_entries))
        for term, df, max_tf, blob in term_entries:
            write_str(head, term)
            write_uint(head, df)
            write_uint(head, max_tf)
            write_uint(head, len(blob))
            head.extend(blob)

    return _finish_segment(head, docstore)
