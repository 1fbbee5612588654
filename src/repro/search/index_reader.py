"""The index read surface: one protocol, every derived operation once.

:class:`IndexReader` declares the per-field *primitives* an index must
answer (its abstract members) and writes everything that follows from
them — ``matching_docs``, ``phrase_docs``, ``average_length`` and
every ``field=None`` merge — exactly once.  Two
leaves store postings (:class:`~repro.search.inverted_index
.InvertedIndex` in dicts, :class:`~repro.storage.segment.Segment` in
delta-varint bytes); :class:`CompositeIndexReader` is the union over
disjoint parts that the segment store (segments + memtable) is.

Readers take no lock: whoever owns one (an engine) excludes mutation
for the duration of a call.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
)

from repro.errors import SearchError
from repro.search.document import IndexableDocument

__all__ = [
    "IndexReader",
    "CompositeIndexReader",
    "MetadataColumn",
    "TermPostings",
]

_ABSENT = object()


class TermPostings:
    """Flat, score-ready posting array for one (field, term).

    Attributes:
        doc_ids: Document ids in insertion order.
        tfs: Term frequency per document (parallel to ``doc_ids``).
        lengths: Field token count per document (parallel).
        max_tf: Largest term frequency seen — an upper-bound ingredient
            for MaxScore pruning (monotone under appends; removals drop
            the whole array, so it is never stale).
    """

    __slots__ = ("doc_ids", "tfs", "lengths", "max_tf", "_where")

    def __init__(self) -> None:
        self.doc_ids: List[str] = []
        self.tfs: List[int] = []
        self.lengths: List[int] = []
        self.max_tf = 0
        # doc id -> its entry, made by the first position() call.
        self._where: Optional[Dict[str, int]] = None

    def append(self, doc_id: str, tf: int, length: int) -> None:
        """Add one document's entry (index ``add`` / lazy compile)."""
        if self._where is not None:
            self._where[doc_id] = len(self.doc_ids)
        self.doc_ids.append(doc_id)
        self.tfs.append(tf)
        self.lengths.append(length)
        if tf > self.max_tf:
            self.max_tf = tf

    def extend(self, other: "TermPostings") -> None:
        """Append every entry of ``other`` (a composite's next part)."""
        self._where = None
        self.doc_ids.extend(other.doc_ids)
        self.tfs.extend(other.tfs)
        self.lengths.extend(other.lengths)
        if other.max_tf > self.max_tf:
            self.max_tf = other.max_tf

    def position(self, doc_id: str) -> Optional[int]:
        """Where ``doc_id``'s entry sits in the arrays, or None.

        The doc id -> entry map is built once, on the first call, and
        lives as long as the array (whoever drops the array drops it),
        so probing a few ids of a long array costs a dict lookup each.
        """
        where = self._where
        if where is None:
            where = self._where = {
                doc_id: i for i, doc_id in enumerate(self.doc_ids)
            }
        return where.get(doc_id)

    def __len__(self) -> int:
        return len(self.doc_ids)


class MetadataColumn:
    """One metadata key's value for every live document that has one.

    What the engine checks an activity scope against, posting by
    posting, and what grouped search reads a hit's activity from.  It
    holds what the metadata value index holds — hashable values only —
    so an id it lacks either has no such key or an unhashable value.

    Attributes:
        key: The metadata key.
        values: doc id -> value.  Read-only to everyone but the reader
            that maintains it.
    """

    __slots__ = ("key", "values")

    def __init__(self, key: str) -> None:
        self.key = key
        self.values: Dict[str, Any] = {}

    def add_document(self, document: IndexableDocument) -> None:
        """Record ``document``'s value, if it has a hashable one."""
        value = document.metadata.get(self.key, _ABSENT)
        if value is _ABSENT:
            return
        try:
            hash(value)
        except TypeError:
            return  # never indexed, so in no scope
        self.values[document.doc_id] = value

    def discard(self, doc_id: str) -> None:
        """Forget ``doc_id``, if held."""
        self.values.pop(doc_id, None)


class IndexReader(ABC):
    """What the engine, the scorer and the SIAPI facade read.

    The abstract members are the primitives; all of them answer for
    *live* documents only.  ``df`` and ``vocabulary`` are primitives
    per field — an implementation answers for a given field and hands
    ``field=None`` to the body here (``super().df(term)``), which
    merges over :attr:`fields`.
    """

    __slots__ = ()

    # -- primitives -----------------------------------------------------------

    @abstractmethod
    def __len__(self) -> int:
        """Number of documents (BM25's N)."""

    @property
    @abstractmethod
    def fields(self) -> List[str]:
        """Names of the fields carrying at least one posting, sorted."""

    @property
    @abstractmethod
    def doc_ids(self) -> Set[str]:
        """Ids of all documents (a set of the caller's own)."""

    @abstractmethod
    def has_document(self, doc_id: str) -> bool:
        """True if ``doc_id`` is indexed."""

    @abstractmethod
    def document(self, doc_id: str) -> IndexableDocument:
        """The stored document; :class:`SearchError` if not indexed."""

    @abstractmethod
    def stored_fields(self, doc_id: str) -> Mapping[str, str]:
        """The stored document's fields, in its order, without its
        metadata: what a shown hit reads.  :class:`SearchError` if not
        indexed.  Read-only: implementations may hand out their own
        storage.
        """

    @abstractmethod
    def positions(
        self, term: str, field: str
    ) -> Mapping[str, Sequence[int]]:
        """doc_id -> ascending positions of ``term`` in ``field``.

        Read-only: implementations may hand out their own storage.
        """

    @abstractmethod
    def term_postings(
        self, term: str, field: str
    ) -> Optional[TermPostings]:
        """Flat postings of ``(field, term)``, or None when nothing
        matches.  ``len()`` of the result is the in-field df."""

    @abstractmethod
    def max_tf(self, term: str, field: str) -> Optional[int]:
        """O(1) upper bound on the term's largest tf, or None if unknown.

        Never below the true maximum (MaxScore prunes on it) and never
        paid for with a posting traversal.
        """

    @abstractmethod
    def df(self, term: str, field: Optional[str] = None) -> int:
        """Document frequency: exact per field, summed for ``None``.

        The sum double-counts documents carrying the term in several
        fields — an upper bound, which is all AND ordering needs
        (the size of :meth:`matching_docs` is the exact merged count).
        """
        return sum(self.df(term, name) for name in self.fields)

    @abstractmethod
    def field_document_count(self, field: str) -> int:
        """Number of documents that have ``field`` (even if empty)."""

    @abstractmethod
    def field_token_total(self, field: str) -> int:
        """Exact token total of ``field`` over all documents."""

    @abstractmethod
    def docs_with_metadata(
        self, key: str, values: Iterable[Any]
    ) -> Set[str]:
        """Ids of documents whose metadata ``key`` is one of ``values``.

        Unhashable values match nothing (they are never indexed).
        """

    @abstractmethod
    def metadata_column(self, key: str, keep: bool = True) -> MetadataColumn:
        """Every live document's value of metadata ``key``: the inverse
        of :meth:`docs_with_metadata`, as one column.

        A reader the engine searches (:class:`~repro.search
        .inverted_index.InvertedIndex`, the composites) builds it once
        per key, on the first ask, and keeps it current through its own
        writes; never rebuilt per query.  The first ask may come from
        several readers at once (under the engine's read lock), so a
        column is published only once it is whole.  ``keep=False`` asks
        for a column without publishing one: what a composite builds its
        union from, so no part holds a second copy.  A segment never
        keeps one: it is only ever a part.  Read-only: the caller may
        get the reader's own column.
        """

    @abstractmethod
    def vocabulary(self, field: Optional[str] = None) -> Set[str]:
        """Distinct terms with a posting in ``field`` (any, for None)."""
        terms: Set[str] = set()
        for name in self.fields:
            terms |= self.vocabulary(name)
        return terms

    # -- derived, written once ------------------------------------------------

    def _field_names(self, field: Optional[str]) -> Sequence[str]:
        return (field,) if field is not None else self.fields

    def matching_docs(
        self, term: str, field: Optional[str] = None
    ) -> Set[str]:
        """Ids of documents containing ``term`` (optionally in ``field``)."""
        matches: Set[str] = set()
        for name in self._field_names(field):
            matches.update(self.positions(term, name))
        return matches

    def phrase_docs(
        self, terms: Sequence[str], field: Optional[str] = None
    ) -> Set[str]:
        """Documents containing ``terms`` consecutively in one field."""
        matches: Set[str] = set()
        if not terms:
            return matches
        for name in self._field_names(field):
            by_term = []
            candidates: Optional[Set[str]] = None
            for term in terms:
                positions = self.positions(term, name)
                by_term.append(positions)
                candidates = (
                    set(positions)
                    if candidates is None
                    else candidates.intersection(positions)
                )
                if not candidates:
                    break
            for doc_id in candidates or ():
                starts = set(by_term[0][doc_id])
                for offset in range(1, len(terms)):
                    starts &= {p - offset for p in by_term[offset][doc_id]}
                    if not starts:
                        break
                if starts:
                    matches.add(doc_id)
        return matches

    def average_length(self, field: str) -> float:
        """Average length of ``field`` (BM25's avgdl).

        Integer totals divided once.  A composite sums its parts'
        integers before this divide, so a segmented corpus
        gets the very float a single in-memory index computes
        (bit-identical BM25 avgdl); averaging per-part floats would
        not.  The per-field denominator is the number of documents that
        *have* the field — a corpus-wide one deflates avgdl for sparse
        fields.
        """
        docs = self.field_document_count(field)
        return self.field_token_total(field) / docs if docs else 0.0


class CompositeIndexReader(IndexReader):
    """A union over disjoint parts, each document in exactly one.

    Every statistic is an integer sum over :attr:`parts`, every id or
    term set a union, every per-document lookup a call on the owning
    part.  ``field=None`` is passed down, so the parts merge their own
    fields.

    A metadata column is the one thing a composite keeps of its own: the
    union of its parts' columns (asked with ``keep=False``, so the
    parts keep none), made on the first ask and then kept current by
    the subclass's ``add`` / ``remove`` (:meth:`_track` /
    :meth:`_untrack`).  Moving documents between parts (a flush, a
    merge) never changes a document's value, so it never touches them.
    """

    __slots__ = ("_columns",)

    def __init__(self) -> None:
        self._columns: Dict[str, MetadataColumn] = {}

    @property
    @abstractmethod
    def parts(self) -> Sequence[IndexReader]:
        """The parts, in posting order (oldest documents first)."""

    def _owner(self, doc_id: str) -> Optional[IndexReader]:
        """The part holding ``doc_id``, or None."""
        for part in self.parts:
            if part.has_document(doc_id):
                return part
        return None

    def __len__(self) -> int:
        return sum(len(part) for part in self.parts)

    @property
    def fields(self) -> List[str]:
        names: Set[str] = set()
        for part in self.parts:
            names.update(part.fields)
        return sorted(names)

    @property
    def doc_ids(self) -> Set[str]:
        ids: Set[str] = set()
        for part in self.parts:
            ids |= part.doc_ids
        return ids

    def has_document(self, doc_id: str) -> bool:
        return self._owner(doc_id) is not None

    def document(self, doc_id: str) -> IndexableDocument:
        owner = self._owner(doc_id)
        if owner is None:
            raise SearchError(f"document {doc_id!r} not indexed")
        return owner.document(doc_id)

    def stored_fields(self, doc_id: str) -> Mapping[str, str]:
        owner = self._owner(doc_id)
        if owner is None:
            raise SearchError(f"document {doc_id!r} not indexed")
        return owner.stored_fields(doc_id)

    def positions(
        self, term: str, field: str
    ) -> Mapping[str, Sequence[int]]:
        merged = {}
        for part in self.parts:
            merged.update(part.positions(term, field))
        return merged

    def term_postings(
        self, term: str, field: str
    ) -> Optional[TermPostings]:
        merged = TermPostings()
        for part in self.parts:
            postings = part.term_postings(term, field)
            if postings is not None:
                merged.extend(postings)
        return merged if len(merged) else None

    def max_tf(self, term: str, field: str) -> Optional[int]:
        best: Optional[int] = None
        for part in self.parts:
            bound = part.max_tf(term, field)
            if bound is None:
                # A part that has the term but knows no bound makes
                # the whole answer unknown; a part without it is moot.
                if part.df(term, field) > 0:
                    return None
            elif best is None or bound > best:
                best = bound
        return best

    def df(self, term: str, field: Optional[str] = None) -> int:
        return sum(part.df(term, field) for part in self.parts)

    def field_document_count(self, field: str) -> int:
        return sum(part.field_document_count(field) for part in self.parts)

    def field_token_total(self, field: str) -> int:
        return sum(part.field_token_total(field) for part in self.parts)

    def docs_with_metadata(
        self, key: str, values: Iterable[Any]
    ) -> Set[str]:
        values = list(values)
        matches: Set[str] = set()
        for part in self.parts:
            matches |= part.docs_with_metadata(key, values)
        return matches

    def metadata_column(self, key: str, keep: bool = True) -> MetadataColumn:
        column = self._columns.get(key)
        if column is None:
            column = MetadataColumn(key)
            for part in self.parts:
                column.values.update(part.metadata_column(key, False).values)
            if keep:  # published whole: readers may build side by side
                self._columns[key] = column
        return column

    def _track(self, document: IndexableDocument) -> None:
        """Record an added ``document`` in every column made so far."""
        for column in self._columns.values():
            column.add_document(document)

    def _untrack(self, doc_id: str) -> None:
        """Drop a removed ``doc_id`` from every column made so far."""
        for column in self._columns.values():
            column.discard(doc_id)

    def vocabulary(self, field: Optional[str] = None) -> Set[str]:
        terms: Set[str] = set()
        for part in self.parts:
            terms |= part.vocabulary(field)
        return terms
