"""Positional inverted index, one posting list per (field, term).

Postings record term positions within each field so phrase queries can
verify adjacency.  The index also maintains the per-field statistics the
BM25 scorer needs: document frequency per term, field length per
document, and average field length.

Two compiled structures sit beside the positional postings so the hot
query path never walks dict-of-dict chains per (term, document):

* :class:`TermPostings` — a flat posting array per (field, term)
  carrying parallel ``doc_ids`` / ``tfs`` / ``lengths`` lists plus the
  running ``max_tf`` (the MaxScore upper-bound ingredient).  Arrays are
  compiled lazily on first access and then maintained *incrementally*:
  ``add`` appends the new document's entry in place, ``remove`` drops
  only the removed document's own (field, term) arrays, so the compile
  cost is never paid again for untouched terms.  Consistency is
  exact — every mutation that could change an array either updates it
  or invalidates it.
* a metadata value index (``docs_with_metadata``) mapping each hashable
  ``(key, value)`` metadata pair to its document-id set (what
  offboarding removes), and its inverse per key (``metadata_column``):
  each document's value, which the engine checks an activity scope
  against on the postings it already walks.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.errors import SearchError
from repro.obs import CounterHandle, HistogramHandle
from repro.search.analyzer import Analyzer
from repro.search.document import IndexableDocument
from repro.search.index_reader import (
    IndexReader,
    MetadataColumn,
    TermPostings,
)

__all__ = ["InvertedIndex", "TermPostings"]

_INDEX_POSTINGS_COMPILED = CounterHandle("index.postings_compiled")
_INDEX_REMOVALS = CounterHandle("index.removals")
_INDEX_REMOVE_TERMS_TOUCHED = HistogramHandle("index.remove_terms_touched")


class InvertedIndex(IndexReader):
    """The engine's storage: documents plus positional postings.

    The dict-backed :class:`~repro.search.index_reader.IndexReader`
    leaf, and the only one that is written to.  Read methods without a
    docstring of their own do what the protocol says, off the dicts.
    """

    def __init__(self, analyzer: Optional[Analyzer] = None) -> None:
        self.analyzer = analyzer or Analyzer()
        self._documents: Dict[str, IndexableDocument] = {}
        # field -> term -> doc_id -> sorted positions
        self._postings: Dict[str, Dict[str, Dict[str, List[int]]]] = {}
        # field -> doc_id -> token count
        self._field_lengths: Dict[str, Dict[str, int]] = {}
        # Running totals so average_length stays O(1): scoring reads it
        # per (term, field) and a re-sum would be linear in the corpus.
        self._field_token_totals: Dict[str, int] = {}
        # doc_id -> field -> distinct terms, so removal only touches the
        # document's own postings instead of the whole field vocabulary.
        self._doc_terms: Dict[str, Dict[str, Set[str]]] = {}
        # (field, term) -> compiled flat postings; lazily built, then
        # incrementally maintained (see module docstring).
        self._compiled: Dict[Tuple[str, str], TermPostings] = {}
        # metadata key -> value -> doc ids (hashable values only).
        self._meta_index: Dict[str, Dict[Any, Set[str]]] = {}
        # metadata key -> its column, made on the first kept ask, then
        # maintained by add and remove.
        self._columns: Dict[str, MetadataColumn] = {}

    # -- mutation -----------------------------------------------------------

    def add(self, document: IndexableDocument) -> None:
        """Index ``document``; re-adding an id raises (delete first)."""
        if document.doc_id in self._documents:
            raise SearchError(f"document {document.doc_id!r} already indexed")
        self._documents[document.doc_id] = document
        doc_terms = self._doc_terms.setdefault(document.doc_id, {})
        for field_name, text in document.fields.items():
            terms = self.analyzer.analyze(text)
            field_terms = doc_terms.setdefault(field_name, set())
            grouped: Dict[str, List[int]] = {}
            for analyzed in terms:
                grouped.setdefault(analyzed.term, []).append(
                    analyzed.position
                )
            length = len(terms)
            if grouped:  # a field with no term is not a posting field
                field_postings = self._postings.setdefault(field_name, {})
            for term, positions in grouped.items():
                field_postings.setdefault(term, {})[
                    document.doc_id
                ] = positions
                field_terms.add(term)
                compiled = self._compiled.get((field_name, term))
                if compiled is not None:
                    compiled.append(
                        document.doc_id, len(positions), length
                    )
            self._field_lengths.setdefault(field_name, {})[
                document.doc_id
            ] = length
            self._field_token_totals[field_name] = (
                self._field_token_totals.get(field_name, 0) + length
            )
        for key, value in document.metadata.items():
            try:
                by_value = self._meta_index.setdefault(key, {})
                by_value.setdefault(value, set()).add(document.doc_id)
            except TypeError:
                continue  # unhashable value; never scope-filterable
        for column in self._columns.values():
            column.add_document(document)

    def remove(self, doc_id: str) -> IndexableDocument:
        """Remove a document from the index and return it.

        O(document's own terms) via the reverse map, not O(field
        vocabulary): continuous offboarding (``EILSystem.remove_deal``)
        must not rescan every posting list per document.  Compiled
        posting arrays are invalidated per touched (field, term) only —
        untouched terms keep their arrays.
        """
        document = self._documents.pop(doc_id, None)
        if document is None:
            raise SearchError(f"document {doc_id!r} not indexed")
        doc_terms = self._doc_terms.pop(doc_id, {})
        terms_touched = 0
        for field_name in document.fields:
            field_postings = self._postings.get(field_name, {})
            for term in doc_terms.get(field_name, ()):
                docs = field_postings.get(term)
                if docs is None:
                    continue
                terms_touched += 1
                docs.pop(doc_id, None)
                self._compiled.pop((field_name, term), None)
                if not docs:
                    del field_postings[term]
            if not field_postings and field_name in self._postings:
                del self._postings[field_name]
            lengths = self._field_lengths.get(field_name)
            if lengths is not None:
                length = lengths.pop(doc_id, 0)
                if not lengths:
                    del self._field_lengths[field_name]
                    self._field_token_totals.pop(field_name, None)
                else:
                    self._field_token_totals[field_name] = (
                        self._field_token_totals.get(field_name, 0) - length
                    )
        for key, value in document.metadata.items():
            by_value = self._meta_index.get(key)
            if by_value is None:
                continue
            try:
                members = by_value.get(value)
            except TypeError:
                continue
            if members is not None:
                members.discard(doc_id)
                if not members:
                    del by_value[value]
        for column in self._columns.values():
            column.discard(doc_id)
        _INDEX_REMOVALS.inc()
        _INDEX_REMOVE_TERMS_TOUCHED.observe(terms_touched)
        return document

    # -- lookup ---------------------------------------------------------------

    def document(self, doc_id: str) -> IndexableDocument:
        document = self._documents.get(doc_id)
        if document is None:
            raise SearchError(f"document {doc_id!r} not indexed")
        return document

    def stored_fields(self, doc_id: str) -> Mapping[str, str]:
        return self.document(doc_id).fields

    def has_document(self, doc_id: str) -> bool:
        return doc_id in self._documents

    def __len__(self) -> int:
        return len(self._documents)

    @property
    def doc_ids(self) -> Set[str]:
        return set(self._documents)

    @property
    def fields(self) -> List[str]:
        return sorted(self._postings)

    def positions(self, term: str, field: str) -> Dict[str, List[int]]:
        """doc_id -> positions of ``term`` in ``field`` (not a copy)."""
        return self._postings.get(field, {}).get(term, {})

    def term_postings(
        self, term: str, field: str
    ) -> Optional[TermPostings]:
        """Compiled flat postings for ``(field, term)``, or ``None``.

        First access compiles the array from the positional postings
        (O(df)); afterwards ``add`` appends and ``remove`` invalidates,
        so steady-state queries read a ready-made score-at-match-time
        array.  ``len()`` of the result is the term's in-field document
        frequency.
        """
        key = (field, term)
        compiled = self._compiled.get(key)
        if compiled is None:
            docs = self._postings.get(field, {}).get(term)
            if not docs:
                return None
            lengths = self._field_lengths.get(field, {})
            compiled = TermPostings()
            for doc_id, positions in docs.items():
                compiled.append(
                    doc_id, len(positions), lengths.get(doc_id, 0)
                )
            self._compiled[key] = compiled
            _INDEX_POSTINGS_COMPILED.inc()
        return compiled

    def max_tf(self, term: str, field: str) -> Optional[int]:
        """``max_tf`` of an already-compiled posting array, else None.

        Deliberately does *not* compile: MaxScore bound estimation must
        stay O(1) even for clauses that end up pruned without ever
        touching their postings.
        """
        compiled = self._compiled.get((field, term))
        return compiled.max_tf if compiled is not None else None

    def docs_with_metadata(
        self, key: str, values: Iterable[Any]
    ) -> Set[str]:
        """Backed by an incrementally-maintained (key, value) -> id-set
        map, so *k* values resolve in O(k) plus the result size — never
        a corpus scan."""
        by_value = self._meta_index.get(key)
        if not by_value:
            return set()
        matches: Set[str] = set()
        for value in values:
            try:
                members = by_value.get(value)
            except TypeError:
                continue
            if members:
                matches.update(members)
        return matches

    def metadata_column(self, key: str, keep: bool = True) -> MetadataColumn:
        column = self._columns.get(key)
        if column is None:
            column = MetadataColumn(key)
            for document in self._documents.values():
                column.add_document(document)
            if keep:  # published whole: readers may build side by side
                self._columns[key] = column
        return column

    # -- statistics ------------------------------------------------------------

    def df(self, term: str, field: Optional[str] = None) -> int:
        if field is None:
            return super().df(term)
        return len(self._postings.get(field, {}).get(term, ()))

    def field_lengths(self, field: str) -> Dict[str, int]:
        """doc_id -> token count for every document *having* ``field``.

        Presence-aware (a zero-length field instance still appears),
        which is what the segment encoder needs: ``field_document_count``
        must survive a persistence round-trip.
        """
        return dict(self._field_lengths.get(field, {}))

    def terms_of(self, doc_id: str) -> Dict[str, Set[str]]:
        """field -> distinct analyzed terms of one indexed document.

        Exposes the removal reverse map so layered indexes (the segment
        store's memtable) can invalidate exactly the merged posting
        caches an ``add`` touched, without re-analyzing the document.
        """
        return {
            field: set(terms)
            for field, terms in self._doc_terms.get(doc_id, {}).items()
        }

    def field_document_count(self, field: str) -> int:
        return len(self._field_lengths.get(field, {}))

    def field_token_total(self, field: str) -> int:
        return self._field_token_totals.get(field, 0)

    def vocabulary(self, field: Optional[str] = None) -> Set[str]:
        if field is None:
            return super().vocabulary()
        return set(self._postings.get(field, {}))
