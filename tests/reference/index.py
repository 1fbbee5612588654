"""The index model: a dict of documents, everything else recomputed.

``DictOfDocs`` keeps the documents it was given and nothing more.
Every answer of the ``IndexReader`` protocol — primitive or derived —
is worked out from scratch by analysing the stored field text with the
reference analyzer (``tests/reference/text.py``), so it shares no code
with any index under ``src/`` and has no state that could go stale.

``assert_conforms(reader, model)`` is the one statement of what a
reader must answer: every protocol member and every derived operation,
for every field (one unknown, and ``None``), every term (one unknown),
every document (one unknown; its stored fields in order, as a hit
reads them, equal to its decoded document's), every phrase that occurs
plus some that do not, and every metadata key with hashable and
unhashable probes, and every metadata key's column (one key unknown):
each live document's value, each value's document count, and the count
of every probe.
``tests/search/test_index_reader.py`` runs it over every kind of
reader in every layout; the storage suites hand it their own
scenarios.
"""

from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import pytest

from repro.errors import SearchError
from repro.search import IndexableDocument
from repro.storage.segment import Segment
from tests.reference.text import analyze_by_composition

__all__ = ["DictOfDocs", "assert_conforms"]

GHOST_FIELD = "ghost_field"
GHOST_TERM = "ghostterm"
GHOST_DOC = "ghost-doc"


@lru_cache(maxsize=None)
def _analyze(text: str) -> Tuple[Tuple[str, int], ...]:
    """(term, position) pairs of ``text``; a pure function of the text,
    memoised only because the model asks again for every question."""
    return tuple(
        (analyzed.term, analyzed.position)
        for analyzed in analyze_by_composition(text)
    )


def _hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


class DictOfDocs:
    """doc_id -> document; every statistic is a fresh walk over it."""

    def __init__(self, documents: Sequence[IndexableDocument] = ()) -> None:
        self.docs: Dict[str, IndexableDocument] = {}
        for document in documents:
            self.add(document)

    def add(self, document: IndexableDocument) -> None:
        assert document.doc_id not in self.docs
        self.docs[document.doc_id] = document

    def remove(self, doc_id: str) -> None:
        del self.docs[doc_id]

    # -- the walk everything else is built from -------------------------------

    def _tokens(self, doc_id: str, field: str) -> List[Tuple[str, int]]:
        """(term, position) of one field instance ([] if absent)."""
        document = self.docs.get(doc_id)
        if document is None or field not in document.fields:
            return []
        return list(_analyze(document.fields[field]))

    def _all_field_names(self) -> List[str]:
        return sorted(
            {name for doc in self.docs.values() for name in doc.fields}
        )

    def _fields_for(self, field: Optional[str]) -> List[str]:
        return [field] if field is not None else self._all_field_names()

    # -- primitives -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.docs)

    @property
    def doc_ids(self) -> Set[str]:
        return set(self.docs)

    @property
    def fields(self) -> List[str]:
        return [
            name
            for name in self._all_field_names()
            if any(self._tokens(doc_id, name) for doc_id in self.docs)
        ]

    def positions(self, term: str, field: str) -> Dict[str, List[int]]:
        found: Dict[str, List[int]] = {}
        for doc_id in self.docs:
            hits = [p for t, p in self._tokens(doc_id, field) if t == term]
            if hits:
                found[doc_id] = hits
        return found

    def postings(self, term: str, field: str) -> Dict[str, Tuple[int, int]]:
        """doc_id -> (tf, field length): a posting array as a dict."""
        return {
            doc_id: (len(hits), self.field_length(field, doc_id))
            for doc_id, hits in self.positions(term, field).items()
        }

    def term_frequency(
        self, term: str, doc_id: str, field: Optional[str] = None
    ) -> int:
        return sum(
            1
            for name in self._fields_for(field)
            for t, _ in self._tokens(doc_id, name)
            if t == term
        )

    def df(self, term: str, field: Optional[str] = None) -> int:
        """Per field exact; for None the per-field counts summed."""
        return sum(
            len(self.positions(term, name))
            for name in self._fields_for(field)
        )

    def field_length(self, field: str, doc_id: str) -> int:
        return len(self._tokens(doc_id, field))

    def field_document_count(self, field: str) -> int:
        return sum(1 for doc in self.docs.values() if field in doc.fields)

    def field_token_total(self, field: str) -> int:
        return sum(self.field_length(field, doc_id) for doc_id in self.docs)

    def vocabulary(self, field: Optional[str] = None) -> Set[str]:
        return {
            term
            for name in self._fields_for(field)
            for doc_id in self.docs
            for term, _ in self._tokens(doc_id, name)
        }

    def docs_with_metadata(self, key: str, values: Sequence[Any]) -> Set[str]:
        wanted = [value for value in values if _hashable(value)]
        return {
            doc_id
            for doc_id, doc in self.docs.items()
            if key in doc.metadata
            and _hashable(doc.metadata[key])
            and any(
                type(doc.metadata[key]) is type(value)
                and doc.metadata[key] == value
                for value in wanted
            )
        }

    def metadata_column(self, key: str) -> Dict[str, Any]:
        """doc_id -> value, for each document whose ``key`` has a
        hashable value."""
        return {
            doc_id: doc.metadata[key]
            for doc_id, doc in self.docs.items()
            if key in doc.metadata and _hashable(doc.metadata[key])
        }

    # -- derived ------------------------------------------------------------------

    def matching_docs(
        self, term: str, field: Optional[str] = None
    ) -> Set[str]:
        return {
            doc_id
            for doc_id in self.docs
            if self.term_frequency(term, doc_id, field) > 0
        }

    def phrase_docs(
        self, terms: Sequence[str], field: Optional[str] = None
    ) -> Set[str]:
        """Documents where ``terms`` sit at consecutive positions."""
        found: Set[str] = set()
        if not terms:
            return found
        for name in self._fields_for(field):
            for doc_id in self.docs:
                at = {p: t for t, p in self._tokens(doc_id, name)}
                if any(
                    all(
                        at.get(start + i) == term
                        for i, term in enumerate(terms)
                    )
                    for start in at
                ):
                    found.add(doc_id)
        return found

    def average_length(self, field: str) -> float:
        docs = self.field_document_count(field)
        return self.field_token_total(field) / docs if docs else 0.0

    # -- what to probe --------------------------------------------------------------

    def phrases(self) -> List[Tuple[str, ...]]:
        """Every bigram and trigram that occurs (by position, so a
        stopword gap breaks it), each bigram reversed, each term doubled
        and tripled, one with an unknown term, and the empty phrase."""
        probes: Set[Tuple[str, ...]] = {(), (GHOST_TERM, GHOST_TERM)}
        for name in self._all_field_names():
            for doc_id in self.docs:
                at = {p: t for t, p in self._tokens(doc_id, name)}
                for p, term in at.items():
                    probes.update({(term, term), (term, term, term)})
                    probes.add((term, GHOST_TERM))
                    if p + 1 in at:
                        probes.add((term, at[p + 1]))
                        probes.add((at[p + 1], term))
                        if p + 2 in at:
                            probes.add((term, at[p + 1], at[p + 2]))
        return sorted(probes)

    def metadata_probes(self) -> List[Tuple[str, List[Any]]]:
        """(key, values) pairs: each stored value alone, all of a key's
        values together, values of another type, unhashable probes."""
        by_key: Dict[str, List[Any]] = {}
        for doc in self.docs.values():
            for key, value in doc.metadata.items():
                if value not in by_key.setdefault(key, []):
                    by_key[key].append(value)
        probes: List[Tuple[str, List[Any]]] = [("ghost_key", ["x"])]
        for key, values in by_key.items():
            probes.append((key, values))
            probes.extend((key, [value]) for value in values)
            probes.append((key, ["nope", -1, ["boom"], {"k": "v"}]))
        return probes


def assert_conforms(reader, model: DictOfDocs) -> None:
    """``reader`` answers the whole protocol as ``model`` does."""
    fields = model._all_field_names() + [GHOST_FIELD]
    terms = sorted(model.vocabulary()) + [GHOST_TERM]
    doc_ids = sorted(model.doc_ids) + [GHOST_DOC]
    metadata_keys = sorted(
        {key for doc in model.docs.values() for key in doc.metadata}
    ) + ["ghost_key"]

    assert len(reader) == len(model)
    assert reader.doc_ids == model.doc_ids
    assert reader.fields == model.fields
    assert reader.vocabulary() == model.vocabulary()

    for doc_id in doc_ids:
        assert reader.has_document(doc_id) == (doc_id in model.docs)
        if doc_id in model.docs:
            stored = reader.document(doc_id)
            assert stored.doc_id == doc_id
            assert dict(stored.fields) == dict(model.docs[doc_id].fields)
            assert dict(stored.metadata) == dict(
                model.docs[doc_id].metadata
            )
            # What a shown hit reads: the same fields, in the same order.
            assert list(reader.stored_fields(doc_id).items()) == list(
                stored.fields.items()
            )
        else:
            with pytest.raises(SearchError):
                reader.document(doc_id)
            with pytest.raises(SearchError):
                reader.stored_fields(doc_id)

    for key in metadata_keys:
        expected = model.metadata_column(key)
        unkept = reader.metadata_column(key, False)
        assert unkept.key == key
        assert unkept.values == expected, key
        column = reader.metadata_column(key)
        assert column.values == expected, key
        if not isinstance(reader, Segment):  # only ever a part: kept by none
            # Asked again: the one column, not a rebuilt one.
            assert reader.metadata_column(key) is column

    for field in fields:
        assert reader.field_document_count(field) == (
            model.field_document_count(field)
        ), field
        assert reader.field_token_total(field) == (
            model.field_token_total(field)
        ), field
        assert reader.vocabulary(field) == model.vocabulary(field), field
        assert reader.average_length(field) == (
            model.average_length(field)
        ), field

    for term in terms:
        for field in fields + [None]:
            where = (term, field)
            assert reader.df(term, field) == model.df(term, field), where
            assert reader.matching_docs(term, field) == (
                model.matching_docs(term, field)
            ), where
        for field in fields:
            where = (term, field)
            expected = model.postings(term, field)
            assert {
                doc_id: list(hits)
                for doc_id, hits in reader.positions(term, field).items()
            } == model.positions(term, field), where
            bound = reader.max_tf(term, field)
            if expected and bound is not None:
                assert bound >= max(tf for tf, _ in expected.values()), where
            postings = reader.term_postings(term, field)
            if not expected:
                assert postings is None, where
                continue
            assert len(postings) == len(postings.doc_ids) == len(expected)
            assert dict(
                zip(postings.doc_ids, zip(postings.tfs, postings.lengths))
            ) == expected, where
            assert postings.max_tf == max(postings.tfs), where

    for phrase in model.phrases():
        for field in fields + [None]:
            assert reader.phrase_docs(list(phrase), field) == (
                model.phrase_docs(phrase, field)
            ), (phrase, field)

    for key, values in model.metadata_probes():
        assert reader.docs_with_metadata(key, values) == (
            model.docs_with_metadata(key, values)
        ), (key, values)
        assert reader.docs_with_metadata(key, iter(values)) == (
            model.docs_with_metadata(key, values)
        ), (key, values)
