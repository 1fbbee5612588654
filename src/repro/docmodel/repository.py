"""Engagement workbooks: the data repositories EIL crawls.

An :class:`EngagementWorkbook` holds one deal's documents; a
:class:`WorkbookCollection` holds many workbooks and is the unit the
offline pipeline (crawler + CPE) processes.  Workbooks implement the
crawler's ``DocumentSource`` protocol by rendering their documents
through the structure-preserving parser.

Workbook reads are a ``repository`` fault point (the paper's EIL
crawled notoriously flaky enterprise repositories): each bulk read
passes one keyed :meth:`~repro.faults.FaultInjector.check` — key = the
deal id, so injected outages hit whole workbooks deterministically —
before any document is returned.  Resilience lives in the callers:
:class:`~repro.core.analysis.InformationAnalysis` retries and then
quarantines an unreadable workbook; the crawler records an aborted
source and carries on.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from repro.docmodel.documents import EnterpriseDocument
from repro.docmodel.parsers import DocumentParser
from repro.errors import CorpusError
from repro.faults import get_injector
from repro.search.document import IndexableDocument

__all__ = ["EngagementWorkbook", "WorkbookCollection"]


class EngagementWorkbook:
    """One deal's document repository.

    Args:
        deal_id: The owning business activity.
        name: Display name of the repository.
        documents: Initial documents (all must belong to ``deal_id``).
    """

    def __init__(
        self,
        deal_id: str,
        name: str = "",
        documents: Iterable[EnterpriseDocument] = (),
    ) -> None:
        if not deal_id:
            raise CorpusError("workbook needs a deal_id")
        self.deal_id = deal_id
        self.name = name or f"EWB-{deal_id}"
        self._documents: Dict[str, EnterpriseDocument] = {}
        self._parser = DocumentParser()
        for document in documents:
            self.add(document)

    def add(self, document: EnterpriseDocument) -> None:
        """Add one document; deal mismatch or duplicate id raises."""
        if document.deal_id != self.deal_id:
            raise CorpusError(
                f"document {document.doc_id!r} belongs to "
                f"{document.deal_id!r}, not {self.deal_id!r}"
            )
        if document.doc_id in self._documents:
            raise CorpusError(f"duplicate doc_id {document.doc_id!r}")
        self._documents[document.doc_id] = document

    def get(self, doc_id: str) -> EnterpriseDocument:
        """Look up a document by id."""
        document = self._documents.get(doc_id)
        if document is None:
            raise CorpusError(f"no document {doc_id!r} in {self.name!r}")
        return document

    def documents(
        self, doc_type: Optional[str] = None
    ) -> List[EnterpriseDocument]:
        """All documents (optionally one genre), in insertion order.

        Raises:
            TransientError: When the ``repository`` fault point fires
                (the whole workbook read fails, as a repository outage
                would); callers retry or quarantine the workbook.
        """
        get_injector().check("repository", key=self.deal_id)
        docs = list(self._documents.values())
        if doc_type is not None:
            docs = [d for d in docs if d.doc_type == doc_type]
        return docs

    def iter_documents(self) -> Iterator[IndexableDocument]:
        """DocumentSource protocol: rendered, indexable documents.

        The ``repository`` fault point fires on the first ``next()``
        (generator semantics), aborting the whole source — the crawler
        records the aborted source and continues with the next one.
        """
        get_injector().check("repository", key=self.deal_id)
        for document in self._documents.values():
            yield self._parser.to_indexable(document)

    def __len__(self) -> int:
        return len(self._documents)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EngagementWorkbook({self.deal_id!r}, docs={len(self)})"


class WorkbookCollection:
    """All workbooks the EIL deployment covers."""

    def __init__(self, workbooks: Iterable[EngagementWorkbook] = ()) -> None:
        self._workbooks: Dict[str, EngagementWorkbook] = {}
        for workbook in workbooks:
            self.add(workbook)

    def add(self, workbook: EngagementWorkbook) -> None:
        """Register one workbook; duplicate deal ids raise."""
        if workbook.deal_id in self._workbooks:
            raise CorpusError(
                f"workbook for deal {workbook.deal_id!r} already present"
            )
        self._workbooks[workbook.deal_id] = workbook

    def upsert(self, workbook: EngagementWorkbook) -> bool:
        """Register or replace the workbook of ``workbook.deal_id``.

        Returns True when an existing workbook was replaced.  Insertion
        order (and therefore ``all_documents`` order, which is sorted by
        deal id anyway) is preserved for replacements.
        """
        replaced = workbook.deal_id in self._workbooks
        self._workbooks[workbook.deal_id] = workbook
        return replaced

    def __contains__(self, deal_id: str) -> bool:
        return deal_id in self._workbooks

    @property
    def deal_ids(self) -> List[str]:
        """Sorted deal ids."""
        return sorted(self._workbooks)

    def all_documents(self) -> List[EnterpriseDocument]:
        """Every raw document across all workbooks."""
        return [
            document
            for deal_id in self.deal_ids
            for document in self._workbooks[deal_id].documents()
        ]

    def iter_documents(self) -> Iterator[IndexableDocument]:
        """DocumentSource protocol across all workbooks."""
        for deal_id in self.deal_ids:
            yield from self._workbooks[deal_id].iter_documents()

    def document_count(self) -> int:
        """Total documents across workbooks."""
        return sum(len(w) for w in self._workbooks.values())

    def __len__(self) -> int:
        return len(self._workbooks)

    def __iter__(self) -> Iterator[EngagementWorkbook]:
        for deal_id in self.deal_ids:
            yield self._workbooks[deal_id]
