"""Unit tests for workbooks and collections."""

import pytest

from repro.docmodel import (
    EngagementWorkbook,
    TextDocument,
    WorkbookCollection,
)
from repro.errors import CorpusError


def doc(doc_id, deal_id="d1"):
    return TextDocument(doc_id=doc_id, title=doc_id, deal_id=deal_id,
                        sections=(("", f"content of {doc_id}"),))


class TestWorkbook:
    def test_add_and_get(self):
        workbook = EngagementWorkbook("d1", documents=[doc("a"), doc("b")])
        assert len(workbook) == 2
        assert workbook.get("a").doc_id == "a"

    def test_deal_mismatch_rejected(self):
        workbook = EngagementWorkbook("d1")
        with pytest.raises(CorpusError):
            workbook.add(doc("x", deal_id="other"))

    def test_duplicate_rejected(self):
        workbook = EngagementWorkbook("d1", documents=[doc("a")])
        with pytest.raises(CorpusError):
            workbook.add(doc("a"))

    def test_missing_lookup(self):
        with pytest.raises(CorpusError):
            EngagementWorkbook("d1").get("zz")

    def test_documents_filtered_by_type(self):
        workbook = EngagementWorkbook("d1", documents=[doc("a")])
        assert len(workbook.documents("text")) == 1
        assert workbook.documents("presentation") == []

    def test_iter_documents_renders(self):
        workbook = EngagementWorkbook("d1", documents=[doc("a")])
        rendered = list(workbook.iter_documents())
        assert rendered[0].metadata["deal_id"] == "d1"
        assert "content of a" in rendered[0].fields["body"]

    def test_empty_deal_id_rejected(self):
        with pytest.raises(CorpusError):
            EngagementWorkbook("")


class TestCollection:
    def test_add_and_lookup(self):
        collection = WorkbookCollection(
            [EngagementWorkbook("d1"), EngagementWorkbook("d2")]
        )
        assert collection.deal_ids == ["d1", "d2"]
        assert "d2" in collection
        assert [w.deal_id for w in collection] == ["d1", "d2"]

    def test_duplicate_deal_rejected(self):
        collection = WorkbookCollection([EngagementWorkbook("d1")])
        with pytest.raises(CorpusError):
            collection.add(EngagementWorkbook("d1"))

    def test_missing_workbook(self):
        assert "nope" not in WorkbookCollection()

    def test_counts_and_iteration(self):
        collection = WorkbookCollection(
            [
                EngagementWorkbook("d1", documents=[doc("a")]),
                EngagementWorkbook("d2", documents=[doc("b", "d2"),
                                                    doc("c", "d2")]),
            ]
        )
        assert collection.document_count() == 3
        assert len(collection.all_documents()) == 3
        assert len(list(collection.iter_documents())) == 3
        assert [w.deal_id for w in collection] == ["d1", "d2"]
