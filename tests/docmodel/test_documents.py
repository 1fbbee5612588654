"""Unit tests for the enterprise document model."""

import pytest

from repro.docmodel import (
    EmailMessage,
    FormDocument,
    Presentation,
    Sheet,
    Slide,
    Spreadsheet,
    TextDocument,
)
from repro.errors import CorpusError


class TestValidation:
    def test_doc_id_required(self):
        with pytest.raises(CorpusError):
            TextDocument(doc_id="", title="t", deal_id="d1")

    def test_deal_id_required(self):
        with pytest.raises(CorpusError):
            TextDocument(doc_id="x", title="t", deal_id="")

    def test_doc_type_forced_by_class(self):
        p = Presentation(doc_id="p", title="t", deal_id="d")
        assert p.doc_type == "presentation"
        assert EmailMessage(doc_id="e", title="t", deal_id="d").doc_type == "email"

    def test_sheet_row_width_checked(self):
        with pytest.raises(CorpusError):
            Sheet("s", ("a", "b"), (("only-one",),))


class TestFormDocument:
    def test_field_value_lookup(self):
        # Schema order kept, and an unfilled field kept as "".
        form = FormDocument(
            doc_id="f", title="t", deal_id="d",
            fields=(("Cross Tower TSA", ""), ("Mainframe TSA", "Jane")),
        )
        assert form.fields == (("Cross Tower TSA", ""),
                               ("Mainframe TSA", "Jane"))
        assert dict(form.fields)["Cross Tower TSA"] == ""

    def test_fields_coerced_to_str(self):
        form = FormDocument(
            doc_id="f", title="t", deal_id="d", fields=(("n", 5),)
        )
        assert form.fields == (("n", "5"),)


class TestImmutability:
    def test_tuples_everywhere(self):
        deck = Presentation(
            doc_id="p", title="t", deal_id="d",
            slides=[Slide("a", bullets=["x"])],
        )
        assert isinstance(deck.slides, tuple)
        assert isinstance(deck.slides[0].bullets, tuple)
        sheet = Spreadsheet(
            doc_id="s", title="t", deal_id="d",
            sheets=(Sheet("s", ("h",), [["v"]]),),
        )
        assert isinstance(sheet.sheets[0].rows[0], tuple)
