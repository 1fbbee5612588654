"""Unit tests for structure-preserving parsing."""

import pytest

from repro.docmodel import (
    DocumentParser,
    EmailMessage,
    EnterpriseDocument,
    FormDocument,
    Presentation,
    Sheet,
    Slide,
    Spreadsheet,
    TextDocument,
)
from repro.errors import CorpusError


@pytest.fixture
def parser():
    return DocumentParser()


class TestPresentationParsing:
    def test_slide_structure_annotated(self, parser):
        deck = Presentation(
            doc_id="p", title="Deck", deal_id="d",
            slides=(
                Slide("Win Strategy", "Pricing", ("Aggressive bid",)),
                Slide("Next Steps"),
            ),
        )
        cas = parser.to_cas(deck)
        titles = cas.select("doc.SlideTitle")
        assert [cas.covered_text(t) for t in titles] == [
            "Win Strategy", "Next Steps",
        ]
        assert titles[0]["slide_index"] == 0
        assert titles[1]["slide_index"] == 1
        subtitle = cas.select("doc.SlideSubtitle")[0]
        assert cas.covered_text(subtitle) == "Pricing"
        bullet = cas.select("doc.Bullet")[0]
        assert cas.covered_text(bullet) == "Aggressive bid"

    def test_metadata_carried(self, parser):
        deck = Presentation(doc_id="p", title="Deck", deal_id="d7",
                            repository="EWB-d7", slides=())
        cas = parser.to_cas(deck)
        assert cas.metadata["deal_id"] == "d7"
        assert cas.metadata["doc_type"] == "presentation"


class TestSpreadsheetParsing:
    def test_cells_carry_headers(self, parser):
        sheet = Spreadsheet(
            doc_id="s", title="Roster", deal_id="d",
            sheets=(Sheet("Team", ("Name", "Role"),
                          (("Sam White", "CSE"), ("Jane Doe", "TSA"))),),
        )
        cas = parser.to_cas(sheet)
        cells = cas.select("doc.Cell")
        assert len(cells) == 4
        by_content = {cas.covered_text(c): c for c in cells}
        assert by_content["Sam White"]["header"] == "Name"
        assert by_content["CSE"]["header"] == "Role"
        assert by_content["Jane Doe"]["row"] == 1

    def test_headers_annotated(self, parser):
        sheet = Spreadsheet(
            doc_id="s", title="t", deal_id="d",
            sheets=(Sheet("Team", ("Name",), ()),),
        )
        cas = parser.to_cas(sheet)
        header = cas.select("doc.SheetHeader")[0]
        assert cas.covered_text(header) == "Name"
        assert header["col"] == 0


class TestEmailParsing:
    def test_headers_annotated(self, parser):
        email = EmailMessage(
            doc_id="e", title="t", deal_id="d",
            sender="sam.white@abc.com",
            recipients=("list@corp.com",),
            subject="Need EUS references",
            body="Anyone worked a CSC deal recently?",
        )
        cas = parser.to_cas(email)
        kinds = {h["kind"]: cas.covered_text(h)
                 for h in cas.select("doc.EmailHeader")}
        assert kinds["from"] == "sam.white@abc.com"
        assert kinds["subject"] == "Need EUS references"
        assert "CSC deal" in cas.text


class TestFormParsing:
    def test_empty_fields_flagged(self, parser):
        form = FormDocument(
            doc_id="f", title="t", deal_id="d", form_name="Service Details",
            fields=(("Cross Tower TSA", ""), ("Mainframe TSA", "Jane Doe")),
        )
        cas = parser.to_cas(form)
        fields = {a["name"]: a for a in cas.select("doc.FormField")}
        assert fields["Cross Tower TSA"]["is_empty"] is True
        assert fields["Mainframe TSA"]["is_empty"] is False
        # Crucially, the *text* still contains the empty field's name —
        # this is what fools keyword search in Meta-query 3.
        assert "Cross Tower TSA" in cas.text


class TestTextParsing:
    def test_sections(self, parser):
        doc = TextDocument(
            doc_id="t", title="Minutes", deal_id="d",
            sections=(("Overview", "We met the client."),
                      ("Risks", "Timeline is tight.")),
        )
        cas = parser.to_cas(doc)
        sections = cas.select("doc.Section")
        assert [s["heading"] for s in sections] == ["Overview", "Risks"]
        assert cas.covered_text(sections[1]) == "Timeline is tight."


class TestIndexableRendering:
    def test_fields_and_metadata(self, parser):
        deck = Presentation(
            doc_id="p", title="Deck", deal_id="d",
            slides=(Slide("Win Strategy"),),
        )
        indexable = parser.to_indexable(deck)
        assert indexable.doc_id == "p"
        assert indexable.fields["title"] == "Deck"
        assert "Win Strategy" in indexable.fields["body"]
        assert indexable.metadata["deal_id"] == "d"


_ONE_OF_EACH_GENRE = [
    Presentation(
        doc_id="p", title="Deck", deal_id="d", repository="EWB-d",
        author="sam", slides=(
            Slide("Win Strategy", "Pricing", ("Aggressive bid", "")),
            Slide("Next Steps"),
        ),
    ),
    Spreadsheet(
        doc_id="s", title="Roster", deal_id="d",
        sheets=(Sheet("Team", ("Name", "Role"),
                      (("Sam White", "CSE"), ("Jane Doe", ""))),
                Sheet("Empty", (), ())),
    ),
    EmailMessage(
        doc_id="e", title="Re: EUS", deal_id="d",
        sender="sam.white@abc.com", recipients=("a@corp.com", "b@corp.com"),
        subject="Need EUS references", body="Anyone worked a CSC deal?\n",
    ),
    FormDocument(
        doc_id="f", title="Details", deal_id="d", form_name="Service Details",
        fields=(("Cross Tower TSA", ""), ("Mainframe TSA", "Jane Doe")),
    ),
    TextDocument(
        doc_id="t", title="Minutes", deal_id="d",
        sections=(("Overview", "We met the client."), ("", "No heading.")),
    ),
]


class TestOneRendering:
    """``to_indexable`` and ``to_cas`` read one rendering: the index and
    the annotators must see the same text and metadata."""

    @pytest.mark.parametrize(
        "document", _ONE_OF_EACH_GENRE, ids=lambda d: d.doc_type
    )
    def test_same_text_and_metadata(self, parser, document):
        cas = parser.to_cas(document)
        indexable = parser.to_indexable(document)
        assert indexable.fields == {"title": document.title,
                                    "body": cas.text}
        assert indexable.metadata == cas.metadata
        assert indexable.doc_id == document.doc_id
        assert len(cas) > 0  # and only the CAS carries the structure

    def test_unknown_class_rejected_by_both(self, parser):
        stranger = EnterpriseDocument(doc_id="x", title="t", deal_id="d")
        with pytest.raises(CorpusError, match="EnterpriseDocument"):
            parser.to_cas(stranger)
        with pytest.raises(CorpusError, match="EnterpriseDocument"):
            parser.to_indexable(stranger)
