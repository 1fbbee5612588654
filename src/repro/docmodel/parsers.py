"""Structure-preserving parsers: documents -> CAS / indexable form.

Paper Section 3.3 ("Custom Parsing"): *"It is important to preserve the
structure of documents during the parsing phase so that our annotators
can make use of it in the phase of information analysis."*  The parser
renders each document genre to flat text — what the keyword index and
the annotators read — while emitting structure annotations (slide
titles, sheet cells with their column headers, form fields with an
``is_empty`` flag) that point back into that text.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.docmodel.documents import (
    EmailMessage,
    EnterpriseDocument,
    FormDocument,
    Presentation,
    Spreadsheet,
    TextDocument,
)
from repro.errors import CorpusError
from repro.search.document import IndexableDocument
from repro.uima.cas import Cas
from repro.uima.typesystem import TypeSystem

__all__ = [
    "register_structure_types",
    "DocumentParser",
    "STRUCTURE_TYPE_NAMES",
]

STRUCTURE_TYPE_NAMES = (
    "doc.SlideTitle",
    "doc.SlideSubtitle",
    "doc.Bullet",
    "doc.SheetHeader",
    "doc.Cell",
    "doc.FormField",
    "doc.EmailHeader",
    "doc.Section",
)


def register_structure_types(type_system: TypeSystem) -> TypeSystem:
    """Register the structural annotation types (idempotent)."""
    definitions = {
        "doc.SlideTitle": ["slide_index"],
        "doc.SlideSubtitle": ["slide_index"],
        "doc.Bullet": ["slide_index"],
        "doc.SheetHeader": ["sheet", "col"],
        "doc.Cell": ["sheet", "row", "col", "header"],
        "doc.FormField": ["name", "is_empty"],
        "doc.EmailHeader": ["kind"],
        "doc.Section": ["heading"],
    }
    for name, features in definitions.items():
        if name not in type_system:
            type_system.define(name, features)
    return type_system


# (type name, begin, end, features) of a structure annotation.
_Pending = Tuple[str, int, int, Dict[str, Any]]


class _TextBuilder:
    """Accumulates rendered text while tracking spans."""

    def __init__(self) -> None:
        self._parts: List[str] = []
        self._length = 0

    def add(self, text: str) -> Tuple[int, int]:
        """Append ``text``; returns its (begin, end) span."""
        begin = self._length
        self._parts.append(text)
        self._length += len(text)
        return begin, self._length

    def newline(self) -> None:
        self.add("\n")

    @property
    def text(self) -> str:
        return "".join(self._parts)


class DocumentParser:
    """Renders enterprise documents to CAS and indexable form."""

    def __init__(self, type_system: Optional[TypeSystem] = None) -> None:
        self.type_system = register_structure_types(
            type_system or TypeSystem()
        )

    # -- the one rendering -----------------------------------------------

    def _render(
        self, document: EnterpriseDocument
    ) -> Tuple[str, List[_Pending], Dict[str, Any]]:
        """Flat text, structure annotations still to attach, metadata."""
        builder = _TextBuilder()
        pending: List[_Pending] = []

        if isinstance(document, Presentation):
            self._render_presentation(document, builder, pending)
        elif isinstance(document, Spreadsheet):
            self._render_spreadsheet(document, builder, pending)
        elif isinstance(document, EmailMessage):
            self._render_email(document, builder, pending)
        elif isinstance(document, FormDocument):
            self._render_form(document, builder, pending)
        elif isinstance(document, TextDocument):
            self._render_text(document, builder, pending)
        else:
            raise CorpusError(
                f"unknown document class {type(document).__name__}"
            )

        metadata = {
            "doc_id": document.doc_id,
            "title": document.title,
            "deal_id": document.deal_id,
            "repository": document.repository,
            "doc_type": document.doc_type,
            "author": document.author,
        }
        return builder.text, pending, metadata

    # -- CAS ------------------------------------------------------------

    def to_cas(self, document: EnterpriseDocument) -> Cas:
        """Render ``document`` with structure annotations attached."""
        text, pending, metadata = self._render(document)
        cas = Cas(text, self.type_system, metadata=metadata)
        for type_name, begin, end, features in pending:
            cas.annotate(type_name, begin, end, **features)
        return cas

    # -- indexable -----------------------------------------------------------

    def to_indexable(self, document: EnterpriseDocument) -> IndexableDocument:
        """Render ``document`` for the keyword index.

        The body is the same flat rendering the CAS uses — the keyword
        baseline deliberately sees forms "as a blob of text", empty
        schema fields included, reproducing the paper's noise source.
        The index has no use for the structure annotations, so none is
        attached or validated here.
        """
        text, _, metadata = self._render(document)
        return IndexableDocument(
            doc_id=document.doc_id,
            fields={"title": document.title, "body": text},
            metadata=metadata,
        )

    # -- per-genre renderers --------------------------------------------------

    def _render_presentation(self, document, builder, pending) -> None:
        for index, slide in enumerate(document.slides):
            begin, end = builder.add(slide.title)
            pending.append(("doc.SlideTitle", begin, end,
                            {"slide_index": index}))
            builder.newline()
            if slide.subtitle:
                begin, end = builder.add(slide.subtitle)
                pending.append(("doc.SlideSubtitle", begin, end,
                                {"slide_index": index}))
                builder.newline()
            for bullet in slide.bullets:
                begin, end = builder.add(bullet)
                pending.append(("doc.Bullet", begin, end,
                                {"slide_index": index}))
                builder.newline()
            builder.newline()

    def _render_spreadsheet(self, document, builder, pending) -> None:
        for sheet in document.sheets:
            builder.add(sheet.name)
            builder.newline()
            for col, header in enumerate(sheet.headers):
                begin, end = builder.add(header)
                pending.append(("doc.SheetHeader", begin, end,
                                {"sheet": sheet.name, "col": col}))
                builder.add("\t")
            builder.newline()
            for row_index, row in enumerate(sheet.rows):
                for col, value in enumerate(row):
                    begin, end = builder.add(value)
                    pending.append(
                        ("doc.Cell", begin, end,
                         {"sheet": sheet.name, "row": row_index,
                          "col": col, "header": sheet.headers[col]})
                    )
                    builder.add("\t")
                builder.newline()
            builder.newline()

    def _render_email(self, document, builder, pending) -> None:
        for kind, value in (
            ("from", document.sender),
            ("to", ", ".join(document.recipients)),
            ("subject", document.subject),
        ):
            builder.add(f"{kind.capitalize()}: ")
            begin, end = builder.add(value)
            pending.append(("doc.EmailHeader", begin, end, {"kind": kind}))
            builder.newline()
        builder.newline()
        builder.add(document.body)

    def _render_form(self, document, builder, pending) -> None:
        builder.add(document.form_name)
        builder.newline()
        for name, value in document.fields:
            field_begin, _ = builder.add(name)
            builder.add(": ")
            _, field_end = builder.add(value)
            pending.append(
                ("doc.FormField", field_begin, field_end,
                 {"name": name, "is_empty": not value.strip()})
            )
            builder.newline()

    def _render_text(self, document, builder, pending) -> None:
        for heading, body in document.sections:
            if heading:
                builder.add(heading)
                builder.newline()
            begin, end = builder.add(body)
            pending.append(("doc.Section", begin, end, {"heading": heading}))
            builder.newline()
            builder.newline()
