"""Enterprise document model: the content of engagement workbooks.

The paper's corpus mixes document genres, and EIL's annotators exploit
each genre's structure (Section 3.3): PowerPoint titles carry the key
point, team rosters live in spreadsheet rows, service-detail forms have
schema fields that are often *empty* (the ``cross tower TSA`` problem in
Meta-query 3).  The model therefore keeps structure explicit instead of
flattening to text at load time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import CorpusError

__all__ = [
    "EnterpriseDocument",
    "Slide",
    "Presentation",
    "Sheet",
    "Spreadsheet",
    "EmailMessage",
    "FormDocument",
    "TextDocument",
]


@dataclass(frozen=True)
class EnterpriseDocument:
    """Common identity and provenance of every workbook document.

    Attributes:
        doc_id: Globally unique id.
        title: Display title.
        deal_id: Owning business activity (engagement).
        repository: The workbook/repository the document lives in.
        doc_type: Genre tag (``presentation``, ``spreadsheet``, ...).
        author: Author's display name (may be empty — workbooks are
            inconsistently maintained, which the annotators must survive).
    """

    doc_id: str
    title: str
    deal_id: str
    repository: str = ""
    doc_type: str = "document"
    author: str = ""

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise CorpusError("document needs a doc_id")
        if not self.deal_id:
            raise CorpusError(f"document {self.doc_id!r} needs a deal_id")


@dataclass(frozen=True)
class Slide:
    """One presentation slide."""

    title: str
    subtitle: str = ""
    bullets: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "bullets", tuple(self.bullets))


@dataclass(frozen=True)
class Presentation(EnterpriseDocument):
    """A PowerPoint-like deck."""

    slides: Tuple[Slide, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "slides", tuple(self.slides))
        object.__setattr__(self, "doc_type", "presentation")


@dataclass(frozen=True)
class Sheet:
    """One spreadsheet tab: a header row plus data rows."""

    name: str
    headers: Tuple[str, ...]
    rows: Tuple[Tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "headers", tuple(self.headers))
        object.__setattr__(
            self, "rows", tuple(tuple(row) for row in self.rows)
        )
        for row in self.rows:
            if len(row) != len(self.headers):
                raise CorpusError(
                    f"sheet {self.name!r}: row width {len(row)} != "
                    f"{len(self.headers)} headers"
                )


@dataclass(frozen=True)
class Spreadsheet(EnterpriseDocument):
    """An Excel-like workbook of sheets."""

    sheets: Tuple[Sheet, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "sheets", tuple(self.sheets))
        object.__setattr__(self, "doc_type", "spreadsheet")


@dataclass(frozen=True)
class EmailMessage(EnterpriseDocument):
    """An email kept in the workbook (or a distribution-list thread)."""

    sender: str = ""
    recipients: Tuple[str, ...] = ()
    subject: str = ""
    body: str = ""
    thread_id: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "recipients", tuple(self.recipients))
        object.__setattr__(self, "doc_type", "email")


@dataclass(frozen=True)
class FormDocument(EnterpriseDocument):
    """A semi-structured application record with a fixed field schema.

    ``fields`` preserves schema order; values may be empty strings —
    the form *schema* mentions e.g. ``Cross Tower TSA`` even when nobody
    filled it in, which is exactly what misleads keyword search in the
    paper's Meta-query 3.
    """

    form_name: str = ""
    fields: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(
            self, "fields", tuple((str(k), str(v)) for k, v in self.fields)
        )
        object.__setattr__(self, "doc_type", "form")


@dataclass(frozen=True)
class TextDocument(EnterpriseDocument):
    """Free text (meeting minutes, proposals, strategy write-ups)."""

    sections: Tuple[Tuple[str, str], ...] = ()  # (heading, body) pairs

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(
            self,
            "sections",
            tuple((str(h), str(b)) for h, b in self.sections),
        )
        object.__setattr__(self, "doc_type", "text")
