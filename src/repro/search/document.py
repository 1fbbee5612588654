"""Indexable document model for the full-text engine.

A document is a set of named text fields (``title``, ``body``, ...) plus
opaque metadata the engine stores but does not interpret — EIL uses the
metadata to carry the owning business activity (``deal_id``), document
type and repository, which the scoped SIAPI search reads back from the
index.  A hit carries the fields it shows, never the metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import SearchError

__all__ = ["IndexableDocument", "SearchHit"]


@dataclass(frozen=True)
class IndexableDocument:
    """One unit of indexing.

    Attributes:
        doc_id: Unique identifier within the engine.
        fields: Field name -> text content.
        metadata: Application data carried through to hits unchanged.
    """

    doc_id: str
    fields: Mapping[str, str]
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise SearchError("doc_id must be non-empty")
        if not self.fields:
            raise SearchError(f"document {self.doc_id!r} has no fields")
        for name, text in self.fields.items():
            if not isinstance(text, str):
                raise SearchError(
                    f"field {name!r} of {self.doc_id!r} is not text"
                )
        # Freeze the mappings so documents are safely shareable.
        object.__setattr__(self, "fields", dict(self.fields))
        object.__setattr__(self, "metadata", dict(self.metadata))

    @property
    def text(self) -> str:
        """All field text concatenated (used for snippets)."""
        return "\n".join(self.fields.values())


@dataclass(frozen=True)
class SearchHit:
    """One scored result.

    Attributes:
        doc_id: The matching document's id.
        score: Relevance score (higher is better).
        fields: The stored document's fields (name -> text), a
            read-only view; its metadata is read through the index.
        snippet: A short extract around the first match, if computed.
    """

    doc_id: str
    score: float
    fields: Mapping[str, str]
    snippet: str = ""
