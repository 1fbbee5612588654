"""CAS — Common Analysis Structure.

A CAS carries one document's text ("sofa" in UIMA terms), its metadata,
and every annotation produced so far.  Annotators read the text, add
typed annotations with character spans and feature values, and later
stages (other annotators, CPEs) select annotations by type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.errors import TypeSystemError
from repro.uima.typesystem import TypeSystem

__all__ = ["Annotation", "Cas"]


@dataclass(frozen=True)
class Annotation:
    """One typed span with feature values.

    Attributes:
        annotation_id: Unique within its CAS (assigned by the CAS).
        type_name: The annotation's type in the CAS's type system.
        begin: Start offset into the CAS text (inclusive).
        end: End offset (exclusive); ``begin == end`` marks a
            document-level annotation with no specific span.
        features: Feature name -> value.
    """

    annotation_id: int
    type_name: str
    begin: int
    end: int
    features: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", dict(self.features))

    def get(self, feature: str, default: Any = None) -> Any:
        """Feature value, or ``default`` when unset."""
        return self.features.get(feature, default)

    def __getitem__(self, feature: str) -> Any:
        try:
            return self.features[feature]
        except KeyError:
            raise KeyError(
                f"annotation {self.type_name}#{self.annotation_id} has no "
                f"feature {feature!r}"
            ) from None


class Cas:
    """One document's analysis state.

    Args:
        text: The document text annotations index into.
        type_system: The validating type registry.
        metadata: Document metadata (activity id, repository, doc type);
            available to all annotators, stored but never validated.
    """

    def __init__(
        self,
        text: str,
        type_system: TypeSystem,
        metadata: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.text = text
        self.type_system = type_system
        self.metadata: Dict[str, Any] = dict(metadata or {})
        self._annotations: List[Annotation] = []
        self._next_id = 1

    # -- adding annotations ----------------------------------------------

    def annotate(
        self,
        type_name: str,
        begin: int = 0,
        end: int = 0,
        **features: Any,
    ) -> Annotation:
        """Create, validate and store one annotation.

        Raises TypeSystemError on unknown type or feature, ValueError on
        an out-of-bounds span, so annotator bugs surface immediately.
        """
        allowed = self.type_system.all_features(type_name)
        unknown = features.keys() - allowed
        if unknown:
            raise TypeSystemError(
                f"type {type_name!r} has no feature(s) {sorted(unknown)}"
            )
        if not 0 <= begin <= end <= len(self.text):
            raise ValueError(
                f"span [{begin}, {end}) out of bounds for text of length "
                f"{len(self.text)}"
            )
        annotation = Annotation(
            self._next_id, type_name, begin, end, features
        )
        self._next_id += 1
        self._annotations.append(annotation)
        return annotation

    # -- selecting annotations -------------------------------------------

    def select(self, type_name: Optional[str] = None) -> List[Annotation]:
        """Annotations of ``type_name`` (or all), in document order.

        Selection is polymorphic: selecting a supertype returns its
        subtypes' annotations too.
        """
        if type_name is None:
            selected = list(self._annotations)
        else:
            wanted = self.type_system.subtypes_of(type_name)
            selected = [
                a for a in self._annotations if a.type_name in wanted
            ]
        selected.sort(key=lambda a: (a.begin, a.end, a.annotation_id))
        return selected

    def covered_text(self, annotation: Annotation) -> str:
        """The text span an annotation covers."""
        return self.text[annotation.begin:annotation.end]

    # -- serialization -----------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        """A compact, picklable CAS stream.

        The process-sharded CPE ships analyzed CASes from worker
        processes back to the consumers, so serialization is explicit
        API, not an accident of the attribute layout: text, type
        system, metadata, the annotation tuples, and the next
        annotation id (so a round-tripped CAS keeps assigning unique
        ids).
        """
        return {
            "text": self.text,
            "type_system": self.type_system,
            "metadata": self.metadata,
            "annotations": [
                (a.annotation_id, a.type_name, a.begin, a.end, a.features)
                for a in self._annotations
            ],
            "next_id": self._next_id,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.text = state["text"]
        self.type_system = state["type_system"]
        self.metadata = dict(state["metadata"])
        self._annotations = [
            Annotation(annotation_id, type_name, begin, end, features)
            for annotation_id, type_name, begin, end, features
            in state["annotations"]
        ]
        self._next_id = state["next_id"]

    def __iter__(self) -> Iterator[Annotation]:
        return iter(self.select())

    def __len__(self) -> int:
        return len(self._annotations)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cas(text_len={len(self.text)}, "
            f"annotations={len(self._annotations)})"
        )
