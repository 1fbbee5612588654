"""Annotation type system (the UIMA substitute's type registry).

Annotators declare the annotation types they produce — name, allowed
feature slots, optional supertype — and the CAS validates every
annotation against this registry, so a typo in a feature name fails
loudly at annotation time instead of silently producing empty synopsis
fields downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Set

from repro.errors import TypeSystemError

__all__ = ["AnnotationType", "TypeSystem"]


@dataclass(frozen=True)
class AnnotationType:
    """One annotation type.

    Attributes:
        name: Dotted type name, e.g. ``eil.Person``.
        features: Feature slots annotations of this type may carry.
        supertype: Optional parent type name; ``select`` on a parent
            also returns annotations of its subtypes, and feature slots
            are inherited.
    """

    name: str
    features: FrozenSet[str] = frozenset()
    supertype: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise TypeSystemError("annotation type name must be non-empty")
        object.__setattr__(self, "features", frozenset(self.features))


class TypeSystem:
    """Registry of annotation types with inheritance."""

    def __init__(self) -> None:
        self._types: Dict[str, AnnotationType] = {}
        # Closures per type name.  Each is a function of ``_types``
        # alone, and ``define`` is the only writer, so it drops both.
        self._features: Dict[str, FrozenSet[str]] = {}
        self._subtypes: Dict[str, FrozenSet[str]] = {}

    def define(
        self,
        name: str,
        features: Iterable[str] = (),
        supertype: Optional[str] = None,
    ) -> AnnotationType:
        """Register a type; re-defining an existing name raises."""
        if name in self._types:
            raise TypeSystemError(f"type {name!r} already defined")
        if supertype is not None and supertype not in self._types:
            raise TypeSystemError(
                f"supertype {supertype!r} of {name!r} is not defined"
            )
        annotation_type = AnnotationType(name, frozenset(features), supertype)
        self._types[name] = annotation_type
        self._features.clear()
        self._subtypes.clear()
        return annotation_type

    def get(self, name: str) -> AnnotationType:
        """Look up a type by name."""
        annotation_type = self._types.get(name)
        if annotation_type is None:
            raise TypeSystemError(f"unknown annotation type {name!r}")
        return annotation_type

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def all_features(self, name: str) -> FrozenSet[str]:
        """Feature slots of ``name`` including inherited ones."""
        cached = self._features.get(name)
        if cached is not None:
            return cached
        features: Set[str] = set()
        current: Optional[str] = name
        seen: Set[str] = set()
        while current is not None:
            if current in seen:  # defensive: cycles cannot normally occur
                raise TypeSystemError(f"supertype cycle at {current!r}")
            seen.add(current)
            annotation_type = self.get(current)
            features |= annotation_type.features
            current = annotation_type.supertype
        cached = self._features[name] = frozenset(features)
        return cached

    def is_subtype(self, name: str, ancestor: str) -> bool:
        """True if ``name`` is ``ancestor`` or inherits from it."""
        current: Optional[str] = name
        while current is not None:
            if current == ancestor:
                return True
            current = self.get(current).supertype
        return False

    def subtypes_of(self, ancestor: str) -> Set[str]:
        """All type names that are ``ancestor`` or inherit from it.

        The caller gets a set of its own.
        """
        cached = self._subtypes.get(ancestor)
        if cached is None:
            self.get(ancestor)  # raise early on unknown ancestor
            cached = self._subtypes[ancestor] = frozenset(
                name for name in self._types
                if self.is_subtype(name, ancestor)
            )
        return set(cached)
