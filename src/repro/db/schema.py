"""Table schemas: columns, constraints, row validation.

A :class:`TableSchema` owns column definitions and the table-level
constraints (primary key, unique sets, foreign keys).  Row validation —
type coercion, NOT NULL and defaults — happens here so the storage layer
(`repro.db.table`) only ever sees well-formed tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.db.types import DataType, coerce
from repro.errors import IntegrityError, SchemaError

__all__ = ["Column", "ForeignKey", "TableSchema"]

_IDENT_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789_")


def _check_identifier(name: str, kind: str) -> str:
    if not name:
        raise SchemaError(f"{kind} name must be non-empty")
    lowered = name.lower()
    if lowered[0].isdigit() or not set(lowered) <= _IDENT_CHARS:
        raise SchemaError(f"invalid {kind} name {name!r}")
    return lowered


@dataclass(frozen=True)
class Column:
    """A single column definition.

    Attributes:
        name: Column identifier (case-insensitive, stored lower-case).
        dtype: Declared :class:`DataType`.
        nullable: Whether NULL is allowed (primary-key columns never are).
        default: Value used when an insert omits the column.
    """

    name: str
    dtype: DataType
    nullable: bool = True
    default: Any = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", _check_identifier(self.name, "column"))
        if self.default is not None:
            object.__setattr__(
                self, "default", coerce(self.default, self.dtype, self.name)
            )


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key constraint: ``columns`` reference ``parent_table``.

    The referenced columns must form the parent's primary key.
    """

    columns: Tuple[str, ...]
    parent_table: str
    parent_columns: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.parent_columns):
            raise SchemaError("foreign key column count mismatch")
        if not self.columns:
            raise SchemaError("foreign key needs at least one column")


class TableSchema:
    """Schema for one table.

    Args:
        name: Table name.
        columns: Ordered column definitions.
        primary_key: Column names forming the primary key (optional).
        unique: Additional unique constraints, each a sequence of columns.
        foreign_keys: Foreign-key constraints.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Sequence[str] = (),
        unique: Sequence[Sequence[str]] = (),
        foreign_keys: Sequence[ForeignKey] = (),
    ) -> None:
        self.name = _check_identifier(name, "table")
        if not columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._positions: Dict[str, int] = {}
        for position, column in enumerate(self.columns):
            if column.name in self._positions:
                raise SchemaError(
                    f"duplicate column {column.name!r} in table {name!r}"
                )
            self._positions[column.name] = position

        self.primary_key: Tuple[str, ...] = tuple(
            self._require_column(c) for c in primary_key
        )
        if len(set(self.primary_key)) != len(self.primary_key):
            raise SchemaError("duplicate column in primary key")
        self.unique: Tuple[Tuple[str, ...], ...] = tuple(
            tuple(self._require_column(c) for c in constraint)
            for constraint in unique
        )
        self.foreign_keys: Tuple[ForeignKey, ...] = tuple(foreign_keys)
        for fk in self.foreign_keys:
            for column in fk.columns:
                self._require_column(column)

        # Primary-key columns are implicitly NOT NULL.
        if self.primary_key:
            replaced = []
            for column in self.columns:
                if column.name in self.primary_key and column.nullable:
                    replaced.append(
                        Column(column.name, column.dtype, False, column.default)
                    )
                else:
                    replaced.append(column)
            self.columns = tuple(replaced)

    # ------------------------------------------------------------------

    def _require_column(self, name: str) -> str:
        lowered = name.lower()
        if lowered not in self._positions:
            raise SchemaError(
                f"unknown column {name!r} in table {self.name!r}"
            )
        return lowered

    @property
    def column_names(self) -> List[str]:
        """Ordered column names."""
        return [c.name for c in self.columns]

    def has_column(self, name: str) -> bool:
        """True if a column named ``name`` exists (case-insensitive)."""
        return name.lower() in self._positions

    def position(self, name: str) -> int:
        """Ordinal of column ``name``; raises SchemaError if unknown."""
        return self._positions[self._require_column(name)]

    def column(self, name: str) -> Column:
        """The :class:`Column` named ``name``."""
        return self.columns[self.position(name)]

    # ------------------------------------------------------------------

    def validate_row(self, values: Mapping[str, Any]) -> Tuple[Any, ...]:
        """Build a storage tuple from a column->value mapping.

        Applies defaults, type coercion and NOT NULL checks.  Unknown
        keys raise IntegrityError so typos never silently drop data.
        """
        unknown = [k for k in values if not self.has_column(k)]
        if unknown:
            raise IntegrityError(
                f"unknown column(s) {unknown!r} for table {self.name!r}"
            )
        normalized = {k.lower(): v for k, v in values.items()}
        row = []
        for column in self.columns:
            value = normalized.get(column.name, column.default)
            value = coerce(value, column.dtype, column.name)
            if value is None and not column.nullable:
                raise IntegrityError(
                    f"column {column.name!r} of table {self.name!r} "
                    "is NOT NULL"
                )
            row.append(value)
        return tuple(row)

    def key_of(self, row: Sequence[Any], columns: Sequence[str]) -> Tuple:
        """Extract the tuple of ``columns`` values from a storage row."""
        return tuple(row[self.position(c)] for c in columns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(f"{c.name} {c.dtype}" for c in self.columns)
        return f"TableSchema({self.name}: {cols})"
