"""Heap table storage with automatic index maintenance.

Rows are stored as immutable tuples keyed by a monotonically increasing
row id.  All constraint checks (primary key, unique, NOT NULL via the
schema) happen *before* a row is changed, so a failed row change leaves
the table unchanged.  Every mutation is reported to the owning
database's undo log through the ``journal`` hook: the database replays
it to undo a SQL statement that fails on a later row, and to roll back
a transaction.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    Mapping,
    Optional,
    Tuple,
)

from repro.db.index import HashIndex, Index, SortedIndex
from repro.db.schema import TableSchema
from repro.errors import IntegrityError, ProgrammingError, SchemaError

__all__ = ["Table"]

# journal callback: (table_name, op, rowid, old_row_or_None, new_row_or_None)
JournalHook = Callable[[str, str, int, Optional[tuple], Optional[tuple]], None]


class Table:
    """One heap table plus its indexes.

    Args:
        schema: The validated :class:`TableSchema`.
        journal: Optional hook invoked after each successful mutation,
            used by :class:`repro.db.database.Database` for rollback.
        on_ddl: Optional hook invoked after every index creation, used
            by the database to bump its DDL epoch so cached statement
            plans re-plan against the new access paths.  This fires
            even when callers create indexes directly on the table
            (e.g. the intranet directory), not just via SQL DDL.
    """

    def __init__(
        self,
        schema: TableSchema,
        journal: Optional[JournalHook] = None,
        on_ddl: Optional[Callable[[], None]] = None,
    ) -> None:
        self.schema = schema
        self._rows: Dict[int, Tuple[Any, ...]] = {}
        self._next_rowid = 1
        self._indexes: Dict[str, Index] = {}
        self._journal = journal
        self._on_ddl = on_ddl
        if schema.primary_key:
            self._create_index(
                f"pk_{schema.name}", schema.primary_key, unique=True, sorted_=True
            )
        for position, constraint in enumerate(schema.unique):
            self._create_index(
                f"uq_{schema.name}_{position}", constraint, unique=True,
                sorted_=False,
            )

    # -- index management -------------------------------------------------

    def _create_index(
        self,
        name: str,
        columns: Tuple[str, ...],
        unique: bool,
        sorted_: bool,
    ) -> Index:
        if name in self._indexes:
            raise SchemaError(f"index {name!r} already exists")
        for column in columns:
            self.schema.position(column)  # raises on unknown column
        index: Index
        if sorted_:
            index = SortedIndex(name, columns, unique)
        else:
            index = HashIndex(name, columns, unique)
        for rowid, row in self._rows.items():
            index.insert(self.schema.key_of(row, columns), rowid)
        self._indexes[name] = index
        if self._on_ddl is not None:
            self._on_ddl()
        return index

    def create_index(
        self,
        name: str,
        columns: Tuple[str, ...],
        unique: bool = False,
        sorted_: bool = True,
    ) -> Index:
        """Create a secondary index over ``columns``.

        Sorted indexes additionally support range scans; hash indexes
        are marginally faster for pure equality.
        """
        return self._create_index(name, columns, unique, sorted_)

    def index_on(self, columns: Tuple[str, ...]) -> Optional[Index]:
        """Return an index whose key is exactly ``columns``, if any."""
        lowered = tuple(c.lower() for c in columns)
        for index in self._indexes.values():
            if index.columns == lowered:
                return index
        return None

    @property
    def indexes(self) -> Mapping[str, Index]:
        """Read-only view of indexes by name."""
        return dict(self._indexes)

    # -- mutation -----------------------------------------------------------

    def insert(self, values: Mapping[str, Any]) -> int:
        """Insert one row; returns its row id."""
        return self.insert_row(self.schema.validate_row(values))

    def insert_row(self, row: Tuple[Any, ...]) -> int:
        """Store ``row``, a tuple :meth:`TableSchema.validate_row` made."""
        self._check_unique(row, ignore_rowid=None)
        rowid = self._next_rowid
        self._next_rowid += 1
        self._apply_insert(rowid, row)
        if self._journal is not None:
            self._journal(self.schema.name, "insert", rowid, None, row)
        return rowid

    def update(
        self,
        rowid: int,
        changes: Mapping[str, Any],
    ) -> Tuple[Any, ...]:
        """Apply ``changes`` to the row at ``rowid``; returns new tuple."""
        old_row = self.row(rowid)
        for column in changes:
            if not self.schema.has_column(column):
                raise IntegrityError(
                    f"unknown column {column!r} in UPDATE of "
                    f"{self.schema.name!r}"
                )
        return self.replace_row(
            rowid, self.schema.updated_row(old_row, changes)
        )

    def replace_row(
        self, rowid: int, new_row: Tuple[Any, ...]
    ) -> Tuple[Any, ...]:
        """Store ``new_row``, a tuple :meth:`TableSchema.updated_row`
        made, at ``rowid``; returns it."""
        old_row = self.row(rowid)
        self._check_unique(new_row, ignore_rowid=rowid)
        self._apply_delete(rowid, old_row)
        self._apply_insert(rowid, new_row)
        if self._journal is not None:
            self._journal(self.schema.name, "update", rowid, old_row, new_row)
        return new_row

    def delete(self, rowid: int) -> Tuple[Any, ...]:
        """Delete the row at ``rowid``; returns the removed tuple."""
        old_row = self._rows.get(rowid)
        if old_row is None:
            raise ProgrammingError(f"no row {rowid} in {self.schema.name!r}")
        self._apply_delete(rowid, old_row)
        if self._journal is not None:
            self._journal(self.schema.name, "delete", rowid, old_row, None)
        return old_row

    # -- undo support (used by Database.rollback, bypasses journal) -------

    def undo_insert(self, rowid: int) -> None:
        """Reverse a journaled insert."""
        row = self._rows[rowid]
        self._apply_delete(rowid, row)

    def undo_delete(self, rowid: int, row: Tuple[Any, ...]) -> None:
        """Reverse a journaled delete."""
        self._apply_insert(rowid, row)

    def undo_update(self, rowid: int, old_row: Tuple[Any, ...]) -> None:
        """Reverse a journaled update."""
        current = self._rows[rowid]
        self._apply_delete(rowid, current)
        self._apply_insert(rowid, old_row)

    # -- internals ----------------------------------------------------------

    def _check_unique(
        self, row: Tuple[Any, ...], ignore_rowid: Optional[int]
    ) -> None:
        for index in self._indexes.values():
            if not index.unique:
                continue
            key = self.schema.key_of(row, index.columns)
            if index.would_violate(key, ignore_rowid):
                constraint = (
                    "PRIMARY KEY"
                    if index.columns == self.schema.primary_key
                    else f"UNIQUE({', '.join(index.columns)})"
                )
                raise IntegrityError(
                    f"{constraint} violated in table "
                    f"{self.schema.name!r}: {key!r}"
                )

    def _apply_insert(self, rowid: int, row: Tuple[Any, ...]) -> None:
        self._rows[rowid] = row
        for index in self._indexes.values():
            index.insert(self.schema.key_of(row, index.columns), rowid)

    def _apply_delete(self, rowid: int, row: Tuple[Any, ...]) -> None:
        del self._rows[rowid]
        for index in self._indexes.values():
            index.delete(self.schema.key_of(row, index.columns), rowid)

    # -- read access ----------------------------------------------------------

    def row(self, rowid: int) -> Tuple[Any, ...]:
        """The storage tuple at ``rowid``."""
        try:
            return self._rows[rowid]
        except KeyError:
            raise ProgrammingError(
                f"no row {rowid} in {self.schema.name!r}"
            ) from None

    def scan(self) -> Iterator[Tuple[int, Tuple[Any, ...]]]:
        """Yield (rowid, row) in insertion order."""
        # Sorted by rowid for deterministic full scans.
        for rowid in sorted(self._rows):
            yield rowid, self._rows[rowid]

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.schema.name}, rows={len(self)})"
