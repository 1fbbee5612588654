"""Heap table storage with automatic index maintenance.

Rows are stored as immutable tuples keyed by a monotonically increasing
row id.  A row enters through :meth:`Table.insert_row` and leaves
through :meth:`Table.delete`; nothing changes a stored row in place.
All constraint checks (primary key, unique, NOT NULL via the schema)
happen *before* a row is stored, so a failed insert leaves the table
unchanged.  Every mutation is reported to the owning database's undo
log through the ``journal`` hook: the database replays it to undo a
DELETE that fails on a later row, and to roll back a transaction.
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

from repro.db.index import Index
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
            self.create_index(
                f"pk_{schema.name}", schema.primary_key, unique=True
            )
        for position, constraint in enumerate(schema.unique):
            self.create_index(
                f"uq_{schema.name}_{position}", constraint, unique=True
            )

    # -- index management -------------------------------------------------

    def create_index(
        self,
        name: str,
        columns: Tuple[str, ...],
        unique: bool = False,
    ) -> Index:
        """Create an index over ``columns``, filled from the rows held."""
        if name in self._indexes:
            raise SchemaError(f"index {name!r} already exists")
        for column in columns:
            self.schema.position(column)  # raises on unknown column
        index = Index(name, columns, unique)
        for rowid, row in self._rows.items():
            index.insert(self.schema.key_of(row, columns), rowid)
        self._indexes[name] = index
        if self._on_ddl is not None:
            self._on_ddl()
        return index

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

    def insert_row(self, row: Tuple[Any, ...]) -> int:
        """Store ``row``, a tuple :meth:`TableSchema.validate_row` made;
        returns its row id."""
        self._check_unique(row)
        rowid = self._next_rowid
        self._next_rowid += 1
        self._apply_insert(rowid, row)
        if self._journal is not None:
            self._journal(self.schema.name, "insert", rowid, None, row)
        return rowid

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

    # -- internals ----------------------------------------------------------

    def _check_unique(self, row: Tuple[Any, ...]) -> None:
        for index in self._indexes.values():
            if not index.unique:
                continue
            key = self.schema.key_of(row, index.columns)
            if index.would_violate(key):
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
