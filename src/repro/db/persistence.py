"""Database persistence: JSON snapshot save/load.

The organized information is rebuilt nightly in the paper's deployment,
but the online side must start fast — so the engine supports dumping a
whole :class:`~repro.db.database.Database` (schemas, constraints,
indexes, rows) to a JSON file and restoring it without re-running the
pipeline.  Dates are serialized as ISO strings and restored through the
normal coercion path, so a loaded database is indistinguishable from
the original.

A snapshot is a ``repro-db-snapshot`` document in the checksummed
envelope of :mod:`repro.storage.atomic` whose payload is ``{"tables":
[...]}``, one entry per table in creation order (parents before the
children that reference them); the loader creates tables and inserts
rows in that order.

* :func:`dump_database` writes atomically (temp file + fsync + rename),
  so a crash mid-dump never corrupts the last good snapshot;
* every load failure — unreadable or foreign file, truncated JSON,
  checksum mismatch, another version (older snapshots included),
  malformed structure, a child table listed before its parent — raises
  a typed :class:`~repro.errors.DatabaseError` naming the source, never
  a bare ``KeyError`` or ``JSONDecodeError``.
"""

from __future__ import annotations

import datetime
import pathlib
from typing import Any, Dict, List, Union

from repro.db.database import Database
from repro.db.schema import Column, ForeignKey, TableSchema
from repro.db.types import DataType
from repro.errors import DatabaseError, StorageError
from repro.storage.atomic import (
    atomic_write_text,
    decode_document,
    encode_document,
)

__all__ = ["dump_database", "load_database", "dumps_database",
           "loads_database"]

SNAPSHOT_FORMAT = "repro-db-snapshot"
SNAPSHOT_VERSION = 3


def _encode_value(value: Any) -> Any:
    if isinstance(value, datetime.date):
        return {"__date__": value.isoformat()}
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict) and "__date__" in value:
        return datetime.date.fromisoformat(value["__date__"])
    return value


def dumps_database(db: Database) -> str:
    """Serialize ``db`` to a JSON string."""
    tables: List[Dict[str, Any]] = []
    for table in db.tables:
        schema = table.schema
        tables.append(
            {
                "name": schema.name,
                "columns": [
                    {
                        "name": column.name,
                        "dtype": column.dtype.value,
                        "nullable": column.nullable,
                        "default": _encode_value(column.default),
                    }
                    for column in schema.columns
                ],
                "primary_key": list(schema.primary_key),
                "unique": [list(u) for u in schema.unique],
                "foreign_keys": [
                    {
                        "columns": list(fk.columns),
                        "parent_table": fk.parent_table,
                        "parent_columns": list(fk.parent_columns),
                    }
                    for fk in schema.foreign_keys
                ],
                "indexes": [
                    {
                        "name": index.name,
                        "columns": list(index.columns),
                        "unique": index.unique,
                    }
                    for index in table.indexes.values()
                    if not index.name.startswith(("pk_", "uq_"))
                ],
                "rows": [
                    [_encode_value(value) for value in row]
                    for _, row in table.scan()
                ],
            }
        )
    return encode_document(
        SNAPSHOT_FORMAT, SNAPSHOT_VERSION, {"tables": tables}
    )


def loads_database(
    text: Union[str, bytes], source: str = "database snapshot"
) -> Database:
    """Rebuild a Database from :func:`dumps_database` output.

    Raises :class:`~repro.errors.DatabaseError` naming ``source`` for
    every failure mode: what :func:`~repro.storage.atomic.decode_document`
    rejects (non-JSON or foreign input, another version, a checksum
    mismatch) and a structurally malformed snapshot.
    """
    try:
        payload = decode_document(
            text, SNAPSHOT_FORMAT, SNAPSHOT_VERSION, source
        )
    except StorageError as exc:
        raise DatabaseError(str(exc)) from exc
    tables = payload.get("tables")
    if not isinstance(tables, list):
        raise DatabaseError(
            f"malformed {source}: tables must be a list, got "
            f"{type(tables).__name__}"
        )
    db = Database()
    try:
        for spec in tables:
            _create_table(db, spec)
            column_names = db.table(spec["name"]).schema.column_names
            for row in spec["rows"]:
                db.insert(
                    spec["name"],
                    {
                        column: _decode_value(value)
                        for column, value in zip(column_names, row)
                    },
                )
    except (DatabaseError, KeyError, TypeError, ValueError,
            AttributeError) as exc:
        raise DatabaseError(f"malformed {source}: {exc!r}") from exc
    return db


def _create_table(db: Database, spec: Dict[str, Any]) -> None:
    schema = TableSchema(
        spec["name"],
        [
            Column(
                column["name"],
                DataType(column["dtype"]),
                column["nullable"],
                _decode_value(column["default"]),
            )
            for column in spec["columns"]
        ],
        primary_key=spec["primary_key"],
        unique=spec["unique"],
        foreign_keys=[
            ForeignKey(
                tuple(fk["columns"]),
                fk["parent_table"],
                tuple(fk["parent_columns"]),
            )
            for fk in spec["foreign_keys"]
        ],
    )
    table = db.create_table(schema)
    for index in spec["indexes"]:
        table.create_index(
            index["name"],
            tuple(index["columns"]),
            unique=index["unique"],
        )


def dump_database(db: Database, path: Union[str, pathlib.Path]) -> None:
    """Write ``db`` to ``path`` as JSON, atomically.

    The snapshot lands via temp-file + fsync + rename, so a crash mid
    write leaves any previous snapshot at ``path`` intact.
    """
    atomic_write_text(str(path), dumps_database(db))


def load_database(path: Union[str, pathlib.Path]) -> Database:
    """Load a database snapshot from ``path``.

    Raises :class:`~repro.errors.DatabaseError` naming ``path`` if the
    file is missing, unreadable, or fails :func:`loads_database`.
    """
    try:
        data = pathlib.Path(path).read_bytes()
    except OSError as exc:
        raise DatabaseError(
            f"cannot read database snapshot {path}: {exc}"
        ) from exc
    return loads_database(data, str(path))
