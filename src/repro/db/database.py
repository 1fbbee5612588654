"""The Database: catalog, SQL execution, transactions, foreign keys.

This is the DB2 stand-in the EIL organized-information layer writes to
and the synopsis queries read from.  One :class:`Database` owns a set of
:class:`~repro.db.table.Table` objects and exposes:

* ``execute(sql, params)`` — parse and run SELECT, DELETE, CREATE
  TABLE, CREATE INDEX or ``EXPLAIN <statement>`` (which reports the
  plan without mutating).
* ``insert(table, values)`` — the one way a row enters a table; and
  ``create_table``, the programmatic twin of CREATE TABLE.
* Undo-log transactions: ``begin`` / ``commit`` / ``rollback``.
  Mutations outside a transaction auto-commit.  A DELETE is
  all-or-nothing on its own: one that fails on its third row leaves
  the first two in place too.
* Foreign keys with RESTRICT semantics, checked per row.

Concurrency: row-level work runs under a writer-preferring read/write
lock — SELECTs share the read side, ``insert`` and DELETE (and
rollback's undo replay) take the write side — so a synopsis query
racing incremental onboarding/offboarding can never observe a table
mid-mutation.  Isolation is *per statement*, not per transaction
(single-writer callers like the serving layer's mutation paths are the
intended users); DDL and catalog lookups are the offline build's
single-threaded domain and stay unlocked.

Statement cache: ``execute(sql, params)`` keeps a bounded LRU of the
last 128 parsed statements keyed on the SQL text; SELECT entries also
carry their prepared :class:`~repro.db.plan.SelectPlan`, so the hot
synopsis read path parses and plans each query text once and then only
executes.  Entries are stamped with the database's DDL epoch — every
table and index creation (including indexes created
directly on a :class:`~repro.db.table.Table`) bumps the epoch, so stale
plans can never run against a changed catalog.  ``db.stmt_cache.*``
counters report hits, misses, evictions and epoch invalidations.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.concurrency import ReadWriteLock
from repro.db.expr import compile_expression
from repro.db.plan import SelectPlan, plan_rowids, table_slots
from repro.db.query import ResultSet, SelectStatement, TableRef
from repro.db.schema import ForeignKey, TableSchema
from repro.db.sql import (
    CreateIndex,
    CreateTable,
    Delete,
    Explain,
    Statement,
    parse,
)
from repro.db.table import Table
from repro.errors import (
    IntegrityError,
    ProgrammingError,
    SchemaError,
    TransactionError,
)
from repro.faults import get_injector
from repro.obs import CounterHandle

__all__ = ["Database"]

_ROWS_SCANNED = CounterHandle("db.rows_scanned")
_STMT_HITS = CounterHandle("db.stmt_cache.hits")
_STMT_MISSES = CounterHandle("db.stmt_cache.misses")
_STMT_INVALIDATIONS = CounterHandle("db.stmt_cache.invalidations")
_STMT_EVICTIONS = CounterHandle("db.stmt_cache.evictions")

_STATEMENT_CACHE_SIZE = 128


class _CacheEntry:
    """One cached statement: parse result, optional plan, DDL epoch."""

    __slots__ = ("statement", "plan", "epoch")

    def __init__(
        self,
        statement: Statement,
        plan: Optional[SelectPlan],
        epoch: int,
    ) -> None:
        self.statement = statement
        self.plan = plan
        self.epoch = epoch


class _StatementCache:
    """Bounded LRU of parsed statements + prepared plans, by SQL text.

    Thread-safe: the serving layer executes SELECTs concurrently under
    the database's read lock, so cache bookkeeping takes its own small
    mutex.  Entries from an older DDL epoch are dropped on lookup and
    counted as invalidations.
    """

    def __init__(self, capacity: int) -> None:
        self._capacity = capacity
        self._entries: "OrderedDict[str, _CacheEntry]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, sql: str, epoch: int) -> Optional[_CacheEntry]:
        with self._lock:
            entry = self._entries.get(sql)
            if entry is None:
                _STMT_MISSES.inc()
                return None
            if entry.epoch != epoch:
                del self._entries[sql]
                _STMT_INVALIDATIONS.inc()
                _STMT_MISSES.inc()
                return None
            self._entries.move_to_end(sql)
            _STMT_HITS.inc()
            return entry

    def store(self, sql: str, entry: _CacheEntry) -> None:
        with self._lock:
            self._entries[sql] = entry
            self._entries.move_to_end(sql)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                _STMT_EVICTIONS.inc()


#: One journaled row change: (table, op, rowid, old row, new row).
_UndoEntry = Tuple[str, str, int, Optional[tuple], Optional[tuple]]


class Database:
    """An in-memory relational database."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self._undo_log: Optional[List[_UndoEntry]] = None
        self._rw = ReadWriteLock()
        # Monotonic catalog version; cached plans from older epochs are
        # invalid.
        self._ddl_epoch = 0
        self._stmt_cache = _StatementCache(_STATEMENT_CACHE_SIZE)

    def _bump_ddl(self) -> None:
        self._ddl_epoch += 1

    # -- catalog -----------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        """Register ``schema`` and return its empty table."""
        if schema.name in self._tables:
            raise SchemaError(f"table {schema.name!r} already exists")
        for fk in schema.foreign_keys:
            self._validate_foreign_key(schema, fk)
        table = Table(schema, journal=self._journal, on_ddl=self._bump_ddl)
        self._tables[schema.name] = table
        self._bump_ddl()
        return table

    def _validate_foreign_key(self, schema: TableSchema, fk: ForeignKey) -> None:
        parent = self._tables.get(fk.parent_table.lower())
        if parent is None:
            raise SchemaError(
                f"foreign key on {schema.name!r} references unknown table "
                f"{fk.parent_table!r}"
            )
        parent_pk = parent.schema.primary_key
        normalized = tuple(c.lower() for c in fk.parent_columns)
        if normalized != parent_pk:
            raise SchemaError(
                f"foreign key must reference the primary key of "
                f"{fk.parent_table!r} ({parent_pk}), got {normalized}"
            )

    def table(self, name: str) -> Table:
        """Look up a table by name (case-insensitive)."""
        table = self._tables.get(name.lower())
        if table is None:
            raise ProgrammingError(f"no table {name!r}")
        return table

    @property
    def table_names(self) -> List[str]:
        """Sorted names of all tables."""
        return sorted(self._tables)

    @property
    def tables(self) -> List[Table]:
        """Every table in creation order, so a parent comes before each
        table that references it (``create_table`` refuses a child
        first)."""
        return list(self._tables.values())

    # -- transactions -----------------------------------------------------

    def begin(self) -> None:
        """Start a transaction; mutations become revertible."""
        if self._undo_log is not None:
            raise TransactionError("transaction already in progress")
        self._undo_log = []

    def commit(self) -> None:
        """Make the current transaction's changes permanent."""
        if self._undo_log is None:
            raise TransactionError("no transaction in progress")
        self._undo_log = None

    def rollback(self) -> None:
        """Revert every mutation since ``begin``."""
        if self._undo_log is None:
            raise TransactionError("no transaction in progress")
        log, self._undo_log = self._undo_log, None
        with self._rw.write():
            self._undo(log)

    def _undo(self, log: List[_UndoEntry]) -> None:
        """Replay ``log`` backwards (the caller holds the write lock)."""
        for table_name, op, rowid, old_row, _new_row in reversed(log):
            table = self._tables[table_name]
            if op == "insert":
                table.undo_insert(rowid)
            else:  # delete
                assert old_row is not None
                table.undo_delete(rowid, old_row)

    @contextmanager
    def _statement(self) -> Iterator[None]:
        """Run one DELETE all-or-nothing, under the write lock.

        Its row changes are journaled to an undo list of its own: on any
        exception the list is replayed, so the rows it changed before
        the failing one are restored; on success it joins the open
        transaction's log, if any, so ``rollback`` still reaches it.
        """
        with self._rw.write():
            transaction, log = self._undo_log, []
            self._undo_log = log
            try:
                yield
            except BaseException:
                self._undo(log)
                raise
            finally:
                self._undo_log = transaction
            if transaction is not None:
                transaction.extend(log)

    def _journal(
        self,
        table_name: str,
        op: str,
        rowid: int,
        old_row: Optional[tuple],
        new_row: Optional[tuple],
    ) -> None:
        if self._undo_log is not None:
            self._undo_log.append((table_name, op, rowid, old_row, new_row))

    # -- foreign-key checks --------------------------------------------------

    def _check_fk_on_insert(self, table: Table, row: tuple) -> None:
        for fk in table.schema.foreign_keys:
            key = table.schema.key_of(row, fk.columns)
            if None in key:
                continue  # SQL: NULL FK values are not checked
            parent = self.table(fk.parent_table)
            index = parent.index_on(parent.schema.primary_key)
            assert index is not None  # PK always indexed
            if not index.lookup(key):
                raise IntegrityError(
                    f"foreign key violation: {table.schema.name!r}"
                    f"{fk.columns} = {key!r} has no parent in "
                    f"{fk.parent_table!r}"
                )

    def _check_fk_on_delete(self, table: Table, row: tuple) -> None:
        if not table.schema.primary_key:
            return
        key = table.schema.key_of(row, table.schema.primary_key)
        for child in self._tables.values():
            for fk in child.schema.foreign_keys:
                if fk.parent_table.lower() != table.schema.name:
                    continue
                index = child.index_on(fk.columns)
                if index is not None:
                    referencing = index.lookup(key)
                else:
                    referencing = {
                        rid
                        for rid, child_row in child.scan()
                        if child.schema.key_of(child_row, fk.columns) == key
                    }
                if referencing:
                    raise IntegrityError(
                        f"cannot delete from {table.schema.name!r}: "
                        f"row {key!r} referenced by {child.schema.name!r}"
                    )

    # -- execution ------------------------------------------------------------

    def execute(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        """Parse and execute one SQL statement.

        Non-SELECT statements return a ResultSet with a single
        ``rowcount`` column so callers can treat everything uniformly.

        This is the ``db`` fault point: SELECT statements — the
        synopsis queries' read path — can be made to fail by an
        installed :class:`~repro.faults.FaultInjector`.  DDL and the
        programmatic ``insert`` are not faulted,
        so the offline populate stage never loses rows or tables to
        injection; what an armed ``db`` profile exercises is the
        online store outage the degradation ladder exists for.

        Statements are cached by SQL text: a hit skips the parser, and
        SELECT hits additionally reuse the prepared plan.  Entries are
        invalidated when the DDL epoch moves.
        """
        if sql.lstrip()[:6].upper() == "SELECT":
            get_injector().check("db")
        cache = self._stmt_cache
        entry = cache.lookup(sql, self._ddl_epoch)
        if entry is None:
            statement = parse(sql)
            plan = None
            if isinstance(statement, SelectStatement):
                plan = SelectPlan(self, statement)
            entry = _CacheEntry(statement, plan, self._ddl_epoch)
            cache.store(sql, entry)
        if entry.plan is not None:
            with self._rw.read():
                return entry.plan.execute(params)
        return self.execute_statement(entry.statement, params)

    def execute_statement(
        self, statement: Statement, params: Sequence[Any] = ()
    ) -> ResultSet:
        """Execute an already-parsed statement.

        Row-level statements are serialized against each other by the
        database's read/write lock: SELECTs share the read side,
        mutations take the write side, and each runs all-or-nothing.
        """
        if isinstance(statement, SelectStatement):
            with self._rw.read():
                return SelectPlan(self, statement).execute(params)
        if isinstance(statement, Delete):
            with self._statement():
                return _rowcount(*self._execute_delete(statement, params))
        if isinstance(statement, CreateTable):
            self.create_table(statement.schema)
            return _rowcount(0)
        if isinstance(statement, CreateIndex):
            table = self.table(statement.table)
            table.create_index(
                statement.name,
                tuple(c.lower() for c in statement.columns),
                unique=statement.unique,
            )
            return _rowcount(0)
        if isinstance(statement, Explain):
            return self._explain_statement(statement.statement, params)
        raise ProgrammingError(f"unsupported statement {statement!r}")

    def _explain_statement(
        self, statement: Statement, params: Sequence[Any]
    ) -> ResultSet:
        """``EXPLAIN``: the planner's choices for ``statement``, without
        mutating.

        SELECTs are executed (they are side-effect free) so the report
        includes runtime decisions — join strategy and build side
        depend on actual cardinalities.  A DELETE only runs the
        row-location planner and reports the access path plus the
        candidate row count.  The result has one ``plan`` column,
        one line per row; the same lines are in ``ResultSet.plan``.
        """
        if isinstance(statement, SelectStatement):
            with self._rw.read():
                result = SelectPlan(self, statement).execute(params)
            lines = list(result.plan)
        elif isinstance(statement, Delete):
            table = self.table(statement.table)
            lines = []
            with self._rw.read():
                candidates = list(
                    plan_rowids(
                        table,
                        TableRef(statement.table),
                        statement.where,
                        params,
                        lines,
                    )
                )
            lines.append(f"candidate rows {len(candidates)}")
        else:
            lines = [f"ddl {type(statement).__name__.lower()}"]
        return ResultSet(
            ["plan"], [(line,) for line in lines], list(lines)
        )

    def insert(self, table_name: str, values: Mapping[str, Any]) -> int:
        """Insert one row, the one way a row enters a table; returns
        its row id."""
        with self._rw.write():
            table = self.table(table_name)
            row = table.schema.validate_row(values)
            self._check_fk_on_insert(table, row)
            return table.insert_row(row)

    def _execute_delete(
        self, statement: Delete, params: Sequence[Any]
    ) -> Tuple[int, List[str]]:
        """Delete the rows WHERE matches, located through the planner.

        An indexed WHERE narrows the candidates through the same
        access-path planner SELECT uses, then the WHERE, compiled
        against the table's own layout, is re-applied to each
        candidate's stored tuple.  Candidates are materialized in
        ascending-rowid order *before* any row goes, preserving the
        seed's scan-then-mutate semantics.
        """
        table = self.table(statement.table)
        ref = TableRef(statement.table)
        where = statement.where
        plan: List[str] = []
        candidates = sorted(plan_rowids(table, ref, where, params, plan))
        _ROWS_SCANNED.inc(len(candidates))
        located = [(rowid, table.row(rowid)) for rowid in candidates]
        if where is not None:
            matches = compile_expression(where, table_slots(table, ref))(
                params
            )
            located = [pair for pair in located if matches(pair[1]) is True]
        for rowid, row in located:
            self._check_fk_on_delete(table, row)
            table.delete(rowid)
        return len(located), plan

    def query_one(
        self, sql: str, params: Sequence[Any] = ()
    ) -> Optional[Dict[str, Any]]:
        """Execute a SELECT and return the first row as a dict, or None."""
        result = self.execute(sql, params)
        first = result.first()
        return dict(zip(result.columns, first)) if first is not None else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database(tables={self.table_names})"


def _rowcount(count: int, plan: Optional[List[str]] = None) -> ResultSet:
    return ResultSet(["rowcount"], [(count,)], plan or [])
