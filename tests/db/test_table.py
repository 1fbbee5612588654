"""Unit tests for heap tables and index maintenance."""

import pytest

from repro.db import Column, DataType, Table, TableSchema
from repro.errors import IntegrityError, ProgrammingError


def make_table(journal=None):
    schema = TableSchema(
        "deals",
        [
            Column("deal_id", DataType.TEXT),
            Column("name", DataType.TEXT, nullable=False),
            Column("value", DataType.REAL),
        ],
        primary_key=["deal_id"],
        unique=[["name"]],
    )
    return Table(schema, journal=journal)


def insert(table, values):
    return table.insert_row(table.schema.validate_row(values))


class TestInsert:
    def test_insert_returns_increasing_rowids(self):
        table = make_table()
        first = insert(table, {"deal_id": "d1", "name": "A"})
        second = insert(table, {"deal_id": "d2", "name": "B"})
        assert second > first
        assert len(table) == 2

    def test_primary_key_enforced(self):
        table = make_table()
        insert(table, {"deal_id": "d1", "name": "A"})
        with pytest.raises(IntegrityError, match="PRIMARY KEY"):
            insert(table, {"deal_id": "d1", "name": "B"})

    def test_unique_constraint_enforced(self):
        table = make_table()
        insert(table, {"deal_id": "d1", "name": "A"})
        with pytest.raises(IntegrityError, match="UNIQUE"):
            insert(table, {"deal_id": "d2", "name": "A"})

    def test_failed_insert_leaves_table_unchanged(self):
        table = make_table()
        insert(table, {"deal_id": "d1", "name": "A"})
        with pytest.raises(IntegrityError):
            insert(table, {"deal_id": "d1", "name": "B"})
        assert len(table) == 1
        # Index must not contain a phantom entry for the rejected row.
        index = table.index_on(("name",))
        assert index.lookup(("B",)) == set()


class TestUpdateDelete:
    def test_delete_removes_from_indexes(self):
        table = make_table()
        rowid = insert(table, {"deal_id": "d1", "name": "A"})
        table.delete(rowid)
        assert len(table) == 0
        assert table.index_on(("deal_id",)).lookup(("d1",)) == set()

    def test_delete_missing_row(self):
        with pytest.raises(ProgrammingError):
            make_table().delete(99)

    def test_rowids_not_reused_after_delete(self):
        table = make_table()
        rowid = insert(table, {"deal_id": "d1", "name": "A"})
        table.delete(rowid)
        new_rowid = insert(table, {"deal_id": "d2", "name": "B"})
        assert new_rowid != rowid


class TestSecondaryIndexes:
    def test_create_index_backfills(self):
        table = make_table()
        insert(table, {"deal_id": "d1", "name": "A", "value": 10.0})
        insert(table, {"deal_id": "d2", "name": "B", "value": 20.0})
        index = table.create_index("ix_value", ("value",))
        assert index.lookup((10.0,)) == {1}
        assert index.lookup((20.0,)) == {2}

    def test_duplicate_index_name_rejected(self):
        table = make_table()
        table.create_index("ix", ("value",))
        with pytest.raises(Exception):
            table.create_index("ix", ("name",))

    def test_index_on_unknown_column(self):
        with pytest.raises(Exception):
            make_table().create_index("ix", ("nope",))

    def test_index_on_exact_columns(self):
        table = make_table()
        assert table.index_on(("deal_id",)) is not None
        assert table.index_on(("value",)) is None


class TestJournal:
    def test_journal_records_all_ops(self):
        log = []

        def journal(table, op, rowid, old, new):
            log.append((op, rowid, old, new))

        table = make_table(journal=journal)
        rowid = insert(table, {"deal_id": "d1", "name": "A"})
        table.delete(rowid)
        assert [entry[0] for entry in log] == ["insert", "delete"]
        assert log[0][3] is not None and log[0][2] is None
        assert log[1][2] is not None and log[1][3] is None

    def test_undo_roundtrip(self):
        table = make_table()
        rowid = insert(table, {"deal_id": "d1", "name": "A"})
        old_row = table.row(rowid)
        table.undo_insert(rowid)
        assert len(table) == 0
        table.undo_delete(rowid, old_row)
        assert table.row(rowid) == old_row


class TestScan:
    def test_scan_order_deterministic(self):
        table = make_table()
        ids = [
            insert(table, {"deal_id": f"d{i}", "name": f"N{i}"})
            for i in range(5)
        ]
        assert [rowid for rowid, _ in table.scan()] == ids
