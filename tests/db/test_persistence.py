"""Unit and property tests for database JSON persistence."""

import datetime
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import (
    Column,
    Database,
    DataType,
    TableSchema,
    dump_database,
    dumps_database,
    load_database,
    loads_database,
)
from repro.db.persistence import SNAPSHOT_FORMAT, SNAPSHOT_VERSION
from repro.errors import DatabaseError
from repro.storage.atomic import encode_document
from tests.db.rows import insert_rows


def snapshot_of(tables, version=SNAPSHOT_VERSION):
    """A well-formed, correctly checksummed snapshot document of
    ``tables`` (whatever they hold)."""
    return encode_document(SNAPSHOT_FORMAT, version, {"tables": tables})


def make_db():
    db = Database()
    # A default has no SQL spelling; the schema carries it.
    db.create_table(TableSchema("deals", [
        Column("deal_id", DataType.TEXT),
        Column("name", DataType.TEXT, nullable=False),
        Column("value", DataType.REAL, default=1.5),
        Column("started", DataType.DATE),
        Column("flag", DataType.BOOLEAN),
    ], primary_key=["deal_id"]))
    db.execute(
        "CREATE TABLE contacts (cid INTEGER, deal_id TEXT, nm TEXT, "
        "PRIMARY KEY (cid), "
        "FOREIGN KEY (deal_id) REFERENCES deals (deal_id))"
    )
    db.execute("CREATE INDEX ix_value ON deals (value)")
    insert_rows(db, "deals", [
        ("d1", "A", 2.0, "2006-01-05", True),
        ("d2", "B", None, None, False),
    ])
    insert_rows(db, "contacts", [(1, "d1", "Sam")])
    return db


class TestRoundtrip:
    def test_rows_survive(self):
        restored = loads_database(dumps_database(make_db()))
        assert restored.execute("SELECT COUNT(*) FROM deals").scalar() == 2
        row = restored.query_one(
            "SELECT * FROM deals WHERE deal_id = 'd1'"
        )
        assert row["name"] == "A"
        assert row["value"] == 2.0
        assert row["started"] == datetime.date(2006, 1, 5)
        assert row["flag"] is True

    def test_nulls_survive(self):
        restored = loads_database(dumps_database(make_db()))
        row = restored.query_one(
            "SELECT * FROM deals WHERE deal_id = 'd2'"
        )
        assert row["value"] is None and row["started"] is None

    def test_constraints_survive(self):
        restored = loads_database(dumps_database(make_db()))
        from repro.errors import IntegrityError

        with pytest.raises(IntegrityError):
            restored.insert("deals", {"deal_id": "d1", "name": "dup"})
        with pytest.raises(IntegrityError):
            restored.insert("contacts", {"cid": 9, "deal_id": "ghost"})

    def test_secondary_indexes_survive(self):
        restored = loads_database(dumps_database(make_db()))
        result = restored.execute("SELECT deal_id FROM deals WHERE value = 2")
        assert result.plan[0] == "index lookup ix_value(value=2)"
        assert result.rows == [("d1",)]

    def test_fk_ordering_resolved(self):
        # Alphabetical order would load 'contacts' before 'deals'; the
        # snapshot lists tables in creation order, parents first.
        text = dumps_database(make_db())
        tables = json.loads(text)["payload"]["tables"]
        assert [table["name"] for table in tables] == ["deals", "contacts"]
        restored = loads_database(text)
        assert restored.execute(
            "SELECT COUNT(*) FROM contacts"
        ).scalar() == 1

    def test_defaults_survive(self):
        restored = loads_database(dumps_database(make_db()))
        restored.insert("deals", {"deal_id": "d3", "name": "C"})
        assert restored.execute(
            "SELECT value FROM deals WHERE deal_id = 'd3'"
        ).scalar() == 1.5

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "snapshot.json"
        dump_database(make_db(), path)
        restored = load_database(path)
        assert restored.table_names == ["contacts", "deals"]


class TestErrors:
    def test_invalid_json(self):
        with pytest.raises(DatabaseError):
            loads_database("{not json")

    def test_wrong_version(self):
        with pytest.raises(DatabaseError, match="version"):
            loads_database(snapshot_of([], version=99))

    def test_foreign_json_rejected(self):
        for payload in ('{"something": "else"}', "[1, 2, 3]", '"text"',
                        "42", "null"):
            with pytest.raises(DatabaseError, match="snapshot"):
                loads_database(payload)

    def test_checksum_mismatch_rejected(self):
        document = json.loads(dumps_database(make_db()))
        document["payload"]["tables"][0]["rows"][0][1] = "tampered"
        with pytest.raises(DatabaseError, match="checksum"):
            loads_database(json.dumps(document))

    def test_missing_checksum_rejected(self):
        document = json.loads(dumps_database(make_db()))
        del document["checksum"]
        with pytest.raises(DatabaseError, match="checksum"):
            loads_database(json.dumps(document))

    def test_malformed_structure_raises_typed_error(self):
        # Structurally broken specs must never leak KeyError/TypeError.
        table = {"name": "t", "columns": [], "primary_key": [],
                 "unique": [], "foreign_keys": [], "indexes": [],
                 "rows": []}
        column = {"name": "c", "dtype": "TEXT", "nullable": True,
                  "default": None}
        malformed = [
            [{}],
            [{**table, "columns": 3}],
            [{**table, "columns": [{**column, "dtype": "NOPE"}]}],
            [{**table, "columns": [column], "rows": [[{"__date__": 5}]]}],
            {"t": table},
        ]
        for tables in malformed:
            with pytest.raises(DatabaseError, match="malformed"):
                loads_database(snapshot_of(tables))

    def test_child_listed_before_its_parent_is_malformed(self):
        tables = json.loads(dumps_database(make_db()))["payload"]["tables"]
        with pytest.raises(DatabaseError, match="malformed .*unknown table"):
            loads_database(snapshot_of(tables[::-1]))

    def test_older_snapshot_is_rejected_naming_the_file(self, tmp_path):
        # The layout dumps_database wrote before the shared envelope:
        # version 2, a checksum and the tables at the top level.
        path = tmp_path / "snapshot.json"
        tables = json.loads(dumps_database(make_db()))["payload"]["tables"]
        path.write_text(json.dumps(
            {"version": 2, "checksum": "0" * 32, "tables": tables}
        ))
        with pytest.raises(DatabaseError, match="not a repro-db") as raised:
            load_database(path)
        assert str(path) in str(raised.value)

    def test_load_missing_file_raises_typed_error(self, tmp_path):
        with pytest.raises(DatabaseError, match="cannot read"):
            load_database(tmp_path / "absent.json")


class TestAtomicity:
    def test_dump_replaces_atomically(self, tmp_path):
        path = tmp_path / "snapshot.json"
        dump_database(make_db(), path)
        first = path.read_text()
        db = make_db()
        db.insert("deals", {"deal_id": "d9", "name": "Z"})
        dump_database(db, path)
        assert path.read_text() != first
        assert load_database(path).execute(
            "SELECT COUNT(*) FROM deals"
        ).scalar() == 3
        # No temp-file droppings next to the snapshot.
        assert [p.name for p in tmp_path.iterdir()] == ["snapshot.json"]

    def test_partial_file_never_parses(self, tmp_path):
        path = tmp_path / "snapshot.json"
        dump_database(make_db(), path)
        truncated = path.read_text()[:-40]
        path.write_text(truncated)
        with pytest.raises(DatabaseError):
            load_database(path)


class TestProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 50),
                st.one_of(st.none(), st.floats(-1e6, 1e6)),
                st.one_of(st.none(),
                          st.dates(datetime.date(1990, 1, 1),
                                   datetime.date(2030, 12, 31))),
            ),
            max_size=25,
            unique_by=lambda row: row[0],
        )
    )
    @settings(max_examples=30)
    def test_arbitrary_rows_roundtrip(self, rows):
        db = Database()
        db.execute("CREATE TABLE t (pk INTEGER, x REAL, d DATE, "
                   "PRIMARY KEY (pk))")
        for pk, x, d in rows:
            db.insert("t", {"pk": pk, "x": x, "d": d})
        restored = loads_database(dumps_database(db))
        original = sorted(db.execute("SELECT * FROM t").rows)
        loaded = sorted(restored.execute("SELECT * FROM t").rows)
        assert original == loaded
