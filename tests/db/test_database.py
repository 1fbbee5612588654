"""Integration-level tests for Database: SQL execution, transactions, FKs."""

import pytest

from repro.db import Database
from repro.errors import (
    IntegrityError,
    ProgrammingError,
    SchemaError,
    TransactionError,
)


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE deals (deal_id TEXT, name TEXT NOT NULL, "
        "value REAL, industry TEXT, PRIMARY KEY (deal_id))"
    )
    database.execute(
        "CREATE TABLE people (pid INTEGER, deal_id TEXT, name TEXT, "
        "role TEXT, PRIMARY KEY (pid), "
        "FOREIGN KEY (deal_id) REFERENCES deals (deal_id))"
    )
    database.execute(
        "INSERT INTO deals VALUES "
        "('d1', 'DEAL A', 120.0, 'Banking'), "
        "('d2', 'DEAL B', 45.0, 'Insurance'), "
        "('d3', 'DEAL C', 80.0, 'Insurance')"
    )
    database.execute(
        "INSERT INTO people VALUES "
        "(1, 'd1', 'Sam White', 'CSE'), "
        "(2, 'd1', 'Jane Doe', 'TSA'), "
        "(3, 'd2', 'Sam White', 'CSE')"
    )
    return database


class TestCatalog:
    def test_table_names(self, db):
        assert db.table_names == ["deals", "people"]

    def test_duplicate_table(self, db):
        with pytest.raises(SchemaError):
            db.execute("CREATE TABLE deals (x TEXT)")

    def test_unknown_table(self, db):
        with pytest.raises(ProgrammingError):
            db.execute("SELECT * FROM nope")

    def test_drop_respects_references(self, db):
        with pytest.raises(IntegrityError):
            db.execute("DROP TABLE deals")
        db.execute("DROP TABLE people")
        db.execute("DROP TABLE deals")
        assert db.table_names == []

    def test_fk_must_reference_primary_key(self, db):
        with pytest.raises(SchemaError):
            db.execute(
                "CREATE TABLE x (a TEXT, FOREIGN KEY (a) "
                "REFERENCES deals (name))"
            )

    def test_fk_to_unknown_table(self):
        db = Database()
        with pytest.raises(SchemaError):
            db.execute(
                "CREATE TABLE x (a TEXT, FOREIGN KEY (a) "
                "REFERENCES ghosts (id))"
            )


class TestDml:
    def test_insert_returns_rowcount(self, db):
        result = db.execute(
            "INSERT INTO deals VALUES ('d4', 'DEAL D', 1.0, 'Retail')"
        )
        assert result.scalar() == 1

    def test_multi_row_insert_rowcount(self, db):
        result = db.execute(
            "INSERT INTO deals VALUES ('d5', 'E', 1.0, 'X'), "
            "('d6', 'F', 2.0, 'Y')"
        )
        assert result.scalar() == 2

    def test_insert_with_params(self, db):
        db.execute(
            "INSERT INTO deals VALUES (?, ?, ?, ?)",
            ["d7", "DEAL G", 9.0, "Telecom"],
        )
        row = db.query_one("SELECT name FROM deals WHERE deal_id = 'd7'")
        assert row == {"name": "DEAL G"}

    def test_update_rowcount_and_effect(self, db):
        result = db.execute(
            "UPDATE deals SET value = value * 2 WHERE industry = 'Insurance'"
        )
        assert result.scalar() == 2
        assert db.execute(
            "SELECT value FROM deals WHERE deal_id = 'd2'"
        ).scalar() == 90.0

    def test_delete_with_where(self, db):
        db.execute("DELETE FROM people WHERE deal_id = 'd1'")
        assert db.execute("SELECT COUNT(*) FROM people").scalar() == 1

    def test_update_plan_uses_primary_key(self, db):
        result = db.execute(
            "UPDATE deals SET value = 1.0 WHERE deal_id = 'd2'"
        )
        assert result.scalar() == 1
        assert any("index lookup pk_deals" in line for line in result.plan)

    def test_delete_plan_uses_index(self, db):
        db.table("people").create_index("ix_people_deal", ("deal_id",))
        result = db.execute("DELETE FROM people WHERE deal_id = 'd1'")
        assert result.scalar() == 2
        assert any("ix_people_deal" in line for line in result.plan)

    def test_update_plan_full_scan_without_index(self, db):
        result = db.execute(
            "UPDATE deals SET value = 0.0 WHERE industry = 'Insurance'"
        )
        assert result.scalar() == 2
        assert any("full scan deals" in line for line in result.plan)

    def test_fk_insert_violation(self, db):
        with pytest.raises(IntegrityError, match="foreign key"):
            db.execute(
                "INSERT INTO people VALUES (9, 'ghost', 'X', 'CSE')"
            )

    def test_fk_null_allowed(self, db):
        db.execute("INSERT INTO people VALUES (9, NULL, 'X', 'CSE')")

    def test_fk_delete_restricted(self, db):
        with pytest.raises(IntegrityError, match="referenced"):
            db.execute("DELETE FROM deals WHERE deal_id = 'd1'")
        db.execute("DELETE FROM deals WHERE deal_id = 'd3'")  # unreferenced

    def test_fk_update_checked(self, db):
        with pytest.raises(IntegrityError):
            db.execute("UPDATE people SET deal_id = 'ghost' WHERE pid = 1")

    def test_fk_update_of_referenced_key_restricted(self, db):
        # Like DELETE: moving a parent's key away must not orphan rows.
        with pytest.raises(IntegrityError, match="referenced by 'people'"):
            db.execute("UPDATE deals SET deal_id = 'd9' WHERE deal_id = 'd1'")
        assert db.execute(
            "SELECT deal_id FROM deals ORDER BY deal_id"
        ).column("deal_id") == ["d1", "d2", "d3"]
        # The key left alone, or rewritten to itself, or unreferenced.
        for sql in (
            "UPDATE deals SET value = 1.0 WHERE deal_id = 'd1'",
            "UPDATE deals SET deal_id = 'd1' WHERE deal_id = 'd1'",
            "UPDATE deals SET deal_id = 'd9' WHERE deal_id = 'd3'",
        ):
            assert db.execute(sql).scalar() == 1
        assert db.execute(
            "SELECT COUNT(*) FROM people p JOIN deals d "
            "ON d.deal_id = p.deal_id"
        ).scalar() == 3


class TestIllTypedRange:
    """A text column ordered against a number raises the same typed
    error whether a sorted index or a scan serves the range, in SELECT
    and DML alike, and no row changes before it does."""

    @pytest.mark.parametrize("indexed", [False, True],
                             ids=["scan", "index"])
    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    @pytest.mark.parametrize("statement", [
        "SELECT deal_id FROM deals WHERE name {op} 1",
        "UPDATE deals SET value = 0 WHERE name {op} 1",
        "DELETE FROM deals WHERE name {op} 1",
    ], ids=["select", "update", "delete"])
    def test_raises_programming_error(self, db, statement, op, indexed):
        if indexed:
            db.execute("CREATE INDEX ix_name ON deals (name)")
            plan = db.execute(
                f"SELECT deal_id FROM deals WHERE name {op} 'M'"
            ).plan
            assert any("index range ix_name" in step for step in plan)
        before = db.execute("SELECT * FROM deals ORDER BY deal_id").rows
        with pytest.raises(ProgrammingError, match="cannot compare"):
            db.execute(statement.format(op=op))
        assert db.execute(
            "SELECT * FROM deals ORDER BY deal_id"
        ).rows == before


class TestSelect:
    def test_where_with_params_uses_pk_index(self, db):
        result = db.execute(
            "SELECT name FROM deals WHERE deal_id = ?", ["d1"]
        )
        assert result.to_dicts() == [{"name": "DEAL A"}]
        assert any("index lookup" in step for step in result.plan)

    def test_join(self, db):
        result = db.execute(
            "SELECT d.name, p.name AS person FROM deals d "
            "JOIN people p ON p.deal_id = d.deal_id "
            "WHERE p.role = 'CSE' ORDER BY d.name"
        )
        assert result.to_dicts() == [
            {"name": "DEAL A", "person": "Sam White"},
            {"name": "DEAL B", "person": "Sam White"},
        ]

    def test_left_join_preserves_unmatched(self, db):
        result = db.execute(
            "SELECT d.deal_id, p.pid FROM deals d "
            "LEFT JOIN people p ON p.deal_id = d.deal_id "
            "ORDER BY d.deal_id"
        )
        assert ("d3", None) in result.rows

    def test_group_by_count(self, db):
        result = db.execute(
            "SELECT industry, COUNT(*) AS n FROM deals "
            "GROUP BY industry ORDER BY n DESC, industry"
        )
        assert result.rows == [("Insurance", 2), ("Banking", 1)]

    def test_having(self, db):
        result = db.execute(
            "SELECT industry FROM deals GROUP BY industry "
            "HAVING COUNT(*) > 1"
        )
        assert result.rows == [("Insurance",)]

    def test_aggregates_on_empty_input(self, db):
        result = db.execute(
            "SELECT COUNT(*), SUM(value), MIN(value) FROM deals "
            "WHERE industry = 'Nothing'"
        )
        assert result.rows == [(0, None, None)]

    def test_distinct(self, db):
        result = db.execute("SELECT DISTINCT name FROM people")
        assert sorted(result.column("name")) == ["Jane Doe", "Sam White"]

    def test_order_by_nulls_last(self, db):
        db.execute("INSERT INTO deals VALUES ('d9', 'Z', NULL, 'X')")
        values = db.execute(
            "SELECT value FROM deals ORDER BY value"
        ).column("value")
        assert values[-1] is None

    def test_limit_offset(self, db):
        result = db.execute(
            "SELECT deal_id FROM deals ORDER BY deal_id LIMIT 1 OFFSET 1"
        )
        assert result.rows == [("d2",)]

    def test_like(self, db):
        result = db.execute(
            "SELECT deal_id FROM deals WHERE industry LIKE 'insur%'"
        )
        assert sorted(result.column("deal_id")) == ["d2", "d3"]

    def test_like_escape(self, db):
        db.execute("UPDATE deals SET industry = '50%_off' WHERE deal_id = 'd3'")
        for sql in (
            "SELECT deal_id FROM deals WHERE industry LIKE '%!%!_%' ESCAPE '!'",
            "SELECT deal_id FROM deals WHERE industry LIKE ? ESCAPE '\\'",
        ):
            assert db.execute(sql, ["%\\%\\_%"][: sql.count("?")]).rows == [
                ("d3",)
            ]
        # DML evaluates the same clause through the interpreter.
        assert db.execute(
            "DELETE FROM deals WHERE industry LIKE '%!_off' ESCAPE '!'"
        ).scalar() == 1

    def test_in(self, db):
        result = db.execute(
            "SELECT COUNT(*) FROM deals WHERE deal_id IN ('d1', 'd3')"
        )
        assert result.scalar() == 2

    def test_scalar_shape_check(self, db):
        with pytest.raises(ProgrammingError):
            db.execute("SELECT * FROM deals").scalar()

    def test_query_one_builds_only_the_first_row(self, db, monkeypatch):
        from repro.db import ResultSet

        monkeypatch.setattr(ResultSet, "to_dicts", None)
        assert db.query_one(
            "SELECT deal_id, value FROM deals ORDER BY deal_id DESC"
        ) == {"deal_id": "d3", "value": 80.0}

    def test_query_one_none_when_empty(self, db):
        assert db.query_one("SELECT * FROM deals WHERE deal_id='x'") is None

    def test_range_uses_sorted_index(self, db):
        db.execute("CREATE INDEX ix_value ON deals (value)")
        result = db.execute("SELECT deal_id FROM deals WHERE value > 70")
        assert any("index range" in step for step in result.plan)
        assert sorted(result.column("deal_id")) == ["d1", "d3"]

    def test_column_accessor_unknown(self, db):
        with pytest.raises(ProgrammingError):
            db.execute("SELECT name FROM deals").column("nope")


class TestTransactions:
    def test_commit_persists(self, db):
        db.begin()
        db.execute("INSERT INTO deals VALUES ('dx', 'X', 1.0, 'Y')")
        db.commit()
        assert db.execute("SELECT COUNT(*) FROM deals").scalar() == 4

    def test_rollback_reverts_everything(self, db):
        db.begin()
        db.execute("INSERT INTO deals VALUES ('dx', 'X', 1.0, 'Y')")
        db.execute("UPDATE deals SET value = 0 WHERE deal_id = 'd1'")
        db.execute("DELETE FROM people WHERE pid = 3")
        db.rollback()
        assert db.execute("SELECT COUNT(*) FROM deals").scalar() == 3
        assert db.execute(
            "SELECT value FROM deals WHERE deal_id = 'd1'"
        ).scalar() == 120.0
        assert db.execute("SELECT COUNT(*) FROM people").scalar() == 3

    def test_rollback_restores_index_state(self, db):
        db.begin()
        db.execute("DELETE FROM people WHERE pid = 1")
        db.rollback()
        result = db.execute("SELECT name FROM people WHERE pid = 1")
        assert result.to_dicts() == [{"name": "Sam White"}]
        assert any("index lookup" in step for step in result.plan)

    def test_nested_begin_rejected(self, db):
        db.begin()
        with pytest.raises(TransactionError):
            db.begin()
        db.rollback()

    def test_commit_without_begin(self, db):
        with pytest.raises(TransactionError):
            db.commit()

    def test_rollback_without_begin(self, db):
        with pytest.raises(TransactionError):
            db.rollback()
