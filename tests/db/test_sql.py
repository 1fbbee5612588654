"""Unit tests for the SQL lexer/parser."""

import pytest

from repro.db import (
    AggregateCall,
    ColumnRef,
    Comparison,
    DataType,
    Like,
    Literal,
    Parameter,
    SelectStatement,
)
from repro.db.sql import (
    CreateIndex,
    CreateTable,
    Delete,
    parse,
)
from repro.errors import SqlSyntaxError


class TestCreateTable:
    def test_columns_and_constraints(self):
        statement = parse(
            """
            CREATE TABLE deals (
                deal_id TEXT,
                name VARCHAR(64) NOT NULL,
                value REAL DEFAULT 0.0,
                started DATE,
                international BOOLEAN,
                PRIMARY KEY (deal_id),
                UNIQUE (name)
            )
            """
        )
        assert isinstance(statement, CreateTable)
        schema = statement.schema
        assert schema.name == "deals"
        assert schema.primary_key == ("deal_id",)
        assert schema.unique == (("name",),)
        assert schema.column("name").nullable is False
        assert schema.column("value").default == 0.0
        assert schema.column("started").dtype is DataType.DATE

    def test_foreign_key(self):
        statement = parse(
            "CREATE TABLE p (id INTEGER, d TEXT, PRIMARY KEY (id), "
            "FOREIGN KEY (d) REFERENCES deals (deal_id))"
        )
        fk = statement.schema.foreign_keys[0]
        assert fk.parent_table == "deals"
        assert fk.columns == ("d",)

    def test_bad_type_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse("CREATE TABLE t (a BLOB)")

    def test_default_requires_literal(self):
        with pytest.raises(SqlSyntaxError):
            parse("CREATE TABLE t (a INTEGER DEFAULT b)")


class TestCreateIndexAndDrop:
    def test_create_index(self):
        statement = parse("CREATE INDEX ix ON t (a, b)")
        assert statement == CreateIndex("ix", "t", ("a", "b"), False)

    def test_create_unique_index(self):
        statement = parse("CREATE UNIQUE INDEX ix ON t (a)")
        assert statement.unique is True


class TestSelect:
    def test_string_escape(self):
        statement = parse("SELECT * FROM t WHERE a = 'it''s'")
        assert statement.where.right == Literal("it's")

    def test_parameter_placeholders(self):
        statement = parse("SELECT * FROM t WHERE a = ? AND b = ?")
        assert statement.where.left.right == Parameter(0)
        assert statement.where.right.right == Parameter(1)

    def test_simple(self):
        statement = parse("SELECT a, b FROM t")
        assert isinstance(statement, SelectStatement)
        assert statement.from_ref.table == "t"
        assert len(statement.items) == 2

    def test_star(self):
        statement = parse("SELECT * FROM t")
        assert statement.items[0].star

    def test_qualified_star(self):
        statement = parse("SELECT t.* FROM t")
        assert statement.items[0].star_table == "t"

    def test_aliases(self):
        statement = parse("SELECT a AS x, b y FROM t u")
        assert statement.items[0].alias == "x"
        assert statement.items[1].alias == "y"
        assert statement.from_ref.alias == "u"

    def test_joins(self):
        statement = parse(
            "SELECT * FROM a JOIN b ON a.x = b.x "
            "LEFT JOIN c ON b.y = c.y"
        )
        assert statement.joins[0].kind == "inner"
        assert statement.joins[1].kind == "left"

    def test_where_precedence(self):
        statement = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
        # AND binds tighter than OR.
        from repro.db import LogicalAnd, LogicalOr

        assert isinstance(statement.where, LogicalOr)
        assert isinstance(statement.where.right, LogicalAnd)

    def test_like_and_not_like(self):
        statement = parse("SELECT * FROM t WHERE a LIKE '%x%'")
        assert isinstance(statement.where, Like)
        statement = parse("SELECT * FROM t WHERE a NOT LIKE '%x%'")
        assert statement.where.negated is True
        assert statement.where.escape is None

    def test_like_escape(self):
        statement = parse("SELECT * FROM t WHERE a LIKE ? ESCAPE '\\' AND b")
        assert statement.where.left.escape == "\\"
        statement = parse("SELECT * FROM t WHERE a NOT LIKE '5!%' ESCAPE '!'")
        assert statement.where.negated and statement.where.escape == "!"

    def test_in_and_is_null(self):
        statement = parse(
            "SELECT * FROM t WHERE a IN (1, 2) AND b IS NOT NULL"
        )
        assert statement.where is not None

    def test_group_by_having(self):
        statement = parse(
            "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1"
        )
        assert len(statement.group_by) == 1
        assert statement.having is not None

    def test_aggregates(self):
        statement = parse(
            "SELECT COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v), "
            "COUNT(DISTINCT v) FROM t"
        )
        aggregate = statement.items[0].expr
        assert isinstance(aggregate, AggregateCall)
        assert aggregate.arg is None
        assert statement.items[5].expr.distinct is True

    def test_order_limit_offset(self):
        statement = parse(
            "SELECT * FROM t ORDER BY a DESC, b LIMIT 10 OFFSET 5"
        )
        assert statement.order_by[0].descending is True
        assert statement.order_by[1].descending is False
        assert statement.limit == 10
        assert statement.offset == 5

    def test_distinct(self):
        assert parse("SELECT DISTINCT a FROM t").distinct is True

    def test_arithmetic_precedence(self):
        statement = parse("SELECT 1 + 2 * 3 FROM t")
        from repro.db import Arithmetic

        expr = statement.items[0].expr
        assert isinstance(expr, Arithmetic) and expr.op == "+"

    def test_unary_minus(self):
        statement = parse("SELECT * FROM t WHERE a > -5")
        assert statement.where is not None

    def test_function_calls(self):
        statement = parse("SELECT LOWER(name) FROM t")
        assert statement.items[0].expr is not None

    def test_qualified_columns(self):
        statement = parse("SELECT t.a FROM t")
        assert statement.items[0].expr == ColumnRef("a", "t")

    def test_comparison_spellings(self):
        for sql in ("a <> 1", "a != 1"):
            statement = parse(f"SELECT * FROM t WHERE {sql}")
            assert isinstance(statement.where, Comparison)
            assert statement.where.op == "!="


class TestUpdateDelete:
    def test_delete(self):
        statement = parse("DELETE FROM t WHERE a = 1")
        assert isinstance(statement, Delete)

    def test_delete_all(self):
        assert parse("DELETE FROM t").where is None


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "SELEC * FROM t",
            "SELECT FROM t",
            "SELECT * FROM",
            "SELECT * FROM t WHERE",
            "SELECT * FROM t WHERE GROUP",
            "INSERT INTO t",
            "CREATE TABLE t ()",
            "SELECT * FROM t LIMIT x",
            "SELECT * FROM t WHERE a LIKE",
            "SELECT * FROM t WHERE a LIKE 'x' ESCAPE",
            "SELECT * FROM t WHERE a LIKE 'x' ESCAPE ''",
            "SELECT * FROM t WHERE a LIKE 'x' ESCAPE 'ab'",
            "SELECT * FROM t WHERE a LIKE 'x' ESCAPE ?",
            "SELECT * FROM t; SELECT * FROM u",
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(SqlSyntaxError):
            parse(bad)

    def test_trailing_semicolon_ok(self):
        parse("SELECT * FROM t;")

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError, match="unexpected character"):
            parse("SELECT @ FROM t")
