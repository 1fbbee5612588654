"""A small SQL dialect: lexer, recursive-descent parser, statement model.

Supported statements (what EIL's organized-information layer and the
synopsis queries use):

* ``CREATE TABLE t (col TYPE [NOT NULL], ...,
  PRIMARY KEY (...), UNIQUE (...), FOREIGN KEY (...) REFERENCES p(...))``
* ``CREATE [UNIQUE] INDEX name ON t (cols)``
* ``SELECT [DISTINCT] items FROM t [alias]
  [[LEFT] JOIN u [alias] ON expr] ... [WHERE expr]
  [GROUP BY exprs] [HAVING expr] [ORDER BY expr [ASC|DESC], ...]
  [LIMIT n [OFFSET m]]``
* ``DELETE FROM t [WHERE expr]``
* ``EXPLAIN <statement>`` — report the planner's access-path choices
  without mutating anything

Rows enter through :meth:`repro.db.database.Database.insert`, and
onboarding or offboarding a deal replaces its rows, so there is no
INSERT, UPDATE or DROP TABLE: each is rejected as "expected a SQL
statement".

Expressions support AND/OR/NOT, comparisons, LIKE [ESCAPE 'c'], IN,
IS [NOT] NULL, ``+ - * /``, scalar functions, the aggregates, ``?``
placeholders, string/number/NULL/TRUE/FALSE literals, and parenthesized
nesting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple, Union

from repro.db.expr import (
    Arithmetic,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
    Parameter,
)
from repro.db.query import (
    AggregateCall,
    Join,
    OrderItem,
    SelectItem,
    SelectStatement,
    TableRef,
)
from repro.db.schema import Column, ForeignKey, TableSchema
from repro.db.types import DataType
from repro.errors import SqlSyntaxError

__all__ = [
    "parse",
    "Statement",
    "CreateTable",
    "CreateIndex",
    "Delete",
    "Explain",
]


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<op><=|>=|!=|<>|=|<|>|\(|\)|,|\.|\*|\+|-|/|\?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "select", "distinct", "from", "where", "group", "by", "having", "order",
    "asc", "desc", "limit", "offset", "join", "left", "inner", "on", "and",
    "or", "not", "in", "is", "null", "like", "true", "false", "as", "create",
    "table", "index", "unique", "primary", "key", "foreign", "references",
    "delete",
    "count", "sum", "avg", "min", "max", "explain", "escape",
}


@dataclass(frozen=True)
class _Token:
    kind: str  # 'number' | 'string' | 'op' | 'ident' | 'keyword' | 'eof'
    text: str
    position: int


def _lex(sql: str) -> List[_Token]:
    tokens: List[_Token] = []
    position = 0
    while position < len(sql):
        match = _TOKEN_RE.match(sql, position)
        if match is None:
            raise SqlSyntaxError(
                f"unexpected character {sql[position]!r} at offset {position}"
            )
        position = match.end()
        if match.lastgroup == "ws":
            continue
        kind = match.lastgroup or "op"
        text = match.group(0)
        if kind == "ident" and text.lower() in _KEYWORDS:
            kind = "keyword"
            text = text.lower()
        tokens.append(_Token(kind, text, match.start()))
    tokens.append(_Token("eof", "", len(sql)))
    return tokens


# ---------------------------------------------------------------------------
# Statement model (non-SELECT)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CreateTable:
    """Parsed CREATE TABLE."""

    schema: TableSchema


@dataclass(frozen=True)
class CreateIndex:
    """Parsed CREATE INDEX."""

    name: str
    table: str
    columns: Tuple[str, ...]
    unique: bool = False


@dataclass(frozen=True)
class Delete:
    """Parsed DELETE."""

    table: str
    where: Optional[Expression] = None


@dataclass(frozen=True)
class Explain:
    """Parsed EXPLAIN wrapping any other statement."""

    statement: "Statement"


Statement = Union[SelectStatement, CreateTable, CreateIndex, Delete, Explain]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, sql: str) -> None:
        self._sql = sql
        self._tokens = _lex(sql)
        self._pos = 0
        self._param_count = 0

    # -- token helpers -------------------------------------------------

    def _peek(self, offset: int = 0) -> _Token:
        return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]

    def _advance(self) -> _Token:
        token = self._tokens[self._pos]
        if token.kind != "eof":
            self._pos += 1
        return token

    def _accept_keyword(self, *keywords: str) -> Optional[str]:
        token = self._peek()
        if token.kind == "keyword" and token.text in keywords:
            self._advance()
            return token.text
        return None

    def _expect_keyword(self, keyword: str) -> None:
        if not self._accept_keyword(keyword):
            self._fail(f"expected {keyword.upper()}")

    def _accept_op(self, op: str) -> bool:
        token = self._peek()
        if token.kind == "op" and token.text == op:
            self._advance()
            return True
        return False

    def _expect_op(self, op: str) -> None:
        if not self._accept_op(op):
            self._fail(f"expected {op!r}")

    def _expect_ident(self, what: str = "identifier") -> str:
        token = self._peek()
        # Non-reserved use of aggregate keywords as identifiers is not
        # supported; real identifiers must avoid keywords.
        if token.kind != "ident":
            self._fail(f"expected {what}")
        self._advance()
        return token.text

    def _fail(self, message: str) -> None:
        token = self._peek()
        raise SqlSyntaxError(
            f"{message} at offset {token.position} "
            f"(near {token.text!r}) in: {self._sql!r}"
        )

    # -- entry point -----------------------------------------------------

    def parse_statement(self) -> Statement:
        if self._accept_keyword("explain"):
            statement: Statement = Explain(self._parse_bare_statement())
        else:
            statement = self._parse_bare_statement()
        if self._peek().kind != "eof":
            self._fail("unexpected trailing input")
        return statement

    def _parse_bare_statement(self) -> Statement:
        statement: Statement
        if self._accept_keyword("select"):
            statement = self._parse_select()
        elif self._accept_keyword("create"):
            statement = self._parse_create()
        elif self._accept_keyword("delete"):
            statement = self._parse_delete()
        else:
            self._fail("expected a SQL statement")
            raise AssertionError  # unreachable
        return statement

    # -- SELECT -----------------------------------------------------------

    def _parse_select(self) -> SelectStatement:
        distinct = bool(self._accept_keyword("distinct"))
        items = [self._parse_select_item()]
        while self._accept_op(","):
            items.append(self._parse_select_item())
        self._expect_keyword("from")
        from_ref = self._parse_table_ref()
        joins: List[Join] = []
        while True:
            kind = "inner"
            if self._accept_keyword("left"):
                kind = "left"
                self._expect_keyword("join")
            elif self._accept_keyword("inner"):
                self._expect_keyword("join")
            elif not self._accept_keyword("join"):
                break
            ref = self._parse_table_ref()
            self._expect_keyword("on")
            joins.append(Join(ref, self._parse_expression(), kind))
        where = (
            self._parse_expression() if self._accept_keyword("where") else None
        )
        group_by: List[Expression] = []
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by.append(self._parse_expression())
            while self._accept_op(","):
                group_by.append(self._parse_expression())
        having = (
            self._parse_expression() if self._accept_keyword("having") else None
        )
        order_by: List[OrderItem] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by.append(self._parse_order_item())
            while self._accept_op(","):
                order_by.append(self._parse_order_item())
        limit = None
        offset = 0
        if self._accept_keyword("limit"):
            limit = self._parse_int("LIMIT")
            if self._accept_keyword("offset"):
                offset = self._parse_int("OFFSET")
        return SelectStatement(
            items=tuple(items),
            from_ref=from_ref,
            joins=tuple(joins),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _parse_int(self, clause: str) -> int:
        token = self._peek()
        if token.kind != "number" or "." in token.text:
            self._fail(f"{clause} expects an integer")
        self._advance()
        return int(token.text)

    def _parse_select_item(self) -> SelectItem:
        if self._accept_op("*"):
            return SelectItem(star=True)
        # alias.* form
        if (
            self._peek().kind == "ident"
            and self._peek(1).text == "."
            and self._peek(2).text == "*"
        ):
            table = self._expect_ident()
            self._advance()  # .
            self._advance()  # *
            return SelectItem(star=True, star_table=table)
        expression = self._parse_expression()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident("alias")
        elif self._peek().kind == "ident":
            alias = self._expect_ident()
        return SelectItem(expression, alias)

    def _parse_table_ref(self) -> TableRef:
        table = self._expect_ident("table name")
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident("alias")
        elif self._peek().kind == "ident":
            alias = self._expect_ident()
        return TableRef(table, alias)

    def _parse_order_item(self) -> OrderItem:
        expression = self._parse_expression()
        descending = False
        if self._accept_keyword("desc"):
            descending = True
        else:
            self._accept_keyword("asc")
        return OrderItem(expression, descending)

    # -- CREATE -----------------------------------------------------------

    def _parse_create(self) -> Statement:
        if self._accept_keyword("table"):
            return self._parse_create_table()
        unique = bool(self._accept_keyword("unique"))
        self._expect_keyword("index")
        name = self._expect_ident("index name")
        self._expect_keyword("on")
        table = self._expect_ident("table name")
        self._expect_op("(")
        columns = [self._expect_ident("column name")]
        while self._accept_op(","):
            columns.append(self._expect_ident("column name"))
        self._expect_op(")")
        return CreateIndex(name, table, tuple(columns), unique)

    _TYPES = {
        "integer": DataType.INTEGER,
        "int": DataType.INTEGER,
        "real": DataType.REAL,
        "float": DataType.REAL,
        "double": DataType.REAL,
        "text": DataType.TEXT,
        "varchar": DataType.TEXT,
        "boolean": DataType.BOOLEAN,
        "bool": DataType.BOOLEAN,
        "date": DataType.DATE,
    }

    def _parse_create_table(self) -> CreateTable:
        name = self._expect_ident("table name")
        self._expect_op("(")
        columns: List[Column] = []
        primary_key: Tuple[str, ...] = ()
        unique: List[Tuple[str, ...]] = []
        foreign_keys: List[ForeignKey] = []
        while True:
            if self._accept_keyword("primary"):
                self._expect_keyword("key")
                primary_key = self._parse_column_list()
            elif self._accept_keyword("unique"):
                unique.append(self._parse_column_list())
            elif self._accept_keyword("foreign"):
                self._expect_keyword("key")
                fk_columns = self._parse_column_list()
                self._expect_keyword("references")
                parent = self._expect_ident("table name")
                parent_columns = self._parse_column_list()
                foreign_keys.append(
                    ForeignKey(fk_columns, parent, parent_columns)
                )
            else:
                columns.append(self._parse_column_def())
            if not self._accept_op(","):
                break
        self._expect_op(")")
        schema = TableSchema(name, columns, primary_key, unique, foreign_keys)
        return CreateTable(schema)

    def _parse_column_list(self) -> Tuple[str, ...]:
        self._expect_op("(")
        columns = [self._expect_ident("column name")]
        while self._accept_op(","):
            columns.append(self._expect_ident("column name"))
        self._expect_op(")")
        return tuple(columns)

    def _parse_column_def(self) -> Column:
        name = self._expect_ident("column name")
        type_token = self._peek()
        if type_token.kind != "ident" or type_token.text.lower() not in self._TYPES:
            self._fail("expected a column type")
        self._advance()
        dtype = self._TYPES[type_token.text.lower()]
        # VARCHAR(n): accept and ignore the length.
        if self._accept_op("("):
            self._parse_int("VARCHAR length")
            self._expect_op(")")
        nullable = True
        if self._accept_keyword("not"):
            self._expect_keyword("null")
            nullable = False
        return Column(name, dtype, nullable)

    # -- DELETE -------------------------------------------------------------

    def _parse_delete(self) -> Delete:
        self._expect_keyword("from")
        table = self._expect_ident("table name")
        where = (
            self._parse_expression() if self._accept_keyword("where") else None
        )
        return Delete(table, where)

    # -- expressions ---------------------------------------------------------

    def _parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self._accept_keyword("or"):
            left = LogicalOr(left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self._accept_keyword("and"):
            left = LogicalAnd(left, self._parse_not())
        return left

    def _parse_not(self) -> Expression:
        if self._accept_keyword("not"):
            return LogicalNot(self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expression:
        left = self._parse_additive()
        token = self._peek()
        if token.kind == "op" and token.text in ("=", "!=", "<>", "<", "<=",
                                                 ">", ">="):
            self._advance()
            op = "!=" if token.text == "<>" else token.text
            return Comparison(op, left, self._parse_additive())
        negated = False
        if self._peek().kind == "keyword" and self._peek().text == "not":
            following = self._peek(1)
            if following.kind == "keyword" and following.text in ("like", "in"):
                self._advance()
                negated = True
        if self._accept_keyword("like"):
            pattern = self._parse_additive()
            escape = None
            if self._accept_keyword("escape"):
                token = self._peek()
                if token.kind != "string" or len(token.text) != 3:
                    self._fail("ESCAPE expects a one-character string")
                self._advance()
                escape = token.text[1]
            return Like(left, pattern, negated, escape)
        if self._accept_keyword("in"):
            self._expect_op("(")
            choices = [self._parse_expression()]
            while self._accept_op(","):
                choices.append(self._parse_expression())
            self._expect_op(")")
            return InList(left, tuple(choices), negated)
        if self._accept_keyword("is"):
            is_negated = bool(self._accept_keyword("not"))
            self._expect_keyword("null")
            return IsNull(left, is_negated)
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            if self._accept_op("+"):
                left = Arithmetic("+", left, self._parse_multiplicative())
            elif self._accept_op("-"):
                left = Arithmetic("-", left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while True:
            if self._accept_op("*"):
                left = Arithmetic("*", left, self._parse_unary())
            elif self._accept_op("/"):
                left = Arithmetic("/", left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expression:
        if self._accept_op("-"):
            return Arithmetic("-", Literal(0), self._parse_unary())
        return self._parse_primary()

    _AGGREGATES = ("count", "sum", "avg", "min", "max")

    def _parse_primary(self) -> Expression:
        token = self._peek()
        if token.kind == "number":
            self._advance()
            value: Any = float(token.text) if "." in token.text else int(token.text)
            return Literal(value)
        if token.kind == "string":
            self._advance()
            return Literal(token.text[1:-1].replace("''", "'"))
        if token.kind == "op" and token.text == "?":
            self._advance()
            parameter = Parameter(self._param_count)
            self._param_count += 1
            return parameter
        if token.kind == "op" and token.text == "(":
            self._advance()
            expression = self._parse_expression()
            self._expect_op(")")
            return expression
        if token.kind == "keyword":
            if token.text == "null":
                self._advance()
                return Literal(None)
            if token.text == "true":
                self._advance()
                return Literal(True)
            if token.text == "false":
                self._advance()
                return Literal(False)
            if token.text in self._AGGREGATES:
                self._advance()
                return self._parse_aggregate(token.text)
            self._fail("unexpected keyword in expression")
        if token.kind == "ident":
            return self._parse_identifier_expression()
        self._fail("expected an expression")
        raise AssertionError  # unreachable

    def _parse_aggregate(self, func: str) -> Expression:
        self._expect_op("(")
        if func == "count" and self._accept_op("*"):
            self._expect_op(")")
            return AggregateCall("count", None)
        distinct = bool(self._accept_keyword("distinct"))
        argument = self._parse_expression()
        self._expect_op(")")
        return AggregateCall(func, argument, distinct)

    def _parse_identifier_expression(self) -> Expression:
        name = self._expect_ident()
        if self._accept_op("("):
            arguments = []
            if not self._accept_op(")"):
                arguments.append(self._parse_expression())
                while self._accept_op(","):
                    arguments.append(self._parse_expression())
                self._expect_op(")")
            return FunctionCall(name, tuple(arguments))
        if self._accept_op("."):
            column = self._expect_ident("column name")
            return ColumnRef(column, name)
        return ColumnRef(name)


def parse(sql: str) -> Statement:
    """Parse one SQL statement (trailing semicolon allowed)."""
    sql = sql.strip()
    if sql.endswith(";"):
        sql = sql[:-1]
    return _Parser(sql).parse_statement()
