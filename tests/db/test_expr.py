"""Unit tests for expression evaluation and SQL NULL semantics."""

import re

import pytest

from repro.db import (
    Arithmetic,
    ColumnRef,
    Comparison,
    Database,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
    Parameter,
    escape_like,
)
from repro.db import expr as expr_module
from repro.errors import ProgrammingError

ROW = {"t.a": 5, "t.b": "hello", "t.c": None}


def lit(value):
    return Literal(value)


class TestBasics:
    def test_literal(self):
        assert lit(42).evaluate({}) == 42

    def test_column_qualified(self):
        assert ColumnRef("a", "t").evaluate(ROW) == 5

    def test_column_unqualified_resolves(self):
        assert ColumnRef("a").evaluate(ROW) == 5

    def test_column_unqualified_ambiguous(self):
        row = {"t.a": 1, "u.a": 2}
        with pytest.raises(ProgrammingError, match="ambiguous"):
            ColumnRef("a").evaluate(row)

    def test_unknown_column(self):
        with pytest.raises(ProgrammingError, match="unknown column"):
            ColumnRef("zzz").evaluate(ROW)

    def test_unbound_parameter_raises(self):
        with pytest.raises(ProgrammingError, match="unbound parameter"):
            Parameter(0).evaluate({})

    def test_parameter_binding(self):
        expr = Comparison("=", ColumnRef("a", "t"), Parameter(0))
        assert expr.bind([5]).evaluate(ROW) is True

    def test_parameter_missing_raises(self):
        with pytest.raises(ProgrammingError, match="parameter"):
            Parameter(2).bind([1])


class TestComparison:
    def test_operators(self):
        assert Comparison("=", lit(1), lit(1)).evaluate({}) is True
        assert Comparison("!=", lit(1), lit(2)).evaluate({}) is True
        assert Comparison("<", lit(1), lit(2)).evaluate({}) is True
        assert Comparison("<=", lit(2), lit(2)).evaluate({}) is True
        assert Comparison(">", lit(3), lit(2)).evaluate({}) is True
        assert Comparison(">=", lit(1), lit(2)).evaluate({}) is False

    def test_null_propagates(self):
        assert Comparison("=", ColumnRef("c", "t"), lit(1)).evaluate(ROW) is None

    def test_unknown_operator(self):
        with pytest.raises(ProgrammingError):
            Comparison("~", lit(1), lit(1))

    def test_incomparable_types(self):
        with pytest.raises(ProgrammingError):
            Comparison("<", lit(1), lit("x")).evaluate({})


class TestLogic:
    def test_three_valued_and(self):
        null = lit(None)
        assert LogicalAnd(lit(True), lit(True)).evaluate({}) is True
        assert LogicalAnd(lit(True), lit(False)).evaluate({}) is False
        assert LogicalAnd(lit(False), null).evaluate({}) is False
        assert LogicalAnd(lit(True), null).evaluate({}) is None
        assert LogicalAnd(null, null).evaluate({}) is None

    def test_three_valued_or(self):
        null = lit(None)
        assert LogicalOr(lit(False), lit(True)).evaluate({}) is True
        assert LogicalOr(lit(True), null).evaluate({}) is True
        assert LogicalOr(lit(False), null).evaluate({}) is None
        assert LogicalOr(lit(False), lit(False)).evaluate({}) is False

    def test_not(self):
        assert LogicalNot(lit(True)).evaluate({}) is False
        assert LogicalNot(lit(None)).evaluate({}) is None


class TestPredicates:
    def test_is_null(self):
        assert IsNull(ColumnRef("c", "t")).evaluate(ROW) is True
        assert IsNull(ColumnRef("a", "t")).evaluate(ROW) is False
        assert IsNull(ColumnRef("c", "t"), negated=True).evaluate(ROW) is False

    def test_in_list(self):
        expr = InList(ColumnRef("a", "t"), (lit(1), lit(5)))
        assert expr.evaluate(ROW) is True
        expr = InList(ColumnRef("a", "t"), (lit(1), lit(2)))
        assert expr.evaluate(ROW) is False

    def test_in_list_null_semantics(self):
        # 5 IN (1, NULL) is NULL; 5 NOT IN (1, NULL) is NULL.
        expr = InList(lit(5), (lit(1), lit(None)))
        assert expr.evaluate({}) is None
        expr = InList(lit(5), (lit(1), lit(None)), negated=True)
        assert expr.evaluate({}) is None
        # But 5 IN (5, NULL) is TRUE.
        expr = InList(lit(5), (lit(5), lit(None)))
        assert expr.evaluate({}) is True

    def test_like_wildcards(self):
        assert Like(lit("End User Services"), lit("%user%")).evaluate({}) is True
        assert Like(lit("deal"), lit("d_al")).evaluate({}) is True
        assert Like(lit("deal"), lit("d_l")).evaluate({}) is False

    def test_like_case_insensitive(self):
        assert Like(lit("ABC"), lit("abc")).evaluate({}) is True

    def test_like_escapes_regex_chars(self):
        assert Like(lit("a.b"), lit("a.b")).evaluate({}) is True
        assert Like(lit("axb"), lit("a.b")).evaluate({}) is False

    def test_like_null(self):
        assert Like(lit(None), lit("%")).evaluate({}) is None

    def test_like_requires_text(self):
        with pytest.raises(ProgrammingError):
            Like(lit(5), lit("%")).evaluate({})

    def test_like_matches_the_whole_value(self):
        # ``$`` also matches before a trailing newline; LIKE must not.
        assert Like(lit("ab\n"), lit("ab")).evaluate({}) is False
        assert Like(lit("ab\n"), lit("%b")).evaluate({}) is False
        assert Like(lit("ab\n"), lit("ab_")).evaluate({}) is True
        assert Like(lit("a\nb"), lit("a%b")).evaluate({}) is True

    def test_like_escape_makes_wildcards_literal(self):
        def like(value, pattern, escape="\\"):
            return Like(lit(value), lit(pattern), escape=escape).evaluate({})

        assert like("50%_off", "50\\%\\_off") is True
        assert like("5000 off", "50\\%\\_off") is False
        assert like("a\\b", "a\\\\b") is True
        assert like("100%", "%!%", escape="!") is True
        assert like("100", "%!%", escape="!") is False
        # A trailing escape character stands for itself.
        assert like("a\\", "a\\") is True
        # Without ESCAPE the backslash is an ordinary character.
        assert Like(lit("a\\%"), lit("a\\%")).evaluate({}) is True
        assert Like(lit("ab"), lit("a\\%")).evaluate({}) is False

    def test_escape_like_round_trips_any_text(self):
        for text in ("%", "_", "\\", "50%_off", "a\\%b", "plain", ""):
            pattern = escape_like(text)
            assert Like(lit(text), lit(pattern), escape="\\").evaluate({})
            if text:
                assert not Like(
                    lit("x" * len(text)), lit(pattern), escape="\\"
                ).evaluate({})
        assert escape_like("a!b%", "!") == "a!!b!%"

    def test_like_pattern_compiles_once_per_execution(self, monkeypatch):
        # The pattern cache used to stop admitting at 4,096 entries and
        # was consulted per row, so a long-lived process re-translated
        # and recompiled every later pattern for each row it met.
        db = Database(plan_cache=8)
        db.execute("CREATE TABLE t (k INTEGER, v TEXT, PRIMARY KEY (k))")
        rows = 25
        for k in range(rows):
            db.execute("INSERT INTO t VALUES (?, ?)", [k, f"v{k}x"])
        compiled = []
        compile_ = re.compile
        monkeypatch.setattr(
            re, "compile",
            lambda *args, **kwargs: (
                compiled.append(args[0]), compile_(*args, **kwargs)
            )[1],
        )
        expr_module._like_regex.cache_clear()
        patterns = 4100
        # ``_``: the wildcard no string method stands in for.
        for n in range(patterns):
            result = db.execute(
                "SELECT k FROM t WHERE LOWER(v) LIKE ?", [f"_{n}x"]
            )
            assert len(result.rows) == (1 if n < rows else 0)
        assert len(compiled) == patterns
        # ... and a pattern the executor classifies needs no regex.
        before = len(compiled)
        assert len(db.execute(
            "SELECT k FROM t WHERE v LIKE ?", ["%9X%"]
        ).rows) == 2
        assert len(compiled) == before


class TestArithmeticAndFunctions:
    def test_arithmetic(self):
        assert Arithmetic("+", lit(2), lit(3)).evaluate({}) == 5
        assert Arithmetic("-", lit(2), lit(3)).evaluate({}) == -1
        assert Arithmetic("*", lit(2), lit(3)).evaluate({}) == 6
        assert Arithmetic("/", lit(6), lit(3)).evaluate({}) == 2

    def test_division_by_zero_is_null(self):
        assert Arithmetic("/", lit(1), lit(0)).evaluate({}) is None

    def test_string_concat_via_plus(self):
        assert Arithmetic("+", lit("a"), lit("b")).evaluate({}) == "ab"

    def test_null_propagates(self):
        assert Arithmetic("+", lit(None), lit(1)).evaluate({}) is None

    def test_functions(self):
        assert FunctionCall("lower", (lit("ABC"),)).evaluate({}) == "abc"
        assert FunctionCall("upper", (lit("abc"),)).evaluate({}) == "ABC"
        assert FunctionCall("length", (lit("abcd"),)).evaluate({}) == 4
        assert FunctionCall("trim", (lit(" x "),)).evaluate({}) == "x"
        assert FunctionCall("abs", (lit(-3),)).evaluate({}) == 3

    def test_unknown_function(self):
        with pytest.raises(ProgrammingError):
            FunctionCall("nope", (lit(1),))

    def test_wrong_arity(self):
        with pytest.raises(ProgrammingError):
            FunctionCall("lower", (lit("a"), lit("b")))


class TestReferences:
    def test_references_collected(self):
        expr = LogicalAnd(
            Comparison("=", ColumnRef("a", "t"), lit(1)),
            Like(ColumnRef("b", "t"), lit("%")),
        )
        assert set(expr.references()) == {"t.a", "t.b"}
