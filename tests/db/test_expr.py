"""Unit tests for expression evaluation and SQL NULL semantics.

Every case runs through :func:`value_of`: ``compile_expression`` — the
one evaluator ``repro.db`` has — and the reference interpreter
(``tests/reference/expr.py``) must agree on the value or on the error.
"""

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
from repro.db.expr import compile_expression
from repro.errors import ProgrammingError

from tests.reference import expr as reference

ROW = {"t.a": 5, "t.b": "hello", "t.c": None}


def lit(value):
    return Literal(value)


def value_of(expression, row=None, params=()):
    """What ``expression`` is over ``row`` (context key -> value) with
    ``params`` bound, by the compiled row function over the row's keys
    and by the reference interpreter; raises the ProgrammingError both
    raise.  They must agree on type and value, or on the message."""
    row = row or {}
    keys = list(row)

    def compiled():
        slots = {key: slot for slot, key in enumerate(keys)}
        stored = tuple(row[key] for key in keys)
        return compile_expression(expression, slots)(params)(stored)

    def interpreted():
        return reference.evaluate(reference.bind(expression, params), row)

    outcomes = []
    for run in (compiled, interpreted):
        try:
            result = run()
            outcomes.append((type(result), result))
        except ProgrammingError as exc:
            outcomes.append((ProgrammingError, str(exc)))
    assert outcomes[0] == outcomes[1]
    kind, result = outcomes[0]
    if kind is ProgrammingError:
        raise ProgrammingError(result)
    return result


class TestBasics:
    def test_literal(self):
        assert value_of(lit(42)) == 42

    def test_column_qualified(self):
        assert value_of(ColumnRef("a", "t"), ROW) == 5

    def test_column_unqualified_resolves(self):
        assert value_of(ColumnRef("a"), ROW) == 5

    def test_column_unqualified_ambiguous(self):
        row = {"t.a": 1, "u.a": 2}
        with pytest.raises(ProgrammingError, match="ambiguous"):
            value_of(ColumnRef("a"), row)

    def test_unknown_column(self):
        with pytest.raises(ProgrammingError, match="unknown column"):
            value_of(ColumnRef("zzz"), ROW)

    def test_unbound_parameter_raises(self):
        # Only the interpreter can meet a ``?`` nobody bound: a compiled
        # expression is always bound before it sees a row.
        with pytest.raises(ProgrammingError, match="unbound parameter"):
            reference.evaluate(Parameter(0), {})

    def test_parameter_binding(self):
        expr = Comparison("=", ColumnRef("a", "t"), Parameter(0))
        assert value_of(expr, ROW, [5]) is True
        assert expr.bind([5]) == reference.bind(expr, [5])

    def test_parameter_missing_raises(self):
        with pytest.raises(ProgrammingError, match="parameter"):
            Parameter(2).bind([1])
        with pytest.raises(ProgrammingError, match="at least 3 parameter"):
            value_of(Parameter(2), params=[1])


class TestComparison:
    def test_operators(self):
        assert value_of(Comparison("=", lit(1), lit(1))) is True
        assert value_of(Comparison("!=", lit(1), lit(2))) is True
        assert value_of(Comparison("<", lit(1), lit(2))) is True
        assert value_of(Comparison("<=", lit(2), lit(2))) is True
        assert value_of(Comparison(">", lit(3), lit(2))) is True
        assert value_of(Comparison(">=", lit(1), lit(2))) is False

    def test_null_propagates(self):
        assert value_of(Comparison("=", ColumnRef("c", "t"), lit(1)), ROW) is None

    def test_unknown_operator(self):
        with pytest.raises(ProgrammingError):
            Comparison("~", lit(1), lit(1))

    def test_incomparable_types(self):
        with pytest.raises(ProgrammingError):
            value_of(Comparison("<", lit(1), lit("x")))


class TestLogic:
    def test_three_valued_and(self):
        null = lit(None)
        assert value_of(LogicalAnd(lit(True), lit(True))) is True
        assert value_of(LogicalAnd(lit(True), lit(False))) is False
        assert value_of(LogicalAnd(lit(False), null)) is False
        assert value_of(LogicalAnd(lit(True), null)) is None
        assert value_of(LogicalAnd(null, null)) is None

    def test_three_valued_or(self):
        null = lit(None)
        assert value_of(LogicalOr(lit(False), lit(True))) is True
        assert value_of(LogicalOr(lit(True), null)) is True
        assert value_of(LogicalOr(lit(False), null)) is None
        assert value_of(LogicalOr(lit(False), lit(False))) is False

    def test_not(self):
        assert value_of(LogicalNot(lit(True))) is False
        assert value_of(LogicalNot(lit(None))) is None


class TestPredicates:
    def test_is_null(self):
        assert value_of(IsNull(ColumnRef("c", "t")), ROW) is True
        assert value_of(IsNull(ColumnRef("a", "t")), ROW) is False
        assert value_of(IsNull(ColumnRef("c", "t"), negated=True), ROW) is False

    def test_in_list(self):
        expr = InList(ColumnRef("a", "t"), (lit(1), lit(5)))
        assert value_of(expr, ROW) is True
        expr = InList(ColumnRef("a", "t"), (lit(1), lit(2)))
        assert value_of(expr, ROW) is False

    def test_in_list_null_semantics(self):
        # 5 IN (1, NULL) is NULL; 5 NOT IN (1, NULL) is NULL.
        expr = InList(lit(5), (lit(1), lit(None)))
        assert value_of(expr) is None
        expr = InList(lit(5), (lit(1), lit(None)), negated=True)
        assert value_of(expr) is None
        # But 5 IN (5, NULL) is TRUE.
        expr = InList(lit(5), (lit(5), lit(None)))
        assert value_of(expr) is True

    def test_like_wildcards(self):
        assert value_of(Like(lit("End User Services"), lit("%user%"))) is True
        assert value_of(Like(lit("deal"), lit("d_al"))) is True
        assert value_of(Like(lit("deal"), lit("d_l"))) is False

    def test_like_case_insensitive(self):
        assert value_of(Like(lit("ABC"), lit("abc"))) is True

    def test_like_escapes_regex_chars(self):
        assert value_of(Like(lit("a.b"), lit("a.b"))) is True
        assert value_of(Like(lit("axb"), lit("a.b"))) is False

    def test_like_null(self):
        assert value_of(Like(lit(None), lit("%"))) is None

    def test_like_requires_text(self):
        with pytest.raises(ProgrammingError):
            value_of(Like(lit(5), lit("%")))

    def test_like_matches_the_whole_value(self):
        # ``$`` also matches before a trailing newline; LIKE must not.
        assert value_of(Like(lit("ab\n"), lit("ab"))) is False
        assert value_of(Like(lit("ab\n"), lit("%b"))) is False
        assert value_of(Like(lit("ab\n"), lit("ab_"))) is True
        assert value_of(Like(lit("a\nb"), lit("a%b"))) is True

    def test_like_escape_makes_wildcards_literal(self):
        def like(value, pattern, escape="\\"):
            return value_of(Like(lit(value), lit(pattern), escape=escape))

        assert like("50%_off", "50\\%\\_off") is True
        assert like("5000 off", "50\\%\\_off") is False
        assert like("a\\b", "a\\\\b") is True
        assert like("100%", "%!%", escape="!") is True
        assert like("100", "%!%", escape="!") is False
        # A trailing escape character stands for itself.
        assert like("a\\", "a\\") is True
        # Without ESCAPE the backslash is an ordinary character.
        assert value_of(Like(lit("a\\%"), lit("a\\%"))) is True
        assert value_of(Like(lit("ab"), lit("a\\%"))) is False

    def test_escape_like_round_trips_any_text(self):
        for text in ("%", "_", "\\", "50%_off", "a\\%b", "plain", ""):
            pattern = escape_like(text)
            assert value_of(Like(lit(text), lit(pattern), escape="\\"))
            if text:
                assert not value_of(Like(
                    lit("x" * len(text)), lit(pattern), escape="\\"
                ))
        assert escape_like("a!b%", "!") == "a!!b!%"

    def test_like_pattern_compiles_once_per_execution(self, monkeypatch):
        # The pattern cache used to stop admitting at 4,096 entries and
        # was consulted per row, so a long-lived process re-translated
        # and recompiled every later pattern for each row it met.
        db = Database()
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
        assert value_of(Arithmetic("+", lit(2), lit(3))) == 5
        assert value_of(Arithmetic("-", lit(2), lit(3))) == -1
        assert value_of(Arithmetic("*", lit(2), lit(3))) == 6
        assert value_of(Arithmetic("/", lit(6), lit(3))) == 2

    def test_division_by_zero_is_null(self):
        assert value_of(Arithmetic("/", lit(1), lit(0))) is None

    def test_string_concat_via_plus(self):
        assert value_of(Arithmetic("+", lit("a"), lit("b"))) == "ab"

    def test_null_propagates(self):
        assert value_of(Arithmetic("+", lit(None), lit(1))) is None

    def test_functions(self):
        assert value_of(FunctionCall("lower", (lit("ABC"),))) == "abc"
        assert value_of(FunctionCall("upper", (lit("abc"),))) == "ABC"
        assert value_of(FunctionCall("length", (lit("abcd"),))) == 4
        assert value_of(FunctionCall("trim", (lit(" x "),))) == "x"
        assert value_of(FunctionCall("abs", (lit(-3),))) == 3

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
