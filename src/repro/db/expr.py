"""Expression AST and its one evaluator, :func:`compile_expression`.

The classes here are the parsed form: they hold operands, report the
columns they reference and substitute ``?`` placeholders
(:meth:`Expression.bind`), and evaluate nothing.  Evaluation is
:func:`compile_expression`: it lowers a tree to a closure over a *stored
row tuple* whose column slots were resolved once, when the statement was
planned.  Every WHERE, select item and ORDER BY key of SELECT and
DELETE runs as such a closure; a column
reference names a slot by :meth:`ColumnRef.resolve`.  The tree-walking
interpreter the compiler is held to is the test oracle
``tests/reference/expr.py``.

NULL handling follows SQL three-valued logic: comparisons with NULL
yield NULL (represented as None), AND/OR propagate it per the usual
truth tables, and the executor treats a non-True WHERE result as "row
filtered out".
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ProgrammingError

__all__ = [
    "Expression",
    "Literal",
    "ColumnRef",
    "Parameter",
    "Comparison",
    "LogicalAnd",
    "LogicalOr",
    "LogicalNot",
    "IsNull",
    "InList",
    "Like",
    "Arithmetic",
    "FunctionCall",
    "compile_expression",
    "escape_like",
]

# A compiled expression, bound to one execution's parameters, reads a
# stored row tuple; a Binder makes one from those parameters.
RowFunction = Callable[[Tuple[Any, ...]], Any]
Binder = Callable[[Sequence[Any]], RowFunction]


class Expression:
    """Base class for all expression nodes."""

    def children(self) -> Iterator["Expression"]:
        """The operand expressions, in the order they evaluate."""
        for attr in vars(self).values():
            if isinstance(attr, Expression):
                yield attr
            elif isinstance(attr, tuple):
                for element in attr:
                    if isinstance(element, Expression):
                        yield element

    def references(self) -> Iterator[str]:
        """Yield column references appearing in this subtree."""
        for child in self.children():
            yield from child.references()

    def bind(self, params: Sequence[Any]) -> "Expression":
        """Return a copy with :class:`Parameter` placeholders substituted."""
        if next(self.children(), None) is None:
            return self

        def bound(attr: Any) -> Any:
            if isinstance(attr, Expression):
                return attr.bind(params)
            if isinstance(attr, tuple):
                return tuple(bound(element) for element in attr)
            return attr

        return type(self)(
            **{name: bound(attr) for name, attr in vars(self).items()}
        )


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any


@dataclass(frozen=True)
class Parameter(Expression):
    """A positional ``?`` placeholder, substituted at bind time."""

    position: int

    def bind(self, params: Sequence[Any]) -> Expression:
        if self.position >= len(params):
            raise ProgrammingError(
                f"query expects at least {self.position + 1} parameter(s), "
                f"got {len(params)}"
            )
        return Literal(params[self.position])


@dataclass(frozen=True)
class ColumnRef(Expression):
    """Reference to a column, optionally qualified with a table alias."""

    name: str
    table: Optional[str] = None

    @property
    def key(self) -> str:
        """Lookup key in the row context."""
        if self.table:
            return f"{self.table.lower()}.{self.name.lower()}"
        return self.name.lower()

    def resolve(self, keys: Mapping[str, Any]) -> str:
        """Which of a row context's ``keys`` this reference names: its
        own key, else — unqualified — the one key it is a suffix of."""
        key = self.key
        if key in keys:
            return key
        if self.table is None:
            suffix = "." + key
            matches = [k for k in keys if k.endswith(suffix)]
            if len(matches) == 1:
                return matches[0]
            if len(matches) > 1:
                raise ProgrammingError(f"ambiguous column {self.name!r}")
        raise ProgrammingError(f"unknown column {key!r}")

    def references(self) -> Iterator[str]:
        yield self.key


_COMPARATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass(frozen=True)
class Comparison(Expression):
    """Binary comparison with SQL NULL semantics."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ProgrammingError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True)
class LogicalAnd(Expression):
    """Three-valued AND."""

    left: Expression
    right: Expression


@dataclass(frozen=True)
class LogicalOr(Expression):
    """Three-valued OR."""

    left: Expression
    right: Expression


@dataclass(frozen=True)
class LogicalNot(Expression):
    """Three-valued NOT."""

    operand: Expression


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL`` — the only NULL-safe predicate."""

    operand: Expression
    negated: bool = False


@dataclass(frozen=True)
class InList(Expression):
    """``expr [NOT] IN (v1, v2, ...)``."""

    operand: Expression
    choices: Tuple[Expression, ...]
    negated: bool = False


@dataclass(frozen=True)
class Like(Expression):
    """SQL LIKE with ``%`` and ``_`` wildcards, case-insensitive.

    Case-insensitivity matches DB2's typical configuration for the
    synopsis tables and is what the paper's form-based queries need
    ("End User Services" vs "end user services").  With ``escape`` (the
    one character of ``LIKE ... ESCAPE 'c'``) the character after each
    ``c`` in the pattern stands for itself, so a ``%`` or ``_`` in user
    text can be matched literally — see :func:`escape_like`.
    """

    operand: Expression
    pattern: Expression
    negated: bool = False
    escape: Optional[str] = None


def escape_like(text: str, escape: str = "\\") -> str:
    """``text`` with ``%``, ``_`` and ``escape`` made literal for
    ``LIKE ... ESCAPE escape``."""
    for special in (escape, "%", "_"):
        text = text.replace(special, escape + special)
    return text


_ANY, _ONE = object(), object()  # the ``%`` and ``_`` of a parsed pattern


def _like_tokens(pattern: str, escape: Optional[str]) -> List[Any]:
    """``pattern`` as literal characters, ``_ANY`` and ``_ONE``.  A
    trailing escape character stands for itself."""
    tokens: List[Any] = []
    chars = iter(pattern)
    for ch in chars:
        if ch == escape:
            tokens.append(next(chars, ch))
        elif ch == "%":
            tokens.append(_ANY)
        elif ch == "_":
            tokens.append(_ONE)
        else:
            tokens.append(ch)
    return tokens


@lru_cache(maxsize=256)
def _like_regex(pattern: str, escape: Optional[str] = None) -> "re.Pattern[str]":
    """The pattern as a regex to ``fullmatch`` a value with.  The
    definition of LIKE here: every other way to match must agree with
    it, Unicode case folding included."""
    regex = "".join(
        ".*" if token is _ANY else "." if token is _ONE else re.escape(token)
        for token in _like_tokens(pattern, escape)
    )
    return re.compile(regex, re.IGNORECASE | re.DOTALL)


def _like_matcher(
    pattern: str, escape: Optional[str]
) -> Callable[[str], bool]:
    """A ``value -> bool`` for one constant pattern, classified once.

    ``%x%``, ``x%``, ``%x`` and ``x`` with no other wildcard are a
    substring, prefix, suffix or equality test on the lowered value —
    when both ``x`` and the value are ASCII, where ``str.lower`` and the
    regex's case folding cannot disagree.  Anything else (an inner
    wildcard, a non-ASCII pattern, a non-ASCII value) goes to the regex,
    compiled on first use."""

    def by_regex(value: str) -> bool:
        return _like_regex(pattern, escape).fullmatch(value) is not None

    tokens = _like_tokens(pattern, escape)
    start, end = 0, len(tokens)
    while start < end and tokens[start] is _ANY:
        start += 1
    while end > start and tokens[end - 1] is _ANY:
        end -= 1
    core = tokens[start:end]
    if _ANY in core or _ONE in core or not "".join(core).isascii():
        return by_regex
    needle = "".join(core).lower()
    lead, trail = start > 0, end < len(tokens)
    if lead and trail:
        return lambda v: needle in v.lower() if v.isascii() else by_regex(v)
    if trail:
        return lambda v: (
            v.lower().startswith(needle) if v.isascii() else by_regex(v)
        )
    if lead:
        return lambda v: (
            v.lower().endswith(needle) if v.isascii() else by_regex(v)
        )
    return lambda v: v.lower() == needle if v.isascii() else by_regex(v)


_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


@dataclass(frozen=True)
class Arithmetic(Expression):
    """Binary arithmetic (+ also concatenates TEXT, like DB2's ||)."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _ARITHMETIC:
            raise ProgrammingError(f"unknown arithmetic operator {self.op!r}")


_FUNCTIONS = {
    "lower": lambda v: v.lower() if isinstance(v, str) else v,
    "upper": lambda v: v.upper() if isinstance(v, str) else v,
    "length": lambda v: len(v) if v is not None else None,
    "trim": lambda v: v.strip() if isinstance(v, str) else v,
    "abs": lambda v: abs(v) if v is not None else None,
}


@dataclass(frozen=True)
class FunctionCall(Expression):
    """Scalar function call (LOWER, UPPER, LENGTH, TRIM, ABS)."""

    name: str
    args: Tuple[Expression, ...]

    def __post_init__(self) -> None:
        if self.name.lower() not in _FUNCTIONS:
            raise ProgrammingError(f"unknown function {self.name!r}")
        if len(self.args) != 1:
            raise ProgrammingError(
                f"function {self.name!r} takes exactly one argument"
            )


def _as_bool(value: Any) -> Optional[bool]:
    if value is None:
        return None
    return bool(value)


# ---------------------------------------------------------------------------
# Compilation: lower an Expression tree to closures over stored row tuples
# ---------------------------------------------------------------------------


class _Const:
    """A row function that is one value: a literal, or a ``?`` bound.
    LIKE and IN test for it to specialise on constant operands."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __call__(self, row: Tuple[Any, ...]) -> Any:
        return self.value


class _Static:
    """A binder for a subtree holding no ``?``: bound once, at plan time."""

    __slots__ = ("function",)

    def __init__(self, function: RowFunction) -> None:
        self.function = function

    def __call__(self, params: Sequence[Any]) -> RowFunction:
        return self.function


def _raiser(message: str) -> RowFunction:
    """What an expression that cannot be evaluated compiles to: the
    error waits until a row reaches it, as the reference interpreter's
    (``tests/reference/expr.py``) does."""

    def _raise(row: Tuple[Any, ...]) -> Any:
        raise ProgrammingError(message)

    return _raise


def compile_expression(
    expression: Expression,
    slots: Mapping[str, int],
    computed: Optional[Mapping[Expression, int]] = None,
) -> Binder:
    """Lower ``expression`` to a binder ``params -> (row -> value)``.

    The row function evaluates ``expression`` on a stored row tuple
    under the module docstring's NULL rules.  Work is split over three
    moments:

    * *now* (plan time): every :class:`ColumnRef` resolves to a slot of
      ``slots`` (context key -> tuple position), and every subtree
      without a ``?`` is bound for good;
    * *per execution* (calling the binder): each ``?`` becomes a
      constant, a constant LIKE pattern is classified
      (:func:`_like_matcher`) and a constant IN list becomes one
      containment test;
    * *per row*: ``row[slot]`` reads and the operators, nothing else.

    ``computed`` maps subtrees the executor evaluates itself (aggregate
    calls) to the slots it appends their values at.

    Nothing raises before a row arrives: an unknown or ambiguous column
    (:meth:`ColumnRef.resolve`) and a missing parameter
    (:meth:`Parameter.bind`) compile to a function that raises their
    :class:`ProgrammingError` when called.  Binders and row functions
    hold no per-execution state, so one compiled plan serves concurrent
    executions.
    """
    if computed and expression in computed:
        return _Static(operator.itemgetter(computed[expression]))

    if isinstance(expression, ColumnRef):
        try:
            slot = slots[expression.resolve(slots)]
        except ProgrammingError as exc:
            return _Static(_raiser(str(exc)))
        return _Static(operator.itemgetter(slot))

    if isinstance(expression, Parameter):

        def bind_parameter(params: Sequence[Any]) -> RowFunction:
            try:
                return _Const(expression.bind(params).value)
            except ProgrammingError as exc:
                return _raiser(str(exc))

        return bind_parameter

    build = _BUILDERS.get(type(expression))
    if build is None:
        # Only an AggregateCall outside ``computed`` gets here.
        return _Static(
            _raiser("aggregate evaluated outside GROUP BY context")
        )

    operands = [
        compile_expression(child, slots, computed)
        for child in expression.children()
    ]
    if all(isinstance(operand, _Static) for operand in operands):
        return _Static(build(expression, [o.function for o in operands]))
    return lambda params: build(expression, [o(params) for o in operands])


# Builders: (node, its operands' row functions) -> the node's row function.


def _build_comparison(node: Comparison, operands: List[Any]) -> RowFunction:
    comparator = _COMPARATORS[node.op]
    left, right = operands

    def _compare(row: Tuple[Any, ...]) -> Optional[bool]:
        a = left(row)
        b = right(row)
        if a is None or b is None:
            return None
        try:
            return comparator(a, b)
        except TypeError as exc:
            raise ProgrammingError(
                f"cannot compare {type(a).__name__} with "
                f"{type(b).__name__}"
            ) from exc

    return _compare


def _build_and(node: LogicalAnd, operands: List[Any]) -> RowFunction:
    left, right = operands

    def _and(row: Tuple[Any, ...]) -> Optional[bool]:
        a = _as_bool(left(row))
        if a is False:
            return False
        b = _as_bool(right(row))
        if b is False:
            return False
        if a is None or b is None:
            return None
        return True

    return _and


def _build_or(node: LogicalOr, operands: List[Any]) -> RowFunction:
    left, right = operands

    def _or(row: Tuple[Any, ...]) -> Optional[bool]:
        a = _as_bool(left(row))
        if a is True:
            return True
        b = _as_bool(right(row))
        if b is True:
            return True
        if a is None or b is None:
            return None
        return False

    return _or


def _build_not(node: LogicalNot, operands: List[Any]) -> RowFunction:
    (operand,) = operands

    def _not(row: Tuple[Any, ...]) -> Optional[bool]:
        value = _as_bool(operand(row))
        if value is None:
            return None
        return not value

    return _not


def _build_is_null(node: IsNull, operands: List[Any]) -> RowFunction:
    (operand,) = operands
    if node.negated:
        return lambda row: operand(row) is not None
    return lambda row: operand(row) is None


def _build_in(node: InList, operands: List[Any]) -> RowFunction:
    operand, *choices = operands
    negated = node.negated

    if all(isinstance(choice, _Const) for choice in choices):
        values = tuple(c.value for c in choices if c.value is not None)
        # ``in`` tries identity before ``==``; only a NaN could tell.
        if all(value == value for value in values):
            hit = not negated
            miss = None if len(values) < len(choices) else negated

            def _in_constants(row: Tuple[Any, ...]) -> Optional[bool]:
                value = operand(row)
                if value is None:
                    return None
                return hit if value in values else miss

            return _in_constants

    def _in(row: Tuple[Any, ...]) -> Optional[bool]:
        value = operand(row)
        if value is None:
            return None
        saw_null = False
        for choice in choices:
            candidate = choice(row)
            if candidate is None:
                saw_null = True
            elif candidate == value:
                return not negated
        if saw_null:
            return None
        return negated

    return _in


def _build_like(node: Like, operands: List[Any]) -> RowFunction:
    operand, pattern = operands
    negated, escape = node.negated, node.escape

    if isinstance(pattern, _Const) and isinstance(pattern.value, str):
        matches = _like_matcher(pattern.value, escape)

        def _like_constant(row: Tuple[Any, ...]) -> Optional[bool]:
            value = operand(row)
            if value is None:
                return None
            if not isinstance(value, str):
                raise ProgrammingError("LIKE requires text operands")
            return matches(value) is not negated

        return _like_constant

    def _like(row: Tuple[Any, ...]) -> Optional[bool]:
        value = operand(row)
        text = pattern(row)
        if value is None or text is None:
            return None
        if not isinstance(value, str) or not isinstance(text, str):
            raise ProgrammingError("LIKE requires text operands")
        result = _like_regex(text, escape).fullmatch(value) is not None
        return result is not negated

    return _like


def _build_arithmetic(node: Arithmetic, operands: List[Any]) -> RowFunction:
    operate = _ARITHMETIC[node.op]
    op = node.op
    left, right = operands

    def _arithmetic(row: Tuple[Any, ...]) -> Any:
        a = left(row)
        b = right(row)
        if a is None or b is None:
            return None
        if op == "/" and b == 0:
            return None
        try:
            return operate(a, b)
        except TypeError as exc:
            raise ProgrammingError(
                f"invalid operands for {op!r}: "
                f"{type(a).__name__}, {type(b).__name__}"
            ) from exc

    return _arithmetic


def _build_call(node: FunctionCall, operands: List[Any]) -> RowFunction:
    function = _FUNCTIONS[node.name.lower()]
    (argument,) = operands

    def _call(row: Tuple[Any, ...]) -> Any:
        value = argument(row)
        if value is None:
            return None
        return function(value)

    return _call


_BUILDERS: Dict[type, Callable[[Any, List[Any]], RowFunction]] = {
    Literal: lambda node, operands: _Const(node.value),
    Comparison: _build_comparison,
    LogicalAnd: _build_and,
    LogicalOr: _build_or,
    LogicalNot: _build_not,
    IsNull: _build_is_null,
    InList: _build_in,
    Like: _build_like,
    Arithmetic: _build_arithmetic,
    FunctionCall: _build_call,
}
