"""The expression oracle: the tree-walking interpreter.

These are the ``evaluate`` / ``bind`` method bodies ``repro.db.expr`` and
``repro.db.query`` carried until ``compile_expression`` became the only
way ``repro.db`` evaluates anything, relocated as functions over the
same AST.  :func:`evaluate` interprets a tree against a *row context*: a
mapping from column reference (possibly qualified, ``deals.deal_id``) to
value.  Nothing is resolved ahead of time, classified or specialised on
constant operands, which is what makes it the statement of what a
compiled row function must return.

From ``repro.db.expr`` it takes the node classes and
:meth:`ColumnRef.resolve` (which key of a context a reference names);
the operator tables, the LIKE translation and the three-valued logic
are its own.
"""

import operator
import re
from typing import Any, Mapping, Optional, Sequence

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
)
from repro.errors import ProgrammingError

__all__ = ["RowContext", "evaluate", "bind"]

RowContext = Mapping[str, Any]


def evaluate(expression: Expression, row: RowContext) -> Any:
    """Evaluate against ``row``; None encodes SQL NULL/UNKNOWN."""
    return _EVALUATORS[type(expression)](expression, row)


def bind(node: Any, params: Sequence[Any]) -> Any:
    """A copy of an expression or SELECT with each ``?`` placeholder
    replaced by the :class:`Literal` of its parameter."""
    if isinstance(node, SelectStatement):
        return _bind_select(node, params)
    if isinstance(node, Parameter):
        if node.position >= len(params):
            raise ProgrammingError(
                f"query expects at least {node.position + 1} parameter(s), "
                f"got {len(params)}"
            )
        return Literal(params[node.position])
    if next(node.children(), None) is None:
        return node

    def bound(attr: Any) -> Any:
        if isinstance(attr, Expression):
            return bind(attr, params)
        if isinstance(attr, tuple):
            return tuple(bound(element) for element in attr)
        return attr

    return type(node)(
        **{name: bound(attr) for name, attr in vars(node).items()}
    )


def _bind_select(
    statement: SelectStatement, params: Sequence[Any]
) -> SelectStatement:
    return SelectStatement(
        items=tuple(
            SelectItem(
                bind(item.expr, params) if item.expr else None,
                item.alias,
                item.star,
                item.star_table,
            )
            for item in statement.items
        ),
        from_ref=statement.from_ref,
        joins=tuple(
            Join(j.ref, bind(j.on, params), j.kind) for j in statement.joins
        ),
        where=bind(statement.where, params) if statement.where else None,
        group_by=tuple(bind(g, params) for g in statement.group_by),
        having=bind(statement.having, params) if statement.having else None,
        order_by=tuple(
            OrderItem(bind(o.expr, params), o.descending)
            for o in statement.order_by
        ),
        limit=statement.limit,
        offset=statement.offset,
        distinct=statement.distinct,
    )


def _literal(node: Literal, row: RowContext) -> Any:
    return node.value


def _parameter(node: Parameter, row: RowContext) -> Any:
    raise ProgrammingError(
        f"unbound parameter at position {node.position}; "
        "pass params to execute()"
    )


def _column(node: ColumnRef, row: RowContext) -> Any:
    return row[node.resolve(row)]


_COMPARATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _comparison(node: Comparison, row: RowContext) -> Optional[bool]:
    left = evaluate(node.left, row)
    right = evaluate(node.right, row)
    if left is None or right is None:
        return None
    try:
        return _COMPARATORS[node.op](left, right)
    except TypeError as exc:
        raise ProgrammingError(
            f"cannot compare {type(left).__name__} with "
            f"{type(right).__name__}"
        ) from exc


def _and(node: LogicalAnd, row: RowContext) -> Optional[bool]:
    left = _as_bool(evaluate(node.left, row))
    if left is False:
        return False
    right = _as_bool(evaluate(node.right, row))
    if right is False:
        return False
    if left is None or right is None:
        return None
    return True


def _or(node: LogicalOr, row: RowContext) -> Optional[bool]:
    left = _as_bool(evaluate(node.left, row))
    if left is True:
        return True
    right = _as_bool(evaluate(node.right, row))
    if right is True:
        return True
    if left is None or right is None:
        return None
    return False


def _not(node: LogicalNot, row: RowContext) -> Optional[bool]:
    value = _as_bool(evaluate(node.operand, row))
    if value is None:
        return None
    return not value


def _is_null(node: IsNull, row: RowContext) -> bool:
    is_null = evaluate(node.operand, row) is None
    return not is_null if node.negated else is_null


def _in_list(node: InList, row: RowContext) -> Optional[bool]:
    value = evaluate(node.operand, row)
    if value is None:
        return None
    found = False
    saw_null = False
    for choice in node.choices:
        candidate = evaluate(choice, row)
        if candidate is None:
            saw_null = True
        elif candidate == value:
            found = True
            break
    if found:
        return not node.negated
    if saw_null:
        return None
    return node.negated


def _like(node: Like, row: RowContext) -> Optional[bool]:
    value = evaluate(node.operand, row)
    pattern = evaluate(node.pattern, row)
    if value is None or pattern is None:
        return None
    if not isinstance(value, str) or not isinstance(pattern, str):
        raise ProgrammingError("LIKE requires text operands")
    result = _like_regex(pattern, node.escape).fullmatch(value) is not None
    return not result if node.negated else result


def _like_regex(pattern: str, escape: Optional[str]) -> "re.Pattern[str]":
    """The pattern as a case-insensitive regex to ``fullmatch`` a value
    with: ``%`` is any run, ``_`` any one character, the character after
    ``escape`` (and a trailing ``escape``) stands for itself."""
    regex = []
    chars = iter(pattern)
    for ch in chars:
        if ch == escape:
            regex.append(re.escape(next(chars, ch)))
        elif ch == "%":
            regex.append(".*")
        elif ch == "_":
            regex.append(".")
        else:
            regex.append(re.escape(ch))
    return re.compile("".join(regex), re.IGNORECASE | re.DOTALL)


_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


def _arithmetic(node: Arithmetic, row: RowContext) -> Any:
    left = evaluate(node.left, row)
    right = evaluate(node.right, row)
    if left is None or right is None:
        return None
    if node.op == "/" and right == 0:
        return None
    try:
        return _ARITHMETIC[node.op](left, right)
    except TypeError as exc:
        raise ProgrammingError(
            f"invalid operands for {node.op!r}: "
            f"{type(left).__name__}, {type(right).__name__}"
        ) from exc


_FUNCTIONS = {
    "lower": lambda v: v.lower() if isinstance(v, str) else v,
    "upper": lambda v: v.upper() if isinstance(v, str) else v,
    "length": lambda v: len(v) if v is not None else None,
    "trim": lambda v: v.strip() if isinstance(v, str) else v,
    "abs": lambda v: abs(v) if v is not None else None,
}


def _call(node: FunctionCall, row: RowContext) -> Any:
    value = evaluate(node.args[0], row)
    if value is None:
        return None
    return _FUNCTIONS[node.name.lower()](value)


def _aggregate(node: AggregateCall, row: RowContext) -> Any:
    raise ProgrammingError("aggregate evaluated outside GROUP BY context")


def _as_bool(value: Any) -> Optional[bool]:
    if value is None:
        return None
    return bool(value)


_EVALUATORS = {
    Literal: _literal,
    Parameter: _parameter,
    ColumnRef: _column,
    Comparison: _comparison,
    LogicalAnd: _and,
    LogicalOr: _or,
    LogicalNot: _not,
    IsNull: _is_null,
    InList: _in_list,
    Like: _like,
    Arithmetic: _arithmetic,
    FunctionCall: _call,
    AggregateCall: _aggregate,
}
