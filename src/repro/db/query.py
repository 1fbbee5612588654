"""Logical query model for SELECT, and the helpers its executor shares.

This module holds the statement model (:class:`SelectStatement` and
friends), :class:`ResultSet`, and the shape helpers (conjunct splitting,
equi-join detection, star expansion, output naming, NULLS-LAST ordering)
that :class:`repro.db.plan.SelectPlan` — the one SELECT executor — is
built from.  The seed's row-at-a-time interpreter is no longer here: it
is the test oracle ``tests/reference/select.py``, which imports the same
helpers.

The founding contract is unchanged: access-path selection and every
planner optimization can never change results, only speed.  The WHERE
clause is always fully re-applied, conjunct-by-conjunct at pushed-down
pipeline positions.  ``ResultSet.plan`` reports which paths were
chosen; tests assert on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.db.expr import ColumnRef, Comparison, Expression, LogicalAnd
from repro.db.table import Table
from repro.errors import ProgrammingError

__all__ = [
    "AggregateCall",
    "SelectItem",
    "TableRef",
    "Join",
    "OrderItem",
    "SelectStatement",
    "ResultSet",
]


# ---------------------------------------------------------------------------
# Statement model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AggregateCall(Expression):
    """COUNT/SUM/AVG/MIN/MAX over a group.

    ``arg`` is None only for ``COUNT(*)``.  Aggregates are computed by
    the executor's grouping stage; anywhere else one compiles to an
    error (``aggregate evaluated outside GROUP BY context``).
    """

    func: str
    arg: Optional[Expression] = None
    distinct: bool = False

    _FUNCS = ("count", "sum", "avg", "min", "max")

    def __post_init__(self) -> None:
        if self.func.lower() not in self._FUNCS:
            raise ProgrammingError(f"unknown aggregate {self.func!r}")
        if self.arg is None and self.func.lower() != "count":
            raise ProgrammingError(f"{self.func}(*) is not valid")


@dataclass(frozen=True)
class SelectItem:
    """One projected output column; ``star=True`` expands to all columns."""

    expr: Optional[Expression] = None
    alias: Optional[str] = None
    star: bool = False
    star_table: Optional[str] = None  # for `alias.*`

    def __post_init__(self) -> None:
        if not self.star and self.expr is None:
            raise ProgrammingError("select item needs an expression or *")


@dataclass(frozen=True)
class TableRef:
    """A table in the FROM clause with an optional alias."""

    table: str
    alias: Optional[str] = None

    @property
    def name(self) -> str:
        """The name rows from this source are qualified with."""
        return (self.alias or self.table).lower()


@dataclass(frozen=True)
class Join:
    """One JOIN clause."""

    ref: TableRef
    on: Expression
    kind: str = "inner"  # 'inner' | 'left'

    def __post_init__(self) -> None:
        if self.kind not in ("inner", "left"):
            raise ProgrammingError(f"unsupported join kind {self.kind!r}")


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    expr: Expression
    descending: bool = False


@dataclass(frozen=True)
class SelectStatement:
    """A fully parsed/constructed SELECT."""

    items: Tuple[SelectItem, ...]
    from_ref: TableRef
    joins: Tuple[Join, ...] = ()
    where: Optional[Expression] = None
    group_by: Tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: int = 0
    distinct: bool = False


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class ResultSet:
    """Materialized query result.

    Attributes:
        columns: Output column names, in order.
        rows: Result tuples.
        plan: Human-readable access-path notes from the planner.
    """

    columns: List[str]
    rows: List[Tuple[Any, ...]]
    plan: List[str] = field(default_factory=list)

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def first(self) -> Optional[Tuple[Any, ...]]:
        """The first row, or None if empty."""
        return self.rows[0] if self.rows else None

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ProgrammingError(
                f"scalar() needs a 1x1 result, got "
                f"{len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Rows as a list of column->value dicts."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str) -> List[Any]:
        """All values of the named output column."""
        try:
            position = self.columns.index(name)
        except ValueError:
            raise ProgrammingError(f"no output column {name!r}") from None
        return [row[position] for row in self.rows]


# ---------------------------------------------------------------------------
# Shape helpers shared by the planner and the test oracle
# ---------------------------------------------------------------------------


def _conjuncts(expression: Optional[Expression]) -> List[Expression]:
    if expression is None:
        return []
    if isinstance(expression, LogicalAnd):
        return _conjuncts(expression.left) + _conjuncts(expression.right)
    return [expression]


def _column_of(
    expression: Expression, source: TableRef, table: Table
) -> Optional[str]:
    """If ``expression`` is a ColumnRef on ``source``, its column name."""
    if not isinstance(expression, ColumnRef):
        return None
    if expression.table is not None and expression.table.lower() != source.name:
        return None
    if not table.schema.has_column(expression.name):
        return None
    return expression.name.lower()


def _equi_join_keys(
    on: Expression, left_names: List[str], right_name: str
) -> Optional[Tuple[ColumnRef, ColumnRef]]:
    """Detect ``left.col = right.col`` to enable a hash join."""
    if not (isinstance(on, Comparison) and on.op == "="):
        return None
    sides = [on.left, on.right]
    if not all(isinstance(side, ColumnRef) and side.table for side in sides):
        return None
    a, b = sides  # type: ignore[assignment]
    if a.table.lower() in left_names and b.table.lower() == right_name:
        return a, b
    if b.table.lower() in left_names and a.table.lower() == right_name:
        return b, a
    return None


def _expand_items(
    statement: SelectStatement, catalog: Any, seen_names: List[str]
) -> List[SelectItem]:
    refs = {statement.from_ref.name: statement.from_ref.table}
    for join in statement.joins:
        refs[join.ref.name] = join.ref.table
    items: List[SelectItem] = []
    for item in statement.items:
        if not item.star:
            items.append(item)
            continue
        targets = (
            [item.star_table.lower()] if item.star_table else seen_names
        )
        for name in targets:
            if name not in refs:
                raise ProgrammingError(f"unknown table alias {name!r}")
            schema = catalog.table(refs[name]).schema
            for column in schema.column_names:
                items.append(
                    SelectItem(ColumnRef(column, name), alias=column)
                )
    return items


def _output_name(item: SelectItem, position: int) -> str:
    if item.alias:
        return item.alias.lower()
    if isinstance(item.expr, ColumnRef):
        return item.expr.name.lower()
    if isinstance(item.expr, AggregateCall):
        return item.expr.func.lower()
    return f"col{position}"


def _contains_aggregate(expression: Optional[Expression]) -> bool:
    if expression is None:
        return False
    if isinstance(expression, AggregateCall):
        return True
    return any(_contains_aggregate(c) for c in expression.children())


class _NullsLast:
    """Sort key wrapper: None sorts after every value, SQL-style."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_NullsLast") -> bool:
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _NullsLast) and self.value == other.value


def grouped_key_position(
    expression: Expression,
    items: List[SelectItem],
    column_names: List[str],
) -> int:
    """Resolve a grouped ORDER BY key to an output column position.

    A key matches by output column name (aliases included) or by
    structural equality with a select item's expression; anything else
    is an error because grouped rows only carry output columns."""
    if isinstance(expression, ColumnRef):
        name = expression.name.lower()
        if name in column_names:
            return column_names.index(name)
    for position, item in enumerate(items):
        if item.expr == expression:
            return position
    raise ProgrammingError(
        "ORDER BY with GROUP BY must reference an output column"
    )
