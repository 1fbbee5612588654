"""The db oracle: the seed's row-at-a-time SELECT interpreter.

This is the executor ``repro.db`` shipped before it had a planner,
relocated here verbatim when the planner became the only production
path (less the sorted-index range path, which went with
``repro.db``'s).  It binds parameters into the statement, picks at
most one index for the driving table, materializes every join input,
re-applies the whole WHERE after the joins, materializes each group's
rows before folding aggregates over them, fully sorts, and slices
last.  Nothing is compiled, pushed down, streamed or cut short, which
is what makes it the statement of what
:class:`repro.db.plan.SelectPlan` must return:
``tests/db/test_plan_equivalence.py`` compares the two on rows,
columns and order.

It imports nothing from ``repro.db.plan`` and records no metrics, so a
suite may call it between production calls without moving a counter.
The statement model and the shape helpers (conjunct splitting,
equi-join detection, star expansion, output naming, NULLS-LAST keys)
come from ``repro.db.query``, as they did when this code lived there;
every expression is interpreted by ``tests/reference/expr.py``, so no
evaluation code is shared with the compiled executor it checks.
"""

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.db.expr import ColumnRef, Comparison, Expression, Literal
from repro.db.query import (
    AggregateCall,
    OrderItem,
    ResultSet,
    SelectItem,
    SelectStatement,
    TableRef,
    _column_of,
    _conjuncts,
    _contains_aggregate,
    _equi_join_keys,
    _expand_items,
    _NullsLast,
    _output_name,
    grouped_key_position,
)
from repro.db.table import Table

from tests.reference.expr import RowContext, bind, evaluate

__all__ = ["naive_execute_select"]


def _plan_base_rowids(
    table: Table,
    source: TableRef,
    where: Optional[Expression],
    plan: List[str],
) -> Iterable[int]:
    """Choose an access path for the driving table.

    Preference: single-column unique/equality index lookup, then full
    scan; a range conjunct takes no index.  Only constant (Literal)
    right sides qualify — parameters are bound before planning.
    """
    for conjunct in _conjuncts(where):
        if not isinstance(conjunct, Comparison) or conjunct.op != "=":
            continue
        left, right = conjunct.left, conjunct.right
        # Normalize `literal = column` to `column = literal`.
        if isinstance(left, Literal) and isinstance(right, ColumnRef):
            left, right = right, left
        if not isinstance(right, Literal) or right.value is None:
            continue
        column = _column_of(left, source, table)
        index = None if column is None else table.index_on((column,))
        if index is not None:
            plan.append(f"index lookup {index.name}({column}={right.value!r})")
            return sorted(index.lookup((right.value,)))

    plan.append(f"full scan {table.schema.name}")
    return (rowid for rowid, _ in table.scan())


def _null_row(table: Table, ref: TableRef) -> Dict[str, Any]:
    prefix = ref.name + "."
    return {prefix + c: None for c in table.schema.column_names}


def _contexts_for(
    table: Table, ref: TableRef, rowids: Iterable[int]
) -> List[Dict[str, Any]]:
    prefix = ref.name + "."
    columns = table.schema.column_names
    contexts = []
    for rowid in rowids:
        row = table.row(rowid)
        contexts.append({prefix + c: v for c, v in zip(columns, row)})
    return contexts


def naive_execute_select(
    catalog: Any, statement: SelectStatement, params: Sequence[Any] = ()
) -> ResultSet:
    """The seed row-at-a-time executor, kept as the reference.

    ``params`` replaces ``?`` placeholders positionally before planning,
    so parameter values participate in index selection.  This function
    is pure with respect to observability — it records no metrics — so
    equivalence tests can call it freely.
    """
    statement = bind(statement, params)
    plan: List[str] = []

    # FROM: driving table, index-assisted when WHERE allows.
    base_table = catalog.table(statement.from_ref.table)
    # Index pre-filter is only sound when its predicate applies to the
    # base table before joins; the full WHERE is re-applied after joins,
    # but a LEFT-joined row must not be lost to a pre-filter on another
    # table, which cannot happen since we only match base-table columns.
    rowids = _plan_base_rowids(base_table, statement.from_ref,
                               statement.where, plan)
    rows = _contexts_for(base_table, statement.from_ref, rowids)
    seen_names = [statement.from_ref.name]

    # JOINs.
    for join in statement.joins:
        right_table = catalog.table(join.ref.table)
        right_rows = _contexts_for(
            right_table, join.ref, (rid for rid, _ in right_table.scan())
        )
        keys = _equi_join_keys(join.on, seen_names, join.ref.name)
        joined: List[Dict[str, Any]] = []
        if keys is not None:
            left_key, right_key = keys
            plan.append(f"hash join {join.ref.name} on {right_key.key}")
            buckets: Dict[Any, List[Dict[str, Any]]] = {}
            for right_row in right_rows:
                key = right_row[right_key.key]
                if key is not None:
                    buckets.setdefault(key, []).append(right_row)
            for left_row in rows:
                matches = buckets.get(left_row.get(left_key.key), [])
                for right_row in matches:
                    merged = dict(left_row)
                    merged.update(right_row)
                    joined.append(merged)
                if not matches and join.kind == "left":
                    merged = dict(left_row)
                    merged.update(_null_row(right_table, join.ref))
                    joined.append(merged)
        else:
            plan.append(f"nested loop join {join.ref.name}")
            for left_row in rows:
                matched = False
                for right_row in right_rows:
                    merged = dict(left_row)
                    merged.update(right_row)
                    if evaluate(join.on, merged) is True:
                        joined.append(merged)
                        matched = True
                if not matched and join.kind == "left":
                    merged = dict(left_row)
                    merged.update(_null_row(right_table, join.ref))
                    joined.append(merged)
        rows = joined
        seen_names.append(join.ref.name)

    # WHERE.
    if statement.where is not None:
        rows = [r for r in rows if evaluate(statement.where, r) is True]

    # Expand stars and name output columns.
    items = _expand_items(statement, catalog, seen_names)
    column_names = [_output_name(item, position)
                    for position, item in enumerate(items)]

    has_aggregates = any(
        _contains_aggregate(item.expr) for item in items if item.expr
    ) or statement.group_by or statement.having is not None

    if has_aggregates:
        output_rows = _execute_grouped(statement, items, rows)
    else:
        output_rows = [
            tuple(evaluate(item.expr, row) for item in items)  # type: ignore[arg-type]
            for row in rows
        ]
        if statement.order_by:
            output_rows = _order(
                statement.order_by, rows, output_rows, items
            )

    if has_aggregates and statement.order_by:
        # Aggregated rows are ordered by output column only.
        output_rows = _order_grouped(
            statement.order_by, output_rows, items, column_names
        )

    if statement.distinct:
        output_rows = list(dict.fromkeys(output_rows))

    if statement.offset:
        output_rows = output_rows[statement.offset:]
    if statement.limit is not None:
        output_rows = output_rows[: statement.limit]

    return ResultSet(column_names, output_rows, plan)


def _compute_aggregate(
    call: AggregateCall, rows: Sequence[RowContext]
) -> Any:
    """Evaluate one aggregate over the materialized rows of one group."""
    func = call.func.lower()
    if call.arg is None:
        return len(rows)
    values = [evaluate(call.arg, row) for row in rows]
    values = [v for v in values if v is not None]
    if call.distinct:
        values = list(dict.fromkeys(values))
    if func == "count":
        return len(values)
    if not values:
        return None
    if func == "sum":
        return sum(values)
    if func == "avg":
        return sum(values) / len(values)
    if func == "min":
        return min(values)
    return max(values)


def _fold_aggregates(
    expression: Expression, group: Sequence[RowContext]
) -> Expression:
    """Replace every AggregateCall subtree with its computed Literal.

    This lets arbitrary expressions over aggregates (``COUNT(*) > 1``,
    ``SUM(a) / COUNT(a)``) evaluate with the ordinary machinery.
    """
    if isinstance(expression, AggregateCall):
        return Literal(_compute_aggregate(expression, list(group)))
    rebuilt: Dict[str, Any] = {}
    changed = False
    for name, attr in vars(expression).items():
        if isinstance(attr, Expression):
            folded = _fold_aggregates(attr, group)
            changed = changed or folded is not attr
            rebuilt[name] = folded
        elif isinstance(attr, tuple) and any(
            isinstance(element, Expression) for element in attr
        ):
            folded_tuple = tuple(
                _fold_aggregates(element, group)
                if isinstance(element, Expression)
                else element
                for element in attr
            )
            changed = changed or folded_tuple != attr
            rebuilt[name] = folded_tuple
        else:
            rebuilt[name] = attr
    if not changed:
        return expression
    return type(expression)(**rebuilt)


def _evaluate_with_groups(
    expression: Expression, group: List[RowContext], representative: RowContext
) -> Any:
    """Evaluate an output expression over a group.

    AggregateCall nodes (anywhere in the tree) compute over the whole
    group; the remaining structure is evaluated against the group's
    representative row (valid because GROUP BY keys are constant within
    a group).
    """
    return evaluate(_fold_aggregates(expression, group), representative)


def _execute_grouped(
    statement: SelectStatement,
    items: List[SelectItem],
    rows: List[Dict[str, Any]],
) -> List[Tuple[Any, ...]]:
    groups: Dict[Tuple, List[Dict[str, Any]]] = {}
    if statement.group_by:
        for row in rows:
            key = tuple(evaluate(g, row) for g in statement.group_by)
            groups.setdefault(key, []).append(row)
    else:
        groups[()] = rows  # global aggregate; empty input => one group

    output: List[Tuple[Any, ...]] = []
    for key in groups:
        group = groups[key]
        representative = group[0] if group else {}
        if statement.having is not None:
            if _evaluate_with_groups(
                statement.having, group, representative
            ) is not True:
                continue
        output.append(
            tuple(
                _evaluate_with_groups(item.expr, group, representative)  # type: ignore[arg-type]
                for item in items
            )
        )
    return output


def _order(
    order_by: Tuple[OrderItem, ...],
    rows: List[Dict[str, Any]],
    output_rows: List[Tuple[Any, ...]],
    items: List[SelectItem],
) -> List[Tuple[Any, ...]]:
    """Order non-grouped output by ORDER BY expressions over source rows."""
    paired = list(zip(rows, output_rows))
    for order_item in reversed(order_by):
        paired.sort(
            key=lambda pair: _NullsLast(evaluate(order_item.expr, pair[0])),
            reverse=order_item.descending,
        )
    return [out for _, out in paired]


def _order_grouped(
    order_by: Tuple[OrderItem, ...],
    output_rows: List[Tuple[Any, ...]],
    items: List[SelectItem],
    column_names: List[str],
) -> List[Tuple[Any, ...]]:
    """Order grouped output; ORDER BY must reference output columns."""
    ordered = list(output_rows)
    for order_item in reversed(order_by):
        position = grouped_key_position(order_item.expr, items, column_names)
        ordered.sort(
            key=lambda row: _NullsLast(row[position]),
            reverse=order_item.descending,
        )
    return ordered
