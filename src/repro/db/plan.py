"""Join-aware SELECT planner and compiled executor.

This module is the execution engine behind ``Database.execute`` and
``Database.select``: the only way a SELECT runs.  A :class:`SelectPlan`
is built **once** per statement (and cached by the database's statement
cache, keyed on SQL text and invalidated by DDL epoch) and executed many
times with different parameters.  All access-path and strategy decisions
that depend only on *shape* — which index serves the WHERE, which
conjuncts push below which join, which expressions compile to closures —
happen at plan time; decisions that depend on *cardinality* (index
nested-loop vs hash join, hash-join build side) are made per execution
from the actual row counts, and probe values (literals or ``?``
parameters) are read at execution time so one plan serves every binding.

The contract, inherited from the seed executor: **the planner can never
change results, only speed.**  ``tests/db/test_plan_equivalence.py``
holds it to the seed's row-at-a-time interpreter, which lives on as the
test oracle ``tests/reference/select.py`` — byte-identical rows, columns
and ordering over a query zoo and grammar-generated SELECTs.

What the plan does:

* *Predicate pushdown* — WHERE conjuncts that reference only the base
  table filter rows before any join; conjuncts that reference only an
  INNER join's right side filter that input before the join; every
  other conjunct runs at the earliest pipeline point where its sources
  are all joined.  Right-side conjuncts are **never** pushed below a
  LEFT join (they would delete null-extension candidates).
* *Index join* — when the right side of an equi-join has an index on
  the join column and the left input is small relative to the right
  table, probe the index per left row instead of scanning and hashing
  the whole right table.
* *Join side selection* — hash joins build on the smaller input.  A
  build-on-left join replays matches per left position so output order
  stays left-major, identical to the build-on-right order.
* *Compiled expressions* — every expression site is lowered once per
  plan via :func:`repro.db.expr.compile_expression`.
* *Streaming aggregation* — GROUP BY folds incremental aggregate
  states (count/sum/avg/min/max, DISTINCT via first-occurrence sets) in
  a single pass instead of materializing per-group row lists.  Fold
  order is row order, so float sums stay bit-identical to ``sum()``
  over the materialized group.
* *Top-k order* — ORDER BY + LIMIT keeps a heap of the top
  ``offset + limit`` rows instead of sorting everything; LIMIT without
  ORDER BY stops projecting early; DISTINCT + LIMIT stops after enough
  distinct rows.  All three produce a prefix of the full output
  sequence, so the shared slicing tail yields identical rows.

Known (documented) divergence from the reference: pushdown and
streaming aggregation may surface *errors* earlier — an unknown-column
conjunct evaluates at the base scan instead of after joins, and an
ill-typed aggregate raises during the row pass instead of at group
fold.  Result rows are never affected.
"""

from __future__ import annotations

import heapq
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.db.expr import (
    ColumnRef,
    Comparison,
    Expression,
    Literal,
    Parameter,
    _as_bool,
    compile_expression,
)
from repro.db.index import SortedIndex
from repro.db.query import (
    AggregateCall,
    ResultSet,
    SelectItem,
    SelectStatement,
    TableRef,
    _column_of,
    _conjuncts,
    _contains_aggregate,
    _equi_join_keys,
    _expand_items,
    _null_row,
    _NullsLast,
    _output_name,
    grouped_key_position,
)
from repro.db.table import Table
from repro.obs import get_registry

__all__ = ["SelectPlan", "plan_rowids"]

# An index nested-loop join pays one index probe + row fetch per left
# row; scanning the right side pays one fetch per right row.  Probe the
# index only when the left input is at most this fraction of the right
# table, otherwise build a hash table from the scan.
_INDEX_JOIN_MAX_LEFT_FRACTION = 4


# ---------------------------------------------------------------------------
# Expression sites
# ---------------------------------------------------------------------------


class _Site:
    """One expression at one evaluation site of the pipeline, compiled
    once at plan time and evaluated with each execution's parameters."""

    __slots__ = ("_compiled",)

    def __init__(self, expr: Expression) -> None:
        self._compiled = compile_expression(expr)

    def evaluator(self, params: Sequence[Any]) -> Callable[[Any], Any]:
        compiled = self._compiled
        return lambda row: compiled(row, params)

    def predicate(
        self, params: Sequence[Any], coerce: bool
    ) -> Callable[[Any], bool]:
        """Row filter.  ``coerce`` replicates how the seed treats this
        conjunct: a lone WHERE is checked ``is True`` on its raw value,
        while conjuncts under AND pass through three-valued
        ``_as_bool`` first (so a truthy non-bool keeps the row)."""
        evaluate = self.evaluator(params)
        if coerce:
            return lambda row: _as_bool(evaluate(row)) is True
        return lambda row: evaluate(row) is True


# ---------------------------------------------------------------------------
# Base-table access (shared with UPDATE/DELETE row location)
# ---------------------------------------------------------------------------


def _probe_value(expression: Expression, params: Sequence[Any]) -> Any:
    if isinstance(expression, Parameter):
        return expression.bind(params).value  # bounds-checked
    assert isinstance(expression, Literal)
    return expression.value


class _BaseAccess:
    """Access path for one table's rows, chosen by shape at plan time.

    Preference order matches the seed planner: single-column equality
    index, then sorted-index range, then full scan.  Probe values may
    be ``?`` parameters — they are read per execution, and a NULL probe
    short-circuits to an empty scan (``col = NULL`` is never true, and
    the conjunct that produced the probe is re-applied anyway)."""

    __slots__ = ("table", "kind", "index", "column", "op", "value_expr")

    def __init__(
        self, table: Table, ref: TableRef, conjuncts: Sequence[Expression]
    ) -> None:
        self.table = table
        self.kind = "scan"
        self.index = None
        self.column: Optional[str] = None
        self.op: Optional[str] = None
        self.value_expr: Optional[Expression] = None

        equality: List[Tuple[str, Expression]] = []
        ranges: List[Tuple[str, str, Expression]] = []
        for conjunct in conjuncts:
            if not isinstance(conjunct, Comparison):
                continue
            left, right = conjunct.left, conjunct.right
            op = conjunct.op
            if isinstance(left, (Literal, Parameter)) and isinstance(
                right, ColumnRef
            ):
                left, right = right, left
                op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
            if not isinstance(right, (Literal, Parameter)):
                continue
            if isinstance(right, Literal) and right.value is None:
                continue
            column = _column_of(left, ref, table)
            if column is None:
                continue
            if op == "=":
                equality.append((column, right))
            elif op in ("<", "<=", ">", ">="):
                ranges.append((column, op, right))

        for column, value_expr in equality:
            index = table.index_on((column,))
            if index is not None:
                self.kind = "eq"
                self.index = index
                self.column = column
                self.value_expr = value_expr
                return
        for column, op, value_expr in ranges:
            index = table.index_on((column,))
            if isinstance(index, SortedIndex):
                self.kind = "range"
                self.index = index
                self.column = column
                self.op = op
                self.value_expr = value_expr
                return

    def rowids(
        self, params: Sequence[Any], plan: List[str]
    ) -> Iterable[int]:
        """Candidate row ids in ascending-rowid order (scan/eq) or key
        order (range), appending the chosen path to ``plan``."""
        if self.kind == "eq":
            value = _probe_value(self.value_expr, params)
            if value is None:
                plan.append(
                    f"empty scan {self.table.schema.name} "
                    f"({self.column} = NULL)"
                )
                return ()
            plan.append(
                f"index lookup {self.index.name}({self.column}={value!r})"
            )
            return self.index.lookup_sorted((value,))
        if self.kind == "range":
            value = _probe_value(self.value_expr, params)
            if value is None:
                plan.append(
                    f"empty scan {self.table.schema.name} "
                    f"({self.column} {self.op} NULL)"
                )
                return ()
            plan.append(
                f"index range {self.index.name}"
                f"({self.column} {self.op} {value!r})"
            )
            if self.op in ("<", "<="):
                return self.index.range(
                    None, (value,), include_high=self.op == "<="
                )
            return self.index.range(
                (value,), None, include_low=self.op == ">="
            )
        plan.append(f"full scan {self.table.schema.name}")
        return (rowid for rowid, _ in self.table.scan())


def plan_rowids(
    table: Table,
    ref: TableRef,
    where: Optional[Expression],
    params: Sequence[Any],
    plan: List[str],
) -> Iterable[int]:
    """Candidate row ids for ``where`` over ``table``.

    This is the shared row-location path: SELECT uses it through
    :class:`SelectPlan`, and UPDATE/DELETE use it directly so an
    indexed WHERE no longer forces a full scan.  Candidates are a
    superset of the matching rows — callers re-apply the WHERE."""
    return _BaseAccess(table, ref, _conjuncts(where)).rowids(params, plan)


# ---------------------------------------------------------------------------
# Aggregate machinery (streaming mode)
# ---------------------------------------------------------------------------

_UNSET = object()


class _AggregateState:
    """Incremental state for one aggregate call within one group.

    Folds values in row order with the same initial values and
    comparison directions as the naive ``compute()`` (``sum()`` starts
    at 0, ``min``/``max`` keep the first of ties), so results —
    including float sums — are bit-identical."""

    __slots__ = ("func", "count_star", "count", "total", "best", "seen")

    def __init__(self, call: AggregateCall) -> None:
        self.func = call.func.lower()
        self.count_star = call.arg is None
        self.count = 0
        self.total: Any = 0
        self.best: Any = _UNSET
        self.seen: Optional[Dict[Any, None]] = {} if call.distinct else None

    def add(self, value: Any) -> None:
        if self.count_star:
            self.count += 1
            return
        if value is None:
            return
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen[value] = None
        self.count += 1
        func = self.func
        if func in ("sum", "avg"):
            self.total = self.total + value
        elif func == "min":
            if self.best is _UNSET or value < self.best:
                self.best = value
        elif func == "max":
            if self.best is _UNSET or value > self.best:
                self.best = value

    def result(self) -> Any:
        if self.count_star or self.func == "count":
            return self.count
        if self.count == 0:
            return None
        if self.func == "sum":
            return self.total
        if self.func == "avg":
            return self.total / self.count
        return self.best


def _aggregate_layout(
    expressions: Sequence[Optional[Expression]],
) -> Tuple[List[AggregateCall], List[List[int]]]:
    """Collect AggregateCall nodes from ``expressions``.

    Returns the deduplicated nodes plus, per input expression, the
    dedup indexes of its aggregate occurrences in traversal order —
    the same ``vars()`` order :func:`_fold_values` walks, so folding
    consumes occurrences positionally."""
    deduped: List[AggregateCall] = []
    per_expr: List[List[int]] = []

    def walk(expression: Expression, occurrences: List[int]) -> None:
        if isinstance(expression, AggregateCall):
            for position, existing in enumerate(deduped):
                if existing == expression:
                    occurrences.append(position)
                    return
            deduped.append(expression)
            occurrences.append(len(deduped) - 1)
            return
        for attr in vars(expression).values():
            if isinstance(attr, Expression):
                walk(attr, occurrences)
            elif isinstance(attr, tuple):
                for element in attr:
                    if isinstance(element, Expression):
                        walk(element, occurrences)

    for expression in expressions:
        occurrences: List[int] = []
        if expression is not None:
            walk(expression, occurrences)
        per_expr.append(occurrences)
    return deduped, per_expr


def _fold_values(
    expression: Expression,
    occurrences: Sequence[int],
    values: Sequence[Any],
) -> Expression:
    """Replace each AggregateCall occurrence with its computed Literal,
    consuming ``occurrences`` positionally in traversal order."""
    cursor = [0]

    def fold(node: Expression) -> Expression:
        if isinstance(node, AggregateCall):
            value = values[occurrences[cursor[0]]]
            cursor[0] += 1
            return Literal(value)
        rebuilt: Dict[str, Any] = {}
        changed = False
        for name, attr in vars(node).items():
            if isinstance(attr, Expression):
                folded = fold(attr)
                changed = changed or folded is not attr
                rebuilt[name] = folded
            elif isinstance(attr, tuple) and any(
                isinstance(element, Expression) for element in attr
            ):
                folded_tuple = tuple(
                    fold(element)
                    if isinstance(element, Expression)
                    else element
                    for element in attr
                )
                changed = changed or folded_tuple != attr
                rebuilt[name] = folded_tuple
            else:
                rebuilt[name] = attr
        if not changed:
            return node
        return type(node)(**rebuilt)

    return fold(expression)


# ---------------------------------------------------------------------------
# Ordering
# ---------------------------------------------------------------------------


class _CompositeKey:
    """Single lexicographic sort key equivalent to the seed's sequence
    of stable passes: per key, ascending puts NULL last, descending
    reverses the whole pass (so NULL comes first)."""

    __slots__ = ("parts",)

    def __init__(self, parts: List[Tuple[Any, bool]]) -> None:
        self.parts = parts

    def __lt__(self, other: "_CompositeKey") -> bool:
        for (a, descending), (b, _) in zip(self.parts, other.parts):
            if a is None and b is None:
                continue
            if a is None:
                return descending
            if b is None:
                return not descending
            if a == b:
                continue
            less = a < b
            return (not less) if descending else less
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _CompositeKey):
            return NotImplemented
        return all(
            (a is None and b is None) or a == b
            for (a, _), (b, _) in zip(self.parts, other.parts)
        )


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------


class _JoinStep:
    """Everything decided at plan time for one JOIN clause."""

    __slots__ = (
        "join",
        "table",
        "left_key",
        "right_key",
        "right_column",
        "right_index",
        "on_site",
        "right_filters",
        "post_filters",
        "null_template",
        "context_keys",
    )

    def __init__(
        self, join: Any, table: Table, seen_names: List[str]
    ) -> None:
        self.join = join
        self.table = table
        self.on_site = _Site(join.on)
        # Prefixed context keys are static; building them per row would
        # put a string concat per column on the join hot path.
        prefix = join.ref.name + "."
        self.context_keys = tuple(
            prefix + c for c in table.schema.column_names
        )
        keys = _equi_join_keys(join.on, seen_names, join.ref.name)
        if keys is not None:
            left_ref, right_ref = keys
            self.left_key = left_ref.key
            self.right_key = right_ref.key
            self.right_column = right_ref.name.lower()
            self.right_index = table.index_on((self.right_column,))
        else:
            self.left_key = self.right_key = self.right_column = None
            self.right_index = None
        self.right_filters: List[_Site] = []
        self.post_filters: List[_Site] = []
        self.null_template = _null_row(table, join.ref)


class SelectPlan:
    """A prepared SELECT: shape decisions made once, executed many times."""

    def __init__(self, catalog: Any, statement: SelectStatement) -> None:
        self.statement = statement

        self.base_ref = statement.from_ref
        self.base_table = catalog.table(statement.from_ref.table)
        self.base_prefix = self.base_ref.name + "."
        self.base_context_keys = tuple(
            self.base_prefix + c
            for c in self.base_table.schema.column_names
        )

        seen_names = [self.base_ref.name]
        self.join_steps: List[_JoinStep] = []
        for join in statement.joins:
            table = catalog.table(join.ref.table)
            self.join_steps.append(_JoinStep(join, table, seen_names))
            seen_names.append(join.ref.name)

        # Which sources own which unqualified column names (for
        # pushdown classification; ambiguous names stay residual).
        owners: Dict[str, List[str]] = {}
        tables = [self.base_table] + [s.table for s in self.join_steps]
        for name, table in zip(seen_names, tables):
            for column in table.schema.column_names:
                owners.setdefault(column, []).append(name)
        source_names = set(seen_names)
        position_of = {name: i for i, name in enumerate(seen_names)}

        # Index selection considers every conjunct (seed semantics);
        # the chosen conjunct is still re-applied as a filter, so the
        # access path can only narrow candidates, never change results.
        conjuncts = _conjuncts(statement.where)
        self.base_access = _BaseAccess(
            self.base_table, self.base_ref, conjuncts
        )

        # Classify conjuncts for pushdown.  ``coerce`` records whether
        # the seed would have AND-combined this conjunct (see
        # _Site.predicate); a lone WHERE keeps raw ``is True``.
        self.coerce_conjuncts = len(conjuncts) > 1
        self.base_filters: List[_Site] = []
        self.final_filters: List[_Site] = []
        pushed_down = 0
        for conjunct in conjuncts:
            sources = self._conjunct_sources(
                conjunct, owners, source_names
            )
            site = _Site(conjunct)
            if sources is None:
                self.final_filters.append(site)
                continue
            if not sources or sources == {self.base_ref.name}:
                self.base_filters.append(site)
                pushed_down += 1
                continue
            last = max(position_of[name] for name in sources)
            step = self.join_steps[last - 1]
            if (
                sources == {step.join.ref.name}
                and step.join.kind == "inner"
            ):
                step.right_filters.append(site)
                pushed_down += 1
            else:
                step.post_filters.append(site)

        # Projection: stars expand at plan time against the catalog.
        self.items = _expand_items(statement, catalog, seen_names)
        self.column_names = [
            _output_name(item, position)
            for position, item in enumerate(self.items)
        ]
        self.has_aggregates = bool(
            any(
                _contains_aggregate(item.expr)
                for item in self.items
                if item.expr
            )
            or statement.group_by
            or statement.having is not None
        )
        self.item_sites = [
            _Site(item.expr)
            for item in self.items
            if item.expr is not None
        ]

        if self.has_aggregates:
            self.group_sites = [_Site(expr) for expr in statement.group_by]
            layout_exprs: List[Optional[Expression]] = [
                item.expr for item in self.items
            ]
            layout_exprs.append(statement.having)
            self.agg_nodes, per_expr = _aggregate_layout(layout_exprs)
            self.item_occurrences = per_expr[:-1]
            self.having_occurrences = per_expr[-1]
            self.agg_arg_sites: List[Optional[_Site]] = [
                _Site(node.arg) if node.arg is not None else None
                for node in self.agg_nodes
            ]

        self.order_sites = [
            (_Site(order.expr), order.descending)
            for order in statement.order_by
        ]

        # Static notes, appended after the runtime access-path lines.
        notes: List[str] = []
        if pushed_down:
            notes.append(f"pushdown {pushed_down} predicate(s)")
        sites = (
            len(self.base_filters)
            + len(self.final_filters)
            + len(self.item_sites)
            + len(self.order_sites)
        )
        notes.append(f"compiled expressions ({sites} site(s))")
        if self.has_aggregates:
            notes.append(
                f"streaming aggregation "
                f"({len(statement.group_by)} key(s), "
                f"{len(self.agg_nodes)} aggregate(s))"
            )
        if statement.limit is not None:
            bound = statement.limit + statement.offset
            if statement.order_by and not statement.distinct:
                notes.append(f"top-k order by (heap, k={bound})")
            elif not statement.order_by:
                notes.append(f"limit short-circuit (k={bound})")
        self.static_notes = notes

    @staticmethod
    def _conjunct_sources(
        conjunct: Expression,
        owners: Dict[str, List[str]],
        source_names: Set[str],
    ) -> Optional[Set[str]]:
        """The FROM sources a conjunct reads, or None if unclassifiable
        (unknown alias, unknown or ambiguous unqualified column)."""
        sources: Set[str] = set()
        for key in conjunct.references():
            if "." in key:
                alias = key.split(".", 1)[0]
                if alias not in source_names:
                    return None
                sources.add(alias)
            else:
                owning = owners.get(key)
                if owning is None or len(owning) != 1:
                    return None
                sources.add(owning[0])
        return sources

    # -- execution -----------------------------------------------------

    def execute(self, params: Sequence[Any] = ()) -> ResultSet:
        statement = self.statement
        metrics = get_registry()
        metrics.inc("db.selects")
        plan: List[str] = []
        coerce = self.coerce_conjuncts

        # Base scan with pushed-down filters.
        rowids = self.base_access.rowids(params, plan)
        keys = self.base_context_keys
        fetch = self.base_table.row
        base_predicates = [
            site.predicate(params, coerce) for site in self.base_filters
        ]
        rows: List[Dict[str, Any]] = []
        rows_scanned = 0
        for rowid in rowids:
            row = fetch(rowid)
            rows_scanned += 1
            context = dict(zip(keys, row))
            for predicate in base_predicates:
                if not predicate(context):
                    break
            else:
                rows.append(context)

        # Joins.
        build_rows = 0
        probe_rows = 0
        for step in self.join_steps:
            rows, scanned, built, probed = self._execute_join(
                step, rows, params, plan, coerce
            )
            rows_scanned += scanned
            build_rows += built
            probe_rows += probed
            post_predicates = [
                site.predicate(params, coerce)
                for site in step.post_filters
            ]
            for predicate in post_predicates:
                rows = [row for row in rows if predicate(row)]

        # Residual WHERE: conjuncts pushdown could not place.
        for site in self.final_filters:
            predicate = site.predicate(params, coerce)
            rows = [row for row in rows if predicate(row)]

        # Projection / aggregation / ordering.
        if self.has_aggregates:
            output_rows = self._execute_aggregated(rows, params)
            distinct_done = False
        else:
            output_rows, distinct_done = self._execute_projected(
                rows, params
            )

        # DISTINCT and LIMIT/OFFSET.  Optimized paths above produce a
        # prefix of the naive output sequence, so this shared tail
        # finishes identically.
        if statement.distinct and not distinct_done:
            output_rows = list(dict.fromkeys(output_rows))
        if statement.offset:
            output_rows = output_rows[statement.offset:]
        if statement.limit is not None:
            output_rows = output_rows[: statement.limit]

        plan.extend(self.static_notes)
        metrics.inc("db.rows_scanned", rows_scanned)
        if build_rows:
            metrics.inc("db.join.build_rows", build_rows)
        if probe_rows:
            metrics.inc("db.join.probe_rows", probe_rows)
        metrics.inc("db.rows_returned", len(output_rows))
        return ResultSet(list(self.column_names), output_rows, plan)

    # -- joins ---------------------------------------------------------

    def _execute_join(
        self,
        step: _JoinStep,
        rows: List[Dict[str, Any]],
        params: Sequence[Any],
        plan: List[str],
        coerce: bool,
    ) -> Tuple[List[Dict[str, Any]], int, int, int]:
        """Run one join step; returns (rows, scanned, built, probed)."""
        name = step.join.ref.name
        right_table = step.table
        right_keys = step.context_keys
        right_predicates = [
            site.predicate(params, coerce) for site in step.right_filters
        ]
        joined: List[Dict[str, Any]] = []
        is_left = step.join.kind == "left"

        if (
            step.left_key is not None
            and step.right_index is not None
            and len(rows) * _INDEX_JOIN_MAX_LEFT_FRACTION
            <= len(right_table)
            # Selectivity guard: with ~len/distinct_keys matches per
            # probe, more probes than half the distinct keys would
            # fetch most of the table row-by-row — a bulk scan into a
            # hash join is cheaper there.
            and len(rows) * 2 <= step.right_index.distinct_keys
        ):
            # Index nested-loop: probe per left row, fetch right rows
            # lazily (cached per rowid), sorted probes match the hash
            # join's scan-order emission exactly.
            plan.append(
                f"index join {name} via "
                f"{step.right_index.name}({step.right_column})"
            )
            index = step.right_index
            left_key = step.left_key
            fetch = right_table.row
            fetched: Dict[int, Optional[Dict[str, Any]]] = {}
            for left_row in rows:
                key = left_row.get(left_key)
                matched = False
                if key is not None:
                    for rowid in index.lookup_sorted((key,)):
                        context = fetched.get(rowid, _UNSET)
                        if context is _UNSET:
                            context = dict(zip(right_keys, fetch(rowid)))
                            for predicate in right_predicates:
                                if not predicate(context):
                                    context = None
                                    break
                            fetched[rowid] = context
                        if context is None:
                            continue
                        merged = dict(left_row)
                        merged.update(context)
                        joined.append(merged)
                        matched = True
                if not matched and is_left:
                    merged = dict(left_row)
                    merged.update(step.null_template)
                    joined.append(merged)
            return joined, len(fetched), len(fetched), len(rows)

        # Materialize the right side (with pushed-down filters).
        right_rows: List[Dict[str, Any]] = []
        scanned = 0
        for _rowid, right_row in right_table.scan():
            scanned += 1
            context = dict(zip(right_keys, right_row))
            for predicate in right_predicates:
                if not predicate(context):
                    break
            else:
                right_rows.append(context)

        if step.left_key is None:
            plan.append(f"nested loop join {name}")
            on_matches = step.on_site.evaluator(params)
            for left_row in rows:
                matched = False
                for right_row in right_rows:
                    merged = dict(left_row)
                    merged.update(right_row)
                    if on_matches(merged) is True:
                        joined.append(merged)
                        matched = True
                if not matched and is_left:
                    merged = dict(left_row)
                    merged.update(step.null_template)
                    joined.append(merged)
            return joined, scanned, len(right_rows), len(rows)

        left_key = step.left_key
        right_key = step.right_key
        if len(rows) < len(right_rows):
            # Build on the smaller (left) input; replaying matches per
            # left position keeps output order left-major, identical
            # to probing with left rows.
            plan.append(
                f"hash join {name} on {right_key} "
                f"(build=left, {len(rows)} rows)"
            )
            positions: Dict[Any, List[int]] = {}
            for position, left_row in enumerate(rows):
                key = left_row.get(left_key)
                if key is not None:
                    positions.setdefault(key, []).append(position)
            matches: Dict[int, List[Dict[str, Any]]] = {}
            for right_row in right_rows:
                key = right_row[right_key]
                if key is None:
                    continue
                for position in positions.get(key, ()):
                    matches.setdefault(position, []).append(right_row)
            for position, left_row in enumerate(rows):
                matched = matches.get(position)
                if matched:
                    for right_row in matched:
                        merged = dict(left_row)
                        merged.update(right_row)
                        joined.append(merged)
                elif is_left:
                    merged = dict(left_row)
                    merged.update(step.null_template)
                    joined.append(merged)
            return joined, scanned, len(rows), len(right_rows)

        plan.append(f"hash join {name} on {right_key}")
        buckets: Dict[Any, List[Dict[str, Any]]] = {}
        for right_row in right_rows:
            key = right_row[right_key]
            if key is not None:
                buckets.setdefault(key, []).append(right_row)
        for left_row in rows:
            matched_rows = buckets.get(left_row.get(left_key), [])
            for right_row in matched_rows:
                merged = dict(left_row)
                merged.update(right_row)
                joined.append(merged)
            if not matched_rows and is_left:
                merged = dict(left_row)
                merged.update(step.null_template)
                joined.append(merged)
        return joined, scanned, len(right_rows), len(rows)

    # -- projection (no aggregates) -------------------------------------

    def _execute_projected(
        self, rows: List[Dict[str, Any]], params: Sequence[Any]
    ) -> Tuple[List[Tuple[Any, ...]], bool]:
        """Project (and order) non-aggregated rows.

        Returns ``(output_rows, distinct_done)`` — the flag tells the
        shared tail that DISTINCT was already applied by the
        short-circuiting path."""
        statement = self.statement
        evaluators = [site.evaluator(params) for site in self.item_sites]

        def project(row: Dict[str, Any]) -> Tuple[Any, ...]:
            return tuple(evaluate(row) for evaluate in evaluators)

        bound = (
            statement.limit + statement.offset
            if statement.limit is not None
            else None
        )

        if statement.order_by:
            order_evaluators = [
                (site.evaluator(params), descending)
                for site, descending in self.order_sites
            ]
            if bound is not None and not statement.distinct:
                # Heap keeps the top offset+limit source rows; sorting
                # and projecting only those yields the same prefix the
                # full sort would.
                def sort_key(row: Dict[str, Any]) -> _CompositeKey:
                    return _CompositeKey(
                        [(ev(row), desc) for ev, desc in order_evaluators]
                    )

                top = heapq.nsmallest(bound, rows, key=sort_key)
                return [project(row) for row in top], False
            paired = [(row, project(row)) for row in rows]
            for evaluate, descending in reversed(order_evaluators):
                paired.sort(
                    key=lambda pair: _NullsLast(evaluate(pair[0])),
                    reverse=descending,
                )
            return [out for _, out in paired], False

        if bound is not None and statement.distinct:
            # Stop once offset+limit distinct rows are collected; a
            # prefix of dict.fromkeys() over the full projection.
            seen: Set[Tuple[Any, ...]] = set()
            collected: List[Tuple[Any, ...]] = []
            for row in rows:
                out = project(row)
                if out in seen:
                    continue
                seen.add(out)
                collected.append(out)
                if len(collected) >= bound:
                    break
            return collected, True
        # ``rows[:None]`` is every row: no LIMIT, nothing to cut short.
        return [project(row) for row in rows[:bound]], False

    # -- aggregation -----------------------------------------------------

    def _execute_aggregated(
        self, rows: List[Dict[str, Any]], params: Sequence[Any]
    ) -> List[Tuple[Any, ...]]:
        statement = self.statement
        output_rows = self._streaming_groups(rows, params)
        if not statement.order_by:
            return output_rows

        # Grouped ORDER BY references output columns; resolve positions
        # against bound expressions exactly as the seed does.
        bound_items = [
            SelectItem(
                item.expr.bind(params) if item.expr else None,
                item.alias,
                item.star,
                item.star_table,
            )
            for item in self.items
        ]
        keys = [
            (
                grouped_key_position(
                    order.expr.bind(params), bound_items, self.column_names
                ),
                order.descending,
            )
            for order in statement.order_by
        ]
        if statement.limit is not None and not statement.distinct:
            bound = statement.limit + statement.offset

            def sort_key(row: Tuple[Any, ...]) -> _CompositeKey:
                return _CompositeKey(
                    [(row[position], desc) for position, desc in keys]
                )

            return heapq.nsmallest(bound, output_rows, key=sort_key)
        ordered = list(output_rows)
        for position, descending in reversed(keys):
            ordered.sort(
                key=lambda row: _NullsLast(row[position]),
                reverse=descending,
            )
        return ordered

    def _streaming_groups(
        self, rows: List[Dict[str, Any]], params: Sequence[Any]
    ) -> List[Tuple[Any, ...]]:
        statement = self.statement
        key_evaluators = [
            site.evaluator(params) for site in self.group_sites
        ]
        arg_evaluators = [
            site.evaluator(params) if site is not None else None
            for site in self.agg_arg_sites
        ]
        agg_nodes = self.agg_nodes

        # One pass: group key -> (representative row, aggregate states).
        # Dict insertion order preserves first-appearance group order,
        # matching the naive setdefault-driven grouping.
        groups: Dict[
            Tuple[Any, ...],
            Tuple[Dict[str, Any], List[_AggregateState]],
        ] = {}
        for row in rows:
            key = tuple(evaluate(row) for evaluate in key_evaluators)
            entry = groups.get(key)
            if entry is None:
                entry = (
                    row,
                    [_AggregateState(node) for node in agg_nodes],
                )
                groups[key] = entry
            for state, evaluate in zip(entry[1], arg_evaluators):
                state.add(evaluate(row) if evaluate is not None else None)
        if not statement.group_by and not groups:
            # Global aggregate over an empty input still yields one row.
            groups[()] = (
                {},
                [_AggregateState(node) for node in agg_nodes],
            )

        item_evaluators = [
            site.evaluator(params) for site in self.item_sites
        ]
        having = statement.having
        output: List[Tuple[Any, ...]] = []
        for representative, states in groups.values():
            values = [state.result() for state in states]
            if having is not None:
                folded = _fold_values(
                    having, self.having_occurrences, values
                )
                if folded.bind(params).evaluate(representative) is not True:
                    continue
            out_row: List[Any] = []
            for item, occurrences, evaluate in zip(
                self.items, self.item_occurrences, item_evaluators
            ):
                expression = item.expr
                if not occurrences:
                    # No aggregates: evaluate on the representative row
                    # (group keys are constant within a group).
                    out_row.append(evaluate(representative))
                elif isinstance(expression, AggregateCall):
                    out_row.append(values[occurrences[0]])
                else:
                    folded = _fold_values(expression, occurrences, values)
                    out_row.append(
                        folded.bind(params).evaluate(representative)
                    )
            output.append(tuple(out_row))
        return output
