"""Join-aware SELECT planner and compiled executor.

This module is the execution engine behind ``Database.execute`` and
``Database.select``: the only way a SELECT runs.  A :class:`SelectPlan`
is built **once** per statement (and cached by the database's statement
cache, keyed on SQL text and invalidated by DDL epoch) and executed many
times with different parameters.  All access-path and strategy decisions
that depend only on *shape* — which index serves the WHERE, which
conjuncts push below which join, which tuple slot every column reference
reads — happen at plan time; decisions that depend on *cardinality*
(index nested-loop vs hash join, hash-join build side) are made per
execution from the actual row counts, and ``?`` parameters are bound
once per execution so one plan serves every binding.

One row representation runs through the whole pipeline: the stored row
tuple.  A base row is the table's tuple as stored, a joined row is
``left + right``, a LEFT join's null extension is a tuple of ``None``s
and a group is its first row plus its aggregate results; every
expression site is compiled against the static layout of the rows that
reach it.  No per-row mapping is built anywhere.

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
  plan via :func:`repro.db.expr.compile_expression` against its
  site's row layout and bound once per execution: ``?`` becomes a
  constant, a constant LIKE pattern is classified once, a constant IN
  list becomes one containment test.
* *IN probes* — a non-negated ``col IN (constants)`` over an indexed
  column, when no equality conjunct already chose an index, is
  the ascending union of one index probe per distinct non-NULL value:
  the rows a full scan would deliver, in the order it would.
* *Substring probes* — failing those, a non-negated ``LIKE`` over an
  indexed TEXT column (bare or under ``LOWER``/``UPPER``) with a
  literal or ``?`` pattern asks the index's trigram map for the keys
  that may match: those holding every trigram of the pattern's ASCII
  literal runs, plus every non-ASCII key.  Their rows come in rowid
  order, a superset the LIKE conjunct then filters.  A pattern with no
  ASCII run of three or more characters scans.
* *Streaming aggregation* — GROUP BY never materializes per-group row
  lists.  At plan time each aggregate call becomes fold steps over
  fixed accumulator slots (:class:`_GroupFold`); an execution keeps one
  flat list per group — its first row, then its accumulators — and
  runs each step over every row, dispatching on nothing per row.  Each
  fold is in row order, so a float sum is bit-identical to the
  reference's left-to-right fold from ``0 + v`` (``sum()`` agrees only
  up to Python 3.11: from 3.12 it compensates rounding).
* *Top-k order* — ORDER BY + LIMIT keeps a heap of the top
  ``offset + limit`` rows instead of sorting everything; LIMIT without
  ORDER BY stops projecting early; DISTINCT + LIMIT stops after enough
  distinct rows.  All three produce a prefix of the full output
  sequence, so the shared slicing tail yields identical rows.

Known (documented) divergence from the reference: pushdown and
streaming aggregation may surface *errors* earlier — an unknown-column
conjunct evaluates at the base scan instead of after joins, and an
ill-typed aggregate raises while its step folds every row instead of
at its group's fold, so when two aggregates would both raise, which
one does may differ.  A lone raising aggregate raises the reference's
exception type, and result rows are never affected.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import replace
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.db.expr import (
    Binder,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    InList,
    Like,
    Literal,
    Parameter,
    RowFunction,
    _like_tokens,
    compile_expression,
)
from repro.db.query import (
    AggregateCall,
    ResultSet,
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
from repro.db.types import DataType
from repro.errors import ProgrammingError
from repro.obs import CounterHandle

__all__ = ["SelectPlan", "plan_rowids", "table_slots"]

_SELECTS = CounterHandle("db.selects")
_ROWS_SCANNED = CounterHandle("db.rows_scanned")
_ROWS_RETURNED = CounterHandle("db.rows_returned")
_JOIN_BUILD_ROWS = CounterHandle("db.join.build_rows")
_JOIN_PROBE_ROWS = CounterHandle("db.join.probe_rows")

# An index nested-loop join pays one index probe + row fetch per left
# row; scanning the right side pays one fetch per right row.  Probe the
# index only when the left input is at most this fraction of the right
# table, otherwise build a hash table from the scan.
_INDEX_JOIN_MAX_LEFT_FRACTION = 4


# ---------------------------------------------------------------------------
# Row layouts and filters
# ---------------------------------------------------------------------------

Row = Tuple[Any, ...]


def _context_keys(table: Table, ref: TableRef) -> Tuple[str, ...]:
    """The qualified name of each slot of ``table``'s stored tuple."""
    prefix = ref.name + "."
    return tuple(prefix + column for column in table.schema.column_names)


def _slots(keys: Sequence[str]) -> Dict[str, int]:
    """Context key -> tuple slot.  When a self-join repeats an alias the
    later source owns the key, as the later ``dict.update`` did."""
    return {key: slot for slot, key in enumerate(keys)}


def table_slots(table: Table, ref: TableRef) -> Dict[str, int]:
    """Context key -> slot of ``table``'s stored tuple, named by ``ref``:
    the layout a one-table expression compiles against."""
    return _slots(_context_keys(table, ref))


def _column_projection(
    expressions: Sequence[Expression], slots: Mapping[str, int], width: int
) -> Optional[Callable[[Row], Row]]:
    """``source row -> output row`` when every select item is a plain
    column that resolves; None leaves the items to their compiled
    forms (which is also where an unknown column raises)."""
    if not all(isinstance(expr, ColumnRef) for expr in expressions):
        return None
    try:
        chosen = [slots[expr.resolve(slots)] for expr in expressions]
    except ProgrammingError:
        return None
    if chosen == list(range(width)):
        return lambda row: row  # ``SELECT *`` of the whole layout
    if len(chosen) == 1:
        (slot,) = chosen
        return lambda row: (row[slot],)
    return itemgetter(*chosen)


def _passes(row: Row, tests: Sequence[RowFunction], coerce: bool) -> bool:
    """Whether one row passes every conjunct of ``tests`` (``coerce`` as
    in :func:`_keep`)."""
    for test in tests:
        value = test(row)
        if value is not True and not (coerce and value):
            return False
    return True


def _keep(rows: List[Row], test: RowFunction, coerce: bool) -> List[Row]:
    """The rows one WHERE conjunct keeps.  ``coerce`` replicates how the
    seed treats it: a lone WHERE is checked ``is True`` on its raw
    value, while conjuncts under AND pass through three-valued
    ``_as_bool`` first — so any truthy value keeps the row."""
    if coerce:
        return [row for row in rows if test(row)]
    return [row for row in rows if test(row) is True]


# ---------------------------------------------------------------------------
# Base-table access (shared with DELETE row location)
# ---------------------------------------------------------------------------


def _probe_value(expression: Expression, params: Sequence[Any]) -> Any:
    if isinstance(expression, Parameter):
        return expression.value_in(params)
    assert isinstance(expression, Literal)
    return expression.value


def _text_column_of(
    expression: Expression, ref: TableRef, table: Table
) -> Optional[str]:
    """The TEXT column of ``table`` a LIKE operand reads — ``col``,
    ``LOWER(col)`` or ``UPPER(col)`` — if it is one."""
    if (
        isinstance(expression, FunctionCall)
        and expression.name.lower() in ("lower", "upper")
    ):
        (expression,) = expression.args
    column = _column_of(expression, ref, table)
    if column is None:
        return None
    if table.schema.column(column).dtype is not DataType.TEXT:
        return None
    return column


def _ascii_runs(pattern: str, escape: Optional[str]) -> List[str]:
    """The literal runs of a LIKE pattern a trigram probe may use: the
    maximal runs of ASCII literal characters, three or more long.  A
    ``%``, a ``_`` and a non-ASCII character each end a run — the regex
    that defines LIKE folds some non-ASCII characters onto ASCII
    letters, so only ASCII runs say which ASCII keys can match."""
    runs: List[str] = []
    run: List[str] = []
    for token in _like_tokens(pattern, escape) + [None]:
        if isinstance(token, str) and token.isascii():
            run.append(token)
            continue
        if len(run) >= 3:
            runs.append("".join(run))
        run = []
    return runs


class _BaseAccess:
    """Access path for one table's rows, chosen by shape at plan time.

    Preference order: a single-column equality index, then an indexed
    ``col IN (constants)``, then an indexed substring probe, then the
    full scan.  Every path delivers ascending row ids, the order a
    scan would, so the choice never reorders rows.  A range conjunct
    (``<``, ``>``) takes no index: the compiled filter applies it over
    the rows of whichever path was taken.  The substring probe serves a
    non-negated ``LIKE`` over a TEXT column, bare or under
    ``LOWER``/``UPPER``, whose pattern is a literal or a ``?``: it asks
    the column's index for the keys holding every trigram of the
    pattern's ASCII literal runs, plus every non-ASCII key, in rowid
    order.  A pattern with no such run of three or more characters
    scans.  Only TEXT columns qualify because LIKE over any other value
    raises when a row reaches it, and a probe that delivered no row
    would hide that.  Probe values may be ``?`` parameters — they are
    read per execution, and a NULL probe short-circuits to an empty
    scan (``col = NULL`` and ``col LIKE NULL`` are never true, and the
    conjunct that produced the probe is re-applied anyway)."""

    __slots__ = ("table", "kind", "index", "column", "probe")

    def __init__(
        self, table: Table, ref: TableRef, conjuncts: Sequence[Expression]
    ) -> None:
        self.table = table
        self.kind = "scan"
        self.index = None
        self.column: Optional[str] = None
        # One Literal/Parameter, the tuple of them of an IN list, or
        # the Like node of a substring probe.
        self.probe: Any = None

        # Candidate (kind, column, probe) paths, by kind.
        equality: List[Tuple[str, str, Any]] = []
        in_lists: List[Tuple[str, str, Any]] = []
        likes: List[Tuple[str, str, Any]] = []
        for conjunct in conjuncts:
            if isinstance(conjunct, Like):
                column = _text_column_of(conjunct.operand, ref, table)
                if (
                    column is not None
                    and not conjunct.negated
                    and isinstance(conjunct.pattern, (Literal, Parameter))
                ):
                    likes.append(("like", column, conjunct))
                continue
            if isinstance(conjunct, InList):
                column = _column_of(conjunct.operand, ref, table)
                if (
                    column is not None
                    and not conjunct.negated
                    and all(
                        isinstance(choice, (Literal, Parameter))
                        for choice in conjunct.choices
                    )
                ):
                    in_lists.append(("in", column, conjunct.choices))
                continue
            if not isinstance(conjunct, Comparison) or conjunct.op != "=":
                continue
            left, right = conjunct.left, conjunct.right
            if isinstance(left, (Literal, Parameter)) and isinstance(
                right, ColumnRef
            ):
                left, right = right, left
            if not isinstance(right, (Literal, Parameter)):
                continue
            if isinstance(right, Literal) and right.value is None:
                continue
            column = _column_of(left, ref, table)
            if column is not None:
                equality.append(("eq", column, right))

        for kind, column, probe in equality + in_lists + likes:
            index = table.index_on((column,))
            if index is not None:
                self.kind, self.index = kind, index
                self.column, self.probe = column, probe
                return

    def rows(self, params: Sequence[Any], plan: List[str]) -> List[Row]:
        """The candidate rows, in :meth:`rowids` order."""
        rowids = self._probe(params, plan)
        if rowids is None:
            return [row for _, row in self.table.scan()]
        return list(map(self.table.row, rowids))

    def rowids(
        self, params: Sequence[Any], plan: List[str]
    ) -> Iterable[int]:
        """Candidate row ids in ascending order, appending the chosen
        path to ``plan``."""
        rowids = self._probe(params, plan)
        if rowids is None:
            return (rowid for rowid, _ in self.table.scan())
        return rowids

    def _probe(
        self, params: Sequence[Any], plan: List[str]
    ) -> Optional[Iterable[int]]:
        """The row ids the index path gives, or None for a full scan;
        either way the path taken is appended to ``plan``."""
        if self.kind == "scan":
            plan.append(f"full scan {self.table.schema.name}")
            return None
        if self.kind == "in":
            values = dict.fromkeys(
                value
                for value in (_probe_value(c, params) for c in self.probe)
                if value is not None
            )
            plan.append(
                f"index lookup {self.index.name}"
                f"({self.column} in {len(values)} value(s))"
            )
            if len(values) == 1:
                return self.index.lookup_sorted(tuple(values))
            return sorted(
                set().union(*(self.index.lookup((v,)) for v in values))
            )
        like = self.probe if self.kind == "like" else None
        value = _probe_value(
            like.pattern if like is not None else self.probe, params
        )
        if value is None:
            plan.append(
                f"empty scan {self.table.schema.name} "
                f"({self.column} {'like' if like is not None else '='} NULL)"
            )
            return ()
        if like is not None:
            # A pattern that is not text raises once a row reaches it.
            runs = (
                _ascii_runs(value, like.escape)
                if isinstance(value, str)
                else None
            )
            if not runs:
                plan.append(f"full scan {self.table.schema.name}")
                return None
            plan.append(
                f"index substring {self.index.name}"
                f"({self.column} like {value!r})"
            )
            return self.index.substring_rowids(runs)
        plan.append(
            f"index lookup {self.index.name}({self.column}={value!r})"
        )
        return self.index.lookup_sorted((value,))


def plan_rowids(
    table: Table,
    ref: TableRef,
    where: Optional[Expression],
    params: Sequence[Any],
    plan: List[str],
) -> Iterable[int]:
    """Candidate row ids for ``where`` over ``table``.

    This is the shared row-location path: SELECT uses it through
    :class:`SelectPlan`, and DELETE uses it directly so an indexed
    WHERE does not force a full scan.  Candidates are a
    superset of the matching rows — callers re-apply the WHERE."""
    return _BaseAccess(table, ref, _conjuncts(where)).rowids(params, plan)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

_UNSET = object()


class _GroupFold:
    """How a plan's aggregate calls fold, decided once per plan.

    A group is one flat list: its first row's ``width`` values, then
    call ``i``'s accumulator at ``width + i`` (where HAVING and the
    select items read it), then a hidden count per AVG.  Each call is
    one or more steps, run in call order, each over every row at once:
    ``count`` (``COUNT(*)`` has no argument), ``sum``, ``min`` and
    ``max``; AVG is a sum, a hidden count and a ``divide`` per group.
    A DISTINCT step folds only each group's first occurrence of a
    value.  Folds start from the reference's values (a sum is
    ``0 + v``; ``min``/``max`` keep the first of ties) and run in row
    order, so results are bit-identical.  Accumulators belong to one
    execution, never to the plan."""

    __slots__ = ("keys", "width", "initial", "steps")

    def __init__(
        self,
        keys: Sequence[Expression],
        nodes: Sequence[AggregateCall],
        slots: Mapping[str, int],
        width: int,
    ) -> None:
        self.keys = [compile_expression(key, slots) for key in keys]
        self.width = width
        self.initial: List[Any] = [
            0 if node.func.lower() == "count" else None for node in nodes
        ]
        # (kind, slot, argument binder or divisor slot, distinct)
        self.steps: List[Tuple[str, int, Any, bool]] = []
        for slot, node in enumerate(nodes, width):
            arg = None
            if node.arg is not None:
                arg = compile_expression(node.arg, slots)
            kind = node.func.lower()
            if kind != "avg":
                self.steps.append((kind, slot, arg, node.distinct))
                continue
            count = width + len(self.initial)
            self.initial.append(0)
            self.steps += [
                ("sum", slot, arg, node.distinct),
                ("count", count, arg, node.distinct),
                ("divide", slot, count, False),
            ]

    def run(self, rows: List[Row], params: Sequence[Any]) -> List[List[Any]]:
        """The groups of ``rows`` in first-appearance order, folded.  A
        global aggregate is one group even over no rows, and then its
        ``width`` values are None: it has no first row."""
        initial = self.initial
        if self.keys:
            keys = [binder(params) for binder in self.keys]
            key_of = keys[0] if len(keys) == 1 else (
                lambda row: tuple([key(row) for key in keys])
            )
            by_key: Dict[Any, List[Any]] = {}  # first-appearance order
            group_of: List[List[Any]] = []
            for key, row in zip(map(key_of, rows), rows):
                group = by_key.get(key)
                if group is None:
                    group = by_key[key] = [*row, *initial]
                group_of.append(group)
            groups = list(by_key.values())
        else:
            groups = [[*(rows[0] if rows else [None] * self.width), *initial]]
            group_of = groups * len(rows)

        for kind, slot, operand, distinct in self.steps:
            if kind == "divide":
                for group in groups:
                    if group[slot] is not None:
                        group[slot] = group[slot] / group[operand]
                continue
            if operand is None:  # COUNT(*)
                for group in group_of:
                    group[slot] += 1
                continue
            values: Iterable[Tuple[List[Any], Any]] = zip(
                group_of, map(operand(params), rows)
            )
            if distinct:  # an equal value already seen keeps its place
                first: Dict[Tuple[int, Any], List[Any]] = {}
                for group, value in values:
                    first.setdefault((id(group), value), group)
                values = [(group, key[1]) for key, group in first.items()]
            if kind == "count":
                for group, value in values:
                    if value is not None:
                        group[slot] += 1
            elif kind == "sum":
                for group, value in values:
                    if value is not None:
                        total = group[slot]
                        group[slot] = (
                            0 + value if total is None else total + value
                        )
            else:
                better = operator.lt if kind == "min" else operator.gt
                for group, value in values:
                    if value is not None:
                        best = group[slot]
                        if best is None or better(value, best):
                            group[slot] = value
        return groups


def _aggregate_calls(
    expressions: Iterable[Optional[Expression]],
) -> List[AggregateCall]:
    """The distinct AggregateCall nodes of ``expressions``, in order of
    first appearance (an aggregate's own argument is not searched)."""
    found: Dict[AggregateCall, None] = {}

    def walk(expression: Expression) -> None:
        if isinstance(expression, AggregateCall):
            found.setdefault(expression)
            return
        for child in expression.children():
            walk(child)

    for expression in expressions:
        if expression is not None:
            walk(expression)
    return list(found)


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


def _ordered(
    rows: List[Row],
    keys: Sequence[Tuple[RowFunction, bool]],
    bound: Optional[int],
) -> List[Row]:
    """``rows`` in ORDER BY order — ``keys`` are (key, descending)
    pairs — or, given ``bound``, that order's first ``bound`` rows,
    kept by a heap (``heapq.nsmallest`` is stable, so the prefix is the
    full sort's)."""
    if bound is not None:
        return heapq.nsmallest(
            bound,
            rows,
            key=lambda row: _CompositeKey(
                [(key(row), descending) for key, descending in keys]
            ),
        )
    ordered = list(rows)
    for key, descending in reversed(keys):
        ordered.sort(key=lambda row: _NullsLast(key(row)), reverse=descending)
    return ordered


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------


class _JoinStep:
    """Everything decided at plan time for one JOIN clause."""

    __slots__ = (
        "join",
        "table",
        "left_slot",
        "right_slot",
        "right_key",
        "right_column",
        "right_index",
        "on",
        "right_slots",
        "right_filters",
        "post_filters",
        "null_row",
    )

    def __init__(
        self,
        join: Any,
        table: Table,
        seen_names: List[str],
        left_slots: Mapping[str, int],
        joined_slots: Mapping[str, int],
    ) -> None:
        self.join = join
        self.table = table
        # ON reads the joined row; pushed-down right-side filters read
        # the right table's tuple before it is joined.
        self.on = compile_expression(join.on, joined_slots)
        self.right_slots = table_slots(table, join.ref)
        self.left_slot: Optional[int] = None
        self.right_slot: Optional[int] = None
        self.right_key = self.right_column = self.right_index = None
        keys = _equi_join_keys(join.on, seen_names, join.ref.name)
        # An equi-join on a column the right table lacks is left to the
        # nested loop, whose ON raises once a pair reaches it.
        if keys is not None and keys[1].key in self.right_slots:
            left_ref, right_ref = keys
            # A left column no source has reads as NULL: it never joins.
            self.left_slot = left_slots.get(left_ref.key)
            self.right_slot = self.right_slots[right_ref.key]
            self.right_key = right_ref.key
            self.right_column = right_ref.name.lower()
            self.right_index = table.index_on((self.right_column,))
        self.right_filters: List[Binder] = []
        self.post_filters: List[Binder] = []
        self.null_row: Row = (None,) * len(self.right_slots)


class SelectPlan:
    """A prepared SELECT: shape decisions made once, executed many times."""

    def __init__(self, catalog: Any, statement: SelectStatement) -> None:
        self.statement = statement

        self.base_ref = statement.from_ref
        self.base_table = catalog.table(statement.from_ref.table)

        # The row layout after each pipeline stage: base keys, then each
        # joined table's keys appended.
        keys = _context_keys(self.base_table, self.base_ref)
        base_slots = _slots(keys)
        seen_names = [self.base_ref.name]
        self.join_steps: List[_JoinStep] = []
        stage_slots = [base_slots]
        for join in statement.joins:
            table = catalog.table(join.ref.table)
            keys += _context_keys(table, join.ref)
            stage_slots.append(_slots(keys))
            self.join_steps.append(
                _JoinStep(
                    join, table, seen_names, stage_slots[-2], stage_slots[-1]
                )
            )
            seen_names.append(join.ref.name)
        slots = stage_slots[-1]
        width = len(keys)

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

        # Classify conjuncts for pushdown, compiling each against the
        # layout of the rows it will see.  ``coerce`` records whether
        # the seed would have AND-combined the conjuncts (see _keep); a
        # lone WHERE keeps raw ``is True``.
        self.coerce_conjuncts = len(conjuncts) > 1
        self.base_filters: List[Binder] = []
        self.final_filters: List[Binder] = []
        pushed_down = 0
        for conjunct in conjuncts:
            sources = self._conjunct_sources(
                conjunct, owners, source_names
            )
            if sources is None:
                self.final_filters.append(
                    compile_expression(conjunct, slots)
                )
                continue
            if not sources or sources == {self.base_ref.name}:
                self.base_filters.append(
                    compile_expression(conjunct, base_slots)
                )
                pushed_down += 1
                continue
            last = max(position_of[name] for name in sources)
            step = self.join_steps[last - 1]
            if (
                sources == {step.join.ref.name}
                and step.join.kind == "inner"
            ):
                step.right_filters.append(
                    compile_expression(conjunct, step.right_slots)
                )
                pushed_down += 1
            else:
                step.post_filters.append(
                    compile_expression(conjunct, stage_slots[last])
                )

        # Projection: stars expand at plan time against the catalog.
        self.items = _expand_items(statement, catalog, seen_names)
        self.column_names = [
            _output_name(item, position)
            for position, item in enumerate(self.items)
        ]
        item_exprs = [item.expr for item in self.items]
        self.has_aggregates = bool(
            any(_contains_aggregate(expr) for expr in item_exprs)
            or statement.group_by
            or statement.having is not None
        )

        if self.has_aggregates:
            self.agg_nodes = _aggregate_calls(
                item_exprs + [statement.having]
            )
            self.fold = _GroupFold(
                statement.group_by, self.agg_nodes, slots, width
            )
            # A group's row is its first source row, then its aggregate
            # results.  The global group of an empty input has no first
            # row, so there every column is unknown.
            self.group_outputs = self._compile_group_outputs(slots, width)
        else:
            self.item_binders = [
                compile_expression(expr, slots) for expr in item_exprs
            ]
            self.column_projection = _column_projection(
                item_exprs, slots, width
            )
            self.order_keys = [
                (compile_expression(order.expr, slots), order.descending)
                for order in statement.order_by
            ]

        # Static notes, appended after the runtime access-path lines.
        notes: List[str] = []
        if pushed_down:
            notes.append(f"pushdown {pushed_down} predicate(s)")
        sites = (
            len(self.base_filters)
            + len(self.final_filters)
            + len(self.items)
            + len(statement.order_by)
        )
        notes.append(f"compiled expressions ({sites} site(s))")
        if self.has_aggregates:
            notes.append(
                f"streaming aggregation "
                f"({len(statement.group_by)} key(s), "
                f"{len(self.agg_nodes)} aggregate(s))"
            )
        # LIMIT needs only the first offset+limit rows; ORDER BY without
        # DISTINCT keeps just those of the order, by heap (_ordered).
        self.bound = self.top_k = None
        if statement.limit is not None:
            self.bound = statement.limit + statement.offset
            if statement.order_by and not statement.distinct:
                self.top_k = self.bound
                notes.append(f"top-k order by (heap, k={self.bound})")
            elif not statement.order_by:
                notes.append(f"limit short-circuit (k={self.bound})")
        self.static_notes = notes

    def _compile_group_outputs(
        self, slots: Mapping[str, int], width: int
    ) -> Tuple[Optional[Binder], List[Binder]]:
        """(HAVING, select items) over rows of ``width`` source slots
        followed by one slot per aggregate."""
        computed = {
            node: width + position
            for position, node in enumerate(self.agg_nodes)
        }
        having = self.statement.having
        return (
            compile_expression(having, slots, computed)
            if having is not None
            else None,
            [
                compile_expression(item.expr, slots, computed)
                for item in self.items
            ],
        )

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
        _SELECTS.inc()
        plan: List[str] = []
        coerce = self.coerce_conjuncts

        # Base access with pushed-down filters.
        rows = self.base_access.rows(params, plan)
        rows_scanned = len(rows)
        for binder in self.base_filters:
            rows = _keep(rows, binder(params), coerce)

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
            for binder in step.post_filters:
                rows = _keep(rows, binder(params), coerce)

        # Residual WHERE: conjuncts pushdown could not place.
        for binder in self.final_filters:
            rows = _keep(rows, binder(params), coerce)

        # Projection / aggregation / ordering.
        if self.has_aggregates:
            output_rows = self._execute_aggregated(rows, params)
        else:
            output_rows = self._execute_projected(rows, params)

        # DISTINCT and LIMIT/OFFSET.  Optimized paths above produce a
        # prefix of the naive output sequence, so this shared tail
        # finishes identically.
        if statement.distinct:
            output_rows = list(dict.fromkeys(output_rows))
        if statement.offset:
            output_rows = output_rows[statement.offset:]
        if statement.limit is not None:
            output_rows = output_rows[: statement.limit]

        plan.extend(self.static_notes)
        _ROWS_SCANNED.inc(rows_scanned)
        if build_rows:
            _JOIN_BUILD_ROWS.inc(build_rows)
        if probe_rows:
            _JOIN_PROBE_ROWS.inc(probe_rows)
        _ROWS_RETURNED.inc(len(output_rows))
        return ResultSet(list(self.column_names), output_rows, plan)

    # -- joins ---------------------------------------------------------

    def _execute_join(
        self,
        step: _JoinStep,
        rows: List[Row],
        params: Sequence[Any],
        plan: List[str],
        coerce: bool,
    ) -> Tuple[List[Row], int, int, int]:
        """Run one join step; returns (rows, scanned, built, probed)."""
        name = step.join.ref.name
        right_table = step.table
        right_tests = [binder(params) for binder in step.right_filters]
        joined: List[Row] = []
        is_left = step.join.kind == "left"
        null_row = step.null_row
        right_slot = step.right_slot
        left_keys: Sequence[Any] = (
            list(map(itemgetter(step.left_slot), rows))
            if step.left_slot is not None
            else (None,) * len(rows)
        )

        if (
            right_slot is not None
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
            fetch = right_table.row
            fetched: Dict[int, Optional[Row]] = {}
            for left_row, key in zip(rows, left_keys):
                matched = False
                if key is not None:
                    for rowid in index.lookup_sorted((key,)):
                        right_row = fetched.get(rowid, _UNSET)
                        if right_row is _UNSET:
                            right_row = fetch(rowid)
                            if not _passes(right_row, right_tests, coerce):
                                right_row = None
                            fetched[rowid] = right_row
                        if right_row is None:
                            continue
                        joined.append(left_row + right_row)
                        matched = True
                if not matched and is_left:
                    joined.append(left_row + null_row)
            return joined, len(fetched), len(fetched), len(rows)

        # Materialize the right side (with pushed-down filters).
        right_rows = [row for _, row in right_table.scan()]
        scanned = len(right_rows)
        for test in right_tests:
            right_rows = _keep(right_rows, test, coerce)

        if right_slot is None:
            plan.append(f"nested loop join {name}")
            on_matches = step.on(params)
            for left_row in rows:
                matched = False
                for right_row in right_rows:
                    merged = left_row + right_row
                    if on_matches(merged) is True:
                        joined.append(merged)
                        matched = True
                if not matched and is_left:
                    joined.append(left_row + null_row)
            return joined, scanned, len(right_rows), len(rows)

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
            for position, key in enumerate(left_keys):
                if key is not None:
                    positions.setdefault(key, []).append(position)
            matches: Dict[int, List[Row]] = {}
            for right_row in right_rows:
                key = right_row[right_slot]
                if key is None:
                    continue
                for position in positions.get(key, ()):
                    matches.setdefault(position, []).append(right_row)
            for position, left_row in enumerate(rows):
                matched_rows = matches.get(position)
                if matched_rows:
                    for right_row in matched_rows:
                        joined.append(left_row + right_row)
                elif is_left:
                    joined.append(left_row + null_row)
            return joined, scanned, len(rows), len(right_rows)

        plan.append(f"hash join {name} on {right_key}")
        buckets: Dict[Any, List[Row]] = {}
        for right_row in right_rows:
            key = right_row[right_slot]
            if key is not None:
                buckets.setdefault(key, []).append(right_row)
        for left_row, key in zip(rows, left_keys):
            matched_rows = buckets.get(key, ())
            for right_row in matched_rows:
                joined.append(left_row + right_row)
            if not matched_rows and is_left:
                joined.append(left_row + null_row)
        return joined, scanned, len(right_rows), len(rows)

    # -- projection (no aggregates) -------------------------------------

    def _execute_projected(
        self, rows: List[Row], params: Sequence[Any]
    ) -> List[Row]:
        """Project (and order) non-aggregated rows."""
        statement = self.statement
        project = self._projection(params)
        bound = self.bound
        if statement.order_by:
            order_keys = [
                (binder(params), descending)
                for binder, descending in self.order_keys
            ]
            return list(map(project, _ordered(rows, order_keys, self.top_k)))

        if bound is not None and statement.distinct:
            # Stop once offset+limit distinct rows are collected; a
            # prefix of dict.fromkeys() over the full projection.
            collected: Dict[Row, None] = {}
            for row in rows:
                collected[project(row)] = None
                if len(collected) >= bound:
                    break
            return list(collected)
        # ``rows[:None]`` is every row: no LIMIT, nothing to cut short.
        return list(map(project, rows[:bound]))

    def _projection(self, params: Sequence[Any]) -> Callable[[Row], Row]:
        """``source row -> output row`` for this execution."""
        if self.column_projection is not None:
            return self.column_projection
        evaluators = [binder(params) for binder in self.item_binders]
        return lambda row: tuple([evaluate(row) for evaluate in evaluators])

    # -- aggregation -----------------------------------------------------

    def _execute_aggregated(
        self, rows: List[Row], params: Sequence[Any]
    ) -> List[Row]:
        statement = self.statement
        outputs = self.group_outputs
        if not rows and not statement.group_by:
            outputs = self._compile_group_outputs({}, self.fold.width)
        having = outputs[0](params) if outputs[0] is not None else None
        item_evaluators = [binder(params) for binder in outputs[1]]
        output_rows = [
            tuple([evaluate(group) for evaluate in item_evaluators])
            for group in self.fold.run(rows, params)
            if having is None or having(group) is True
        ]
        if not statement.order_by:
            return output_rows

        # Grouped ORDER BY references output columns; resolve positions
        # against bound expressions exactly as the seed does.
        bound_items = [
            replace(item, expr=item.expr.bind(params)) for item in self.items
        ]
        keys = [
            (
                itemgetter(
                    grouped_key_position(
                        order.expr.bind(params), bound_items, self.column_names
                    )
                ),
                order.descending,
            )
            for order in statement.order_by
        ]
        return _ordered(output_rows, keys, self.top_k)
