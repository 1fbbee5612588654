"""DML equivalence: DELETE against a list-of-rows model.

``Database.execute`` locates rows through the planner's access paths and
evaluates WHERE as a compiled row function over stored tuples.
The model here knows none of that: a table is a list of tuples in rowid
order, a statement is its parsed form, every expression is interpreted
by ``tests/reference/expr.py`` against a ``{table.column: value}``
context, and a mutation is a list edit.  After every generated statement
the table, the rowcount or the raised error type, and every index must
agree.

A statement is all-or-nothing: the model applies it row by row in
rowid order to a copy of the table and keeps the copy only if every row
succeeded, so a failure on the third matched row leaves the first two
in place too.  WHERE is decided for every row before any row goes.
Rows enter through ``Database.insert``, the one insert path, and the
transaction tests mix those inserts with DELETEs.

The rows are adversarial (NULLs, NaN, the case-fold traps of
``tests/db/test_plan_equivalence.py``, one key a child table references), and predicates are drawn over indexed (``k``, ``grp``) and
unindexed columns alike.  This is step 1 of ROADMAP's db state machine
written as a property: :func:`run_model` and :func:`assert_same_state`
are what a later ``RuleBasedStateMachine`` steps with.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.db import Database, Literal, Parameter, parse
from repro.db.expr import Expression
from repro.errors import DatabaseError, IntegrityError, ProgrammingError
from tests.db.rows import insert_rows
from tests.db.test_plan_equivalence import NUM, TEXT, _atoms
from tests.reference.expr import evaluate

NAN = math.nan

ROWS = [
    (1, "a", "İstanbul", 0.5, 3),
    (2, "a", None, NAN, 0),
    (3, "b", "50%_off", None, 0),
    (4, None, "istanbul", 10.5, 3),
    (5, "b", "a_b", 0.1, -1),
    (6, "ß", "straße", -0.0, 7),
    (7, "a", "", 0.3, 2),
    (8, None, None, None, 40),
]
# ``children.pid`` references ``t.k``: key 6 may not go.
CHILDREN = [(1, 6), (2, 6), (3, None)]
REFERENCED = {pid for _, pid in CHILDREN if pid is not None}

# name -> (type, values a predicate may probe for); see ``_atoms``.
INDEXED = {
    "k": (NUM, [1, 3, 6, 11, 99]),
    "grp": (TEXT, ["a", "b", "ß", "SS", "nope"]),
}
UNINDEXED = {
    "body": (TEXT, ["istanbul", "İstanbul", "a_b", "50%_off", ""]),
    "n": (NUM, [0.1, 0.5, 10.5, 0]),
    "m": (NUM, [0, 3, -1, 40]),
}


def build_db():
    db = Database()
    db.execute(
        "CREATE TABLE t (k INTEGER, grp TEXT, body TEXT, n REAL, "
        "m INTEGER NOT NULL, PRIMARY KEY (k))"
    )
    db.execute("CREATE INDEX ix_t_grp ON t (grp)")
    db.execute(
        "CREATE TABLE children (cid INTEGER, pid INTEGER, "
        "PRIMARY KEY (cid), FOREIGN KEY (pid) REFERENCES t (k))"
    )
    insert_rows(db, "t", ROWS)
    insert_rows(db, "children", CHILDREN)
    return db


def initial_rows(db):
    """``ROWS`` as ``t`` stores them, for the model to start from."""
    schema = db.table("t").schema
    return [
        schema.validate_row(dict(zip(schema.column_names, row)))
        for row in ROWS
    ]


# ---------------------------------------------------------------------------
# The model
# ---------------------------------------------------------------------------


def _bind_present(node, params):
    """``node`` with every ``?`` that has a parameter replaced by its
    Literal.  One that has none stays, and the interpreter raises on it
    only if a row reaches it: SELECT's rule, which DML follows."""
    if isinstance(node, Parameter):
        if node.position < len(params):
            return Literal(params[node.position])
        return node

    def bound(attr):
        if isinstance(attr, Expression):
            return _bind_present(attr, params)
        if isinstance(attr, tuple):
            return tuple(bound(element) for element in attr)
        return attr

    return dataclasses.replace(
        node, **{name: bound(attr) for name, attr in vars(node).items()}
    )


def run_model(rows, schema, statement, params):
    """Apply a parsed DELETE of ``t`` to ``rows`` in place, all or
    nothing; returns the rowcount or raises what the statement raises
    (leaving ``rows`` as they were)."""
    changed = list(rows)
    count = _apply(changed, schema, statement, params)
    rows[:] = changed
    return count


def _apply(rows, schema, statement, params):
    columns = schema.column_names

    def context(row):
        return {f"t.{column}": value for column, value in zip(columns, row)}

    def value_of(expression, row):
        return evaluate(_bind_present(expression, params), context(row))

    matched = [
        row for row in rows
        if statement.where is None or value_of(statement.where, row) is True
    ]
    for old in matched:
        if old[0] in REFERENCED:
            raise IntegrityError(f"{old[0]} is referenced")
        del rows[next(i for i, row in enumerate(rows) if row is old)]
    return len(matched)


def assert_same_state(db, rows):
    """``t`` holds exactly ``rows`` in rowid order (NaN and -0.0 told
    apart by ``repr``), and each index holds exactly those rows."""
    table = db.table("t")
    stored = list(table.scan())
    assert [repr(row) for _, row in stored] == [repr(row) for row in rows]
    for index in table.indexes.values():
        expected = {}
        for rowid, row in stored:
            key = table.schema.key_of(row, index.columns)
            expected.setdefault(key, set()).add(rowid)
        for key, rowids in expected.items():
            assert index.lookup(key) == rowids, (index.name, key)
        assert len(index) == len(stored), index.name


def outcome(run):
    try:
        return run()
    except DatabaseError as exc:
        return type(exc)


# ---------------------------------------------------------------------------
# The grammar
# ---------------------------------------------------------------------------

# An expression that raises when a row reaches it, and only then.
WHERE_ERRORS = [
    "nope = 1", "t.nope IS NULL", "body < 1", "n LIKE 'x'",
    "body + 1 = 'x'", "m > ?",  # the ``?`` gets no parameter
]

# Not predicates: alone, WHERE keeps a row only for the value True
# itself; under AND, OR and NOT any truthy value counts (NaN included).
BARE = ["m", "n", "LENGTH(body)", "m - 3"]


@st.composite
def _wheres(draw, columns, params):
    """``WHERE`` text over ``columns``: up to three atoms under AND, OR
    and NOT, or nothing."""
    atoms = [
        draw(st.sampled_from(BARE)) if draw(st.integers(0, 7)) == 0
        else draw(_atoms(columns, params))
        for _ in range(draw(st.sampled_from([0, 1, 1, 2, 2, 3])))
    ]
    if not atoms:
        return ""
    text = atoms[0]
    for atom in atoms[1:]:
        if draw(st.integers(0, 3)) == 0:
            atom = f"NOT ({atom})"
        text = f"{text} {draw(st.sampled_from(['AND', 'AND', 'OR']))} {atom}"
    return " WHERE " + text


@st.composite
def statements(draw):
    """``(sql, params)``: a DELETE of ``t``.

    A WHERE that can raise is drawn over unindexed columns only.  An
    index narrows candidates before WHERE is evaluated, so a row the
    model raises on might never reach the expression (the divergence
    ``repro.db.plan`` documents for SELECT); with every row a candidate,
    model and engine meet each error on the same row."""
    params = []
    head = "DELETE FROM t"
    if draw(st.integers(0, 5)) == 0:
        where = draw(_wheres(list(UNINDEXED.items()), params))
        error = draw(st.sampled_from(WHERE_ERRORS))
        glue = draw(st.sampled_from(["AND", "OR"]))
        if not where:
            where = f" WHERE {error}"
        elif "?" in error or draw(st.booleans()):
            where = f"{where} {glue} {error}"
        else:
            where = f" WHERE {error} {glue} ({where[len(' WHERE '):]})"
        return head + where, params
    # Indexed columns twice: half the atoms can choose an access path.
    columns = list(INDEXED.items()) * 2 + list(UNINDEXED.items())
    return head + draw(_wheres(columns, params)), params


@given(st.lists(statements(), min_size=1, max_size=4))
@settings(max_examples=400, derandomize=True, deadline=None)
def test_generated_dml_matches_the_model(script):
    # Each statement runs twice, on the table the first run left: the
    # second run is served off the statement cache.
    db = build_db()
    schema = db.table("t").schema
    rows = initial_rows(db)
    with obs.use_registry() as registry:
        for sql, params in script:
            statement = parse(sql)
            for run in range(2):
                expected = outcome(
                    lambda: run_model(rows, schema, statement, params)
                )
                actual = outcome(lambda: db.execute(sql, params).scalar())
                assert actual == expected, (sql, params, run)
                assert_same_state(db, rows)
        assert registry.counter("db.stmt_cache.hits").value >= len(script)


# ---------------------------------------------------------------------------
# The one deliberate change, pinned
# ---------------------------------------------------------------------------

UNREACHED = [
    # (statement, params): the faulty expression is in an unindexed
    # WHERE and no candidate row reaches it.
    ("DELETE FROM t WHERE m = 1000 AND n > ?", []),
    ("DELETE FROM t WHERE grp = 'nope' AND nope = 1", []),
]


@pytest.mark.parametrize("sql,params", UNREACHED)
def test_errors_wait_for_a_row_in_dml_as_in_select(sql, params):
    # Binding the whole WHERE up front used to raise on the missing
    # ``?`` before any row was looked at.  Now every expression error
    # waits for a row to reach it, as in a SELECT of the same WHERE.
    db = build_db()
    assert db.execute(sql, params).scalar() == 0
    where = sql[sql.index(" WHERE "):]
    assert db.execute("SELECT k FROM t" + where, params).rows == []
    assert_same_state(db, initial_rows(db))


@pytest.mark.parametrize("sql,params", [
    ("DELETE FROM t WHERE n > ?", []),
    ("DELETE FROM t WHERE k = ?", []),  # an index probe reads it at once
])
def test_reached_errors_raise_before_any_row_changes(sql, params):
    db = build_db()
    before = [repr(row) for _, row in db.table("t").scan()]
    with pytest.raises(ProgrammingError):
        db.execute(sql, params)
    assert [repr(row) for _, row in db.table("t").scan()] == before


# ---------------------------------------------------------------------------
# Statements are all-or-nothing
# ---------------------------------------------------------------------------


def build_parent_child():
    """``p`` (five rows, ``UNIQUE (v)``) and ``c``, whose one row
    references ``p.id = 4``: a multi-row statement over ``p`` can get
    part way before it fails."""
    db = Database()
    db.execute(
        "CREATE TABLE p (id INTEGER, v INTEGER, PRIMARY KEY (id), "
        "UNIQUE (v))"
    )
    db.execute(
        "CREATE TABLE c (cid INTEGER, pid INTEGER, PRIMARY KEY (cid), "
        "FOREIGN KEY (pid) REFERENCES p (id))"
    )
    db.execute("CREATE INDEX ix_c_pid ON c (pid)")
    insert_rows(db, "p", [(1, 10), (2, 20), (3, 30), (4, 40), (5, 50)])
    insert_rows(db, "c", [(1, 4)])
    return db


def table_state(db):
    """Every table's rows, and per index its size, distinct keys and
    what each stored row's key looks up."""
    state = {}
    for name in db.table_names:
        table = db.table(name)
        rows = list(table.scan())
        state[name] = (rows, {
            index.name: (
                len(index),
                index.distinct_keys,
                {
                    key: index.lookup(key)
                    for key in (
                        table.schema.key_of(row, index.columns)
                        for _, row in rows
                    )
                },
            )
            for index in table.indexes.values()
        })
    return state


#: Statements whose first rows succeed before a later row fails; each
#: id says what the first rows did.
PARTIAL = [
    pytest.param("DELETE FROM p WHERE v > 0",
                 id="deleted-ids-1-3-then-id-4-is-referenced"),
]


@pytest.mark.parametrize("sql", PARTIAL)
def test_a_statement_that_fails_part_way_changes_nothing(sql):
    db = build_parent_child()
    before = table_state(db)
    with pytest.raises(IntegrityError):
        db.execute(sql)
    assert table_state(db) == before
    # Nothing of it lingers to trip up the statements after it.
    db.insert("p", {"id": 6, "v": 60})
    assert db.execute("SELECT COUNT(*) FROM p").scalar() == 6


@pytest.mark.parametrize("sql", PARTIAL)
def test_a_failed_statement_inside_a_transaction_keeps_rollback_whole(sql):
    db = build_parent_child()
    before = table_state(db)
    db.begin()
    db.execute("DELETE FROM p WHERE id = 5")
    db.insert("p", {"id": 8, "v": 80})
    during = table_state(db)
    with pytest.raises(IntegrityError):
        db.execute(sql)
    assert table_state(db) == during
    db.rollback()
    assert table_state(db) == before


@pytest.mark.parametrize("sql", PARTIAL)
def test_a_committed_transaction_keeps_what_succeeded(sql):
    db = build_parent_child()
    db.begin()
    db.insert("p", {"id": 8, "v": 80})
    during = table_state(db)
    with pytest.raises(IntegrityError):
        db.execute(sql)
    db.commit()
    assert table_state(db) == during
