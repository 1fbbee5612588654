"""DML equivalence: UPDATE and DELETE against a list-of-rows model.

``Database.execute`` locates rows through the planner's access paths and
evaluates WHERE and SET as compiled row functions over stored tuples.
The model here knows none of that: a table is a list of tuples in rowid
order, a statement is its parsed form, every expression is interpreted
by ``tests/reference/expr.py`` against a ``{table.column: value}``
context, and a mutation is a list edit.  After every generated statement
the table, the rowcount or the raised error type, and every index must
agree.

A statement is all-or-nothing: the model applies it row by row in
rowid order to a copy of the table and keeps the copy only if every row
succeeded, so a failure on the third matched row leaves the first two
unchanged too.  WHERE is decided for every row before any row changes.

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
from repro.db.sql import Update
from repro.errors import DatabaseError, IntegrityError, ProgrammingError
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
# ``children.pid`` references ``t.k``: key 6 may neither go nor move.
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
    for row in ROWS:
        db.execute("INSERT INTO t VALUES (?, ?, ?, ?, ?)", list(row))
    for row in CHILDREN:
        db.execute("INSERT INTO children VALUES (?, ?)", list(row))
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
    """Apply a parsed UPDATE or DELETE of ``t`` to ``rows`` in place, all
    or nothing; returns the rowcount or raises what the statement raises
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
    count = 0
    for old in matched:
        position = next(i for i, row in enumerate(rows) if row is old)
        key_moves_or_goes = True
        if isinstance(statement, Update):
            merged = dict(zip(columns, old))
            merged.update(
                (column.lower(), value_of(expression, old))
                for column, expression in statement.assignments
            )
            new = schema.validate_row(merged)
            key_moves_or_goes = new[0] != old[0]
        if key_moves_or_goes and old[0] in REFERENCED:
            raise IntegrityError(f"{old[0]} is referenced")
        if isinstance(statement, Update):
            if any(row[0] == new[0] for row in rows if row is not old):
                raise IntegrityError(f"duplicate key {new[0]}")
            rows[position] = new
        else:
            del rows[position]
        count += 1
    return count


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

# (column, right-hand side, parameter values to draw one from or None).
ASSIGNMENTS = [
    ("body", "?", ["x", "", "İ", None]),
    ("body", "body + ?", ["!", "%"]),
    ("body", "LOWER(body)", None),
    ("body", "grp", None),
    ("grp", "?", ["a", "z", None]),
    ("grp", "UPPER(body)", None),
    ("n", "n * 2", None),
    ("n", "m + 0.5", None),
    ("n", "n / m", None),                 # m = 0: NULL, not an error
    ("n", "?", [NAN, None, 7, -0.0]),
    ("m", "m + 1", None),
    ("m", "LENGTH(body)", None),          # NULL body: NOT NULL violated
    ("m", "n", None),                     # fractional, NaN: type mismatch
    ("m", "?", [5, None, 2.0, "five"]),
    ("k", "k + 10", None),
    ("k", "k + 1", None),                 # collides with the next key
    ("k", "?", [2, 50, None]),
    ("K", "k * 1", None),                 # the key rewritten to itself
    ("body", "body + 1", None),           # ill-typed operands
    ("n", "nope", None),                  # unknown column
    ("nope", "1", None),                  # unknown target
    ("n", "m + ?", "missing"),            # the ``?`` gets no parameter
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
    """``(sql, params)``: an UPDATE or DELETE of ``t``.

    A WHERE that can raise is drawn over unindexed columns only.  An
    index narrows candidates before WHERE is evaluated, so a row the
    model raises on might never reach the expression (the divergence
    ``repro.db.plan`` documents for SELECT); with every row a candidate,
    model and engine meet each error on the same row."""
    params = []
    head = "DELETE FROM t"
    missing = False
    if draw(st.booleans()):
        chosen = draw(st.lists(
            st.sampled_from(ASSIGNMENTS), min_size=1, max_size=2,
            unique_by=lambda assignment: assignment[0].lower(),
        ))
        # The missing ``?`` has to be the statement's last.
        chosen.sort(key=lambda assignment: assignment[2] == "missing")
        for _, _, values in chosen:
            if values == "missing":
                missing = True
            elif values is not None:
                params.append(draw(st.sampled_from(values)))
        head = "UPDATE t SET " + ", ".join(
            f"{column} = {value}" for column, value, _ in chosen
        )
    if missing:
        return head, params  # a WHERE's ``?`` would take its place
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
    ("UPDATE t SET m = 0 WHERE m > 1000 AND body LIKE ?", []),
    ("UPDATE t SET m = 0 WHERE k = ? AND zzz = 1", [99]),
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
    ("UPDATE t SET m = 0 WHERE nope = 1", []),
    ("UPDATE t SET m = ? WHERE k = 2", []),
    ("UPDATE t SET m = nope WHERE k = 2", []),
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
    db.execute("INSERT INTO p VALUES (1, 10), (2, 20), (3, 30), (4, 40), "
               "(5, 50)")
    db.execute("INSERT INTO c VALUES (1, 4)")
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
    pytest.param("INSERT INTO p VALUES (6, 60), (7, 70), (1, 80)",
                 id="inserted-6-and-7-then-id-1-exists"),
    pytest.param("UPDATE p SET v = 60 WHERE id > 2",
                 id="moved-id-3-then-id-4-collides-on-v"),
    pytest.param("INSERT INTO c VALUES (2, 1), (3, 9)",
                 id="inserted-cid-2-then-no-parent-9"),
]


@pytest.mark.parametrize("sql", PARTIAL)
def test_a_statement_that_fails_part_way_changes_nothing(sql):
    db = build_parent_child()
    before = table_state(db)
    with pytest.raises(IntegrityError):
        db.execute(sql)
    assert table_state(db) == before
    # Nothing of it lingers to trip up the statements after it.
    db.execute("INSERT INTO p VALUES (6, 60)")
    assert db.execute("SELECT COUNT(*) FROM p").scalar() == 6


@pytest.mark.parametrize("sql", PARTIAL)
def test_a_failed_statement_inside_a_transaction_keeps_rollback_whole(sql):
    db = build_parent_child()
    before = table_state(db)
    db.begin()
    db.execute("UPDATE p SET v = 11 WHERE id = 1")
    db.execute("INSERT INTO p VALUES (8, 80)")
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
    db.execute("INSERT INTO p VALUES (8, 80)")
    during = table_state(db)
    with pytest.raises(IntegrityError):
        db.execute(sql)
    db.commit()
    assert table_state(db) == during
