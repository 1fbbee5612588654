"""The substring probe never changes an answer.

A non-negated ``LIKE`` over an indexed TEXT column reads candidates
through the index's trigram map (``index substring`` in the plan) and
re-applies the ``LIKE`` to each.  The map is built on the first probe
and then maintained by every key that appears or disappears, so this
property builds it first and then interleaves SELECTs with inserts,
DELETEs and a rolled-back transaction:

* every SELECT returns the rows, in the order, of the seed interpreter
  ``tests/reference/select.py``, or raises what it raises — ``LIKE``
  over the indexed INTEGER key included;
* every DELETE does what the list-of-rows model of
  ``tests/db/test_dml_equivalence.py`` does;
* after the script the maintained map is the map rebuilt from the
  index's keys.

Values and patterns are drawn from ASCII letters, both wildcards, the
escape character and the five characters whose case folding
``str.lower`` and the regex engine disagree on, so short keys, keys
with no trigram, non-ASCII keys and patterns with no usable run all
turn up.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, parse
from repro.db.index import _TrigramMap
from repro.errors import ProgrammingError
from tests.db.rows import insert_rows
from tests.db.test_dml_equivalence import (
    CHILDREN,
    assert_same_state,
    outcome,
    run_model,
)
from tests.reference.select import naive_execute_select

# ASCII letters in both cases, ``%``, ``_``, ``\`` and the case-fold
# traps: dotted capital I, dotless i, long s, the Kelvin sign, sharp s.
ALPHABET = "abAB%_\\\u0130\u0131\u017f\u212a\u00df"

# Longer strings are glued from pieces, so values and patterns share
# trigrams often enough for probes to find (and wrongly miss) keys.
PIECES = ["aba", "bab", "abA", "BAb", "ab", "ba"] + list(ALPHABET)
VALUES = st.one_of(
    st.none(),
    st.text(ALPHABET, max_size=2),
    st.lists(st.sampled_from(PIECES), min_size=1, max_size=4).map("".join),
)
PATTERNS = st.one_of(
    st.text(ALPHABET, max_size=5),
    st.lists(
        st.sampled_from(PIECES + ["%", "%", "_", "ab_ab", "ba_a", "\\%",
                                  "\\_", "\\\\"]),
        max_size=5,
    ).map("".join),
)

COLUMNS = ["grp", "grp", "body"]  # grp is indexed, body is not
WRAPS = ["{}", "LOWER({})", "UPPER({})"]
ESCAPES = ["", " ESCAPE '\\'", " ESCAPE 'a'"]


def build_db(values):
    """``t`` of ``tests/db/test_dml_equivalence.py`` (``k`` the
    INTEGER key, ``grp`` indexed TEXT, ``body`` unindexed TEXT) with
    ``values`` in both text columns; key 6, which ``children``
    references, is always there."""
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
    insert_rows(db, "t", [
        (k, value, value[::-1] if isinstance(value, str) else value, 0.5, k)
        for k, value in enumerate(values + [None] * (7 - len(values)), 1)
    ])
    insert_rows(db, "children", CHILDREN)
    return db


@st.composite
def patterns(draw, values):
    """A pattern drawn on its own, or a piece of one of ``values`` —
    maybe with a character made ``_`` and the case changed — under
    leading and trailing wildcards: the probes that find keys."""
    texts = [value for value in values if value]
    if not texts or draw(st.integers(0, 3)) == 0:
        return draw(PATTERNS)
    core = draw(st.sampled_from(texts))
    if draw(st.booleans()):
        start = draw(st.integers(0, len(core) - 1))
        core = core[start:draw(st.integers(start + 1, len(core)))]
    if len(core) > 2 and draw(st.integers(0, 2)) > 0:
        at = draw(st.integers(0, len(core) - 1))
        core = core[:at] + "_" + core[at + 1:]
    core = draw(st.sampled_from([core, core.upper(), core.swapcase()]))
    shape = draw(st.sampled_from(["%{}%", "%{}%", "{}%", "%{}", "{}"]))
    return shape.format(core)


@st.composite
def likes(draw, values, params, column=None):
    """``[LOWER|UPPER](col) [NOT] LIKE pattern [ESCAPE c]``; the pattern
    a literal, a ``?``, NULL or a ``?`` bound to NULL."""
    column = column or draw(st.sampled_from(COLUMNS))
    left = draw(st.sampled_from(WRAPS)).format(column)
    negated = "NOT " if draw(st.integers(0, 5)) == 0 else ""
    escape = draw(st.sampled_from(ESCAPES))
    pattern = draw(patterns(values))
    form = draw(st.sampled_from(["lit", "param", "param", "lit", "null"]))
    if form == "null":
        right = "NULL" if draw(st.booleans()) else "?"
        if right == "?":
            params.append(None)
    elif form == "param":
        params.append(pattern)
        right = "?"
    else:
        right = "'" + pattern.replace("'", "''") + "'"
    return f"{left} {negated}LIKE {right}{escape}"


@st.composite
def wheres(draw, values, params):
    count = draw(st.integers(1, 2))
    atoms = [draw(likes(values, params)) for _ in range(count)]
    glue = draw(st.sampled_from([" AND ", " AND ", " OR "]))
    return glue.join(atoms)


@st.composite
def selects(draw, values):
    params = []
    if draw(st.integers(0, 7)) == 0:
        # LIKE over the indexed INTEGER key: no probe, an error per row.
        where = draw(likes(values, params, column="k"))
    else:
        where = draw(wheres(values, params))
    head = draw(st.sampled_from([
        "SELECT k, grp FROM t WHERE {}",
        "SELECT * FROM t WHERE {}",
        "SELECT grp, count(*) FROM t WHERE {} GROUP BY grp",
    ]))
    return ("select", head.format(where), params)


@st.composite
def dml(draw, values):
    params = []
    where = draw(wheres(values, params))
    return ("dml", f"DELETE FROM t WHERE {where}", params)


@st.composite
def inserts(draw):
    return ("insert", draw(VALUES), draw(VALUES))


@st.composite
def steps(draw, values):
    kind = draw(st.sampled_from(
        ["select", "select", "select", "dml", "dml", "insert", "rollback"]
    ))
    if kind == "select":
        return draw(selects(values))
    if kind == "dml":
        return draw(dml(values))
    if kind == "insert":
        return draw(inserts())
    return ("rollback", draw(st.lists(st.one_of(dml(values), inserts()),
                                      min_size=1, max_size=3)))


def _select_outcome(run):
    result = outcome(run)
    if isinstance(result, type):
        return result
    return result.columns, result.rows


class Model:
    """The database under test beside what it must hold."""

    def __init__(self, values):
        self.db = build_db(values)
        self.schema = self.db.table("t").schema
        self.rows = [row for _, row in self.db.table("t").scan()]
        self.next_key = 100

    def select(self, sql, params):
        statement = parse(sql)
        expected = _select_outcome(
            lambda: naive_execute_select(self.db, statement, params)
        )
        for run in range(2):  # the second off the statement cache
            actual = _select_outcome(lambda: self.db.execute(sql, params))
            assert actual == expected, (sql, params, run)

    def apply(self, step):
        kind = step[0]
        if kind == "dml":
            _, sql, params = step
            statement = parse(sql)
            expected = outcome(
                lambda: run_model(self.rows, self.schema, statement, params)
            )
            actual = outcome(lambda: self.db.execute(sql, params).scalar())
            assert actual == expected, (sql, params)
        elif kind == "insert":
            _, grp, body = step
            values = (self.next_key, grp, body, None, 0)
            self.next_key += 1
            insert_rows(self.db, "t", [values])
            self.rows.append(values)
        elif kind == "rollback":
            before = list(self.rows)
            self.db.begin()
            for inner in step[1]:
                self.apply(inner)
            self.db.rollback()
            self.rows[:] = before
        else:
            self.select(step[1], step[2])
        assert_same_state(self.db, self.rows)


def assert_map_is_current(index):
    """``index``'s maintained trigram map equals one rebuilt from its
    keys."""
    maintained = index._trigrams
    assert maintained is not None
    rebuilt = _TrigramMap(index._entries)
    assert maintained.buckets == rebuilt.buckets
    assert maintained.non_ascii == rebuilt.non_ascii


@given(values=st.lists(VALUES, min_size=2, max_size=7), data=st.data())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_the_substring_probe_never_changes_an_answer(values, data):
    script = data.draw(
        st.lists(steps(values), min_size=2, max_size=10), label="script"
    )
    model = Model(values)
    # Build the map first, so every mutation below has one to maintain.
    first = model.db.execute("SELECT k FROM t WHERE grp LIKE '%aba%'")
    assert first.plan[0] == "index substring ix_t_grp(grp like '%aba%')"
    for step in script:
        model.apply(step)
    assert_map_is_current(model.db.table("t").index_on(("grp",)))


def test_the_plan_names_the_path_it_took():
    db = build_db(["abab", "BABA", "a\u212aab", None, "ab"])
    cases = [
        ("LOWER(grp) LIKE '%bab%'", [],
         "index substring ix_t_grp(grp like '%bab%')"),
        ("UPPER(grp) LIKE ?", ["_aba%"],
         "index substring ix_t_grp(grp like '_aba%')"),
        ("grp LIKE '%a\\%b%' ESCAPE '\\'", [],  # an escaped % is literal
         "index substring ix_t_grp(grp like '%a\\\\%b%')"),
        ("grp LIKE ?", [None], "empty scan t (grp like NULL)"),
        ("grp LIKE '%ab%'", [], "full scan t"),       # no trigram
        ("grp LIKE '%a_b%'", [], "full scan t"),      # _ ends a run
        ("grp LIKE ?", [5], "full scan t"),           # not text: raises
        ("grp NOT LIKE '%bab%'", [], "full scan t"),
        ("body LIKE '%bab%'", [], "full scan t"),     # no index
        ("k LIKE '%123%'", [], "full scan t"),        # not TEXT
    ]
    for where, params, line in cases:
        # EXPLAIN DELETE reports the row-location path without running
        # the WHERE, which raises for the two non-text cases.
        plan = db.execute(f"EXPLAIN DELETE FROM t WHERE {where}", params)
        assert plan.rows[0] == (line,), where
        try:
            plan = db.execute(f"SELECT k FROM t WHERE {where}", params).plan
        except ProgrammingError:
            assert params == [5] or where.startswith("k "), where
        else:
            assert plan[0] == line, where
    # Candidates are a superset: the non-ASCII key is one, and the
    # LIKE then keeps only the real matches.
    result = db.execute("SELECT grp FROM t WHERE grp LIKE '%bab%'")
    assert result.rows == [("abab",), ("BABA",)]
    assert db.execute(
        "EXPLAIN DELETE FROM t WHERE grp LIKE '%bab%'"
    ).rows[-1] == ("candidate rows 3",)
