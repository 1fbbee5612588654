"""Plan equivalence: the one SELECT executor against the seed interpreter.

The contract the engine makes is that planner choices can never change
results, only speed.  This suite enforces it directly: a zoo of SELECT
shapes, and SELECTs generated from a small grammar over the same
tables, run through :class:`repro.db.plan.SelectPlan` and each result —
columns, rows, and row order — must be identical to the seed
row-at-a-time executor kept as the oracle in
:func:`tests.reference.select.naive_execute_select`.

(The zoo test keeps the name it had when it swept a 2^6 lattice of
planner options; there is one configuration now.)

The fixture data is deliberately adversarial: NULL join keys on both
sides, duplicate keys, ties in sort columns, floats whose sum depends
on fold order, an empty table, and a table of strings made of LIKE
wildcards, regex metacharacters and the characters whose case folding
``str.lower`` and the regex engine do not agree on.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.db import Database, parse
from repro.db.plan import SelectPlan
from repro.errors import ProgrammingError
from tests.db.rows import insert_rows
from tests.reference.select import naive_execute_select

# What LIKE patterns and the ``notes`` rows are made of: both wildcards,
# the usual escape character, regex metacharacters, mixed case, a
# newline, and the case-fold traps (dotted/dotless i, long s, the
# Kelvin sign, sharp s) next to the ASCII letters they fold to.
LIKE_ALPHABET = "%_\\.*+[(aAbiIkKsS \n\u0130\u0131\u017f\u212a\u00df"

NOTES = [
    "50%_off", "50% off", "5000 off", "a_b", "a.b", "axb", "A+B", "(a)",
    "[b]", "a\\b", "ab", "AB", "aB\n", "\nab", "", "%", "_", "\\",
    "\u0130stanbul", "istanbul", "\u0131i", "SI", "\u017fi", "si",
    "\u212a", "k", "K", "stra\u00dfe", "STRASSE", "b a", None,
]


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.execute(
        "CREATE TABLE deals (deal_id TEXT, industry TEXT, value REAL, "
        "lead TEXT, PRIMARY KEY (deal_id))"
    )
    database.execute(
        "CREATE TABLE contacts (cid INTEGER, deal_id TEXT, nm TEXT, "
        "role TEXT, PRIMARY KEY (cid))"
    )
    database.execute(
        "CREATE TABLE scopes (sid INTEGER, deal_id TEXT, tower TEXT, "
        "hours REAL, PRIMARY KEY (sid))"
    )
    database.execute("CREATE TABLE empty (k INTEGER, PRIMARY KEY (k))")
    database.execute("CREATE TABLE one (k INTEGER, PRIMARY KEY (k))")
    insert_rows(database, "one", [(1,)])
    database.execute(
        "CREATE TABLE notes (nid INTEGER, body TEXT, PRIMARY KEY (nid))"
    )
    insert_rows(database, "notes", enumerate(NOTES))
    database.execute("CREATE INDEX ix_contacts_deal ON contacts (deal_id)")
    database.execute("CREATE INDEX ix_deals_industry ON deals (industry)")
    database.execute("CREATE INDEX ix_scopes_deal ON scopes (deal_id)")
    deals = [
        ("d1", "bank", 10.5, "Sam"),
        ("d2", "auto", 0.1, "Sam"),
        ("d3", "bank", 0.2, None),
        ("d4", "retail", 0.3, "Wei"),
        ("d5", None, 10.5, "Jane"),
        ("d6", "bank", None, "Jane"),
    ]
    insert_rows(database, "deals", deals)
    contacts = [
        (1, "d1", "Sam", "CSE"),
        (2, "d1", "Jane", "TSA"),
        (3, "d2", "Sam", "CSE"),
        (4, None, "Ghost", "DPE"),   # NULL join key, right side
        (5, "d3", "Wei", "DPE"),
        (6, "d3", "Wei", "CSE"),     # duplicate nm, different role
        (7, "dX", "Orphan", "TSA"),  # key with no matching deal
        (8, "d5", "Jane", None),
    ]
    insert_rows(database, "contacts", contacts)
    scopes = [
        (1, "d1", "WAN", 100.0),
        (2, "d1", "LAN", 0.1),
        (3, "d2", "WAN", 0.2),
        (4, "d3", None, 0.3),
        (5, None, "LAN", 0.4),       # NULL join key again
        (6, "d4", "WAN", None),
    ]
    insert_rows(database, "scopes", scopes)
    return database


# (sql, params) pairs; every shape the engine optimizes differently.
QUERY_ZOO = [
    ("SELECT * FROM deals", ()),
    ("SELECT deal_id, value FROM deals WHERE industry = 'bank'", ()),
    ("SELECT deal_id FROM deals WHERE industry = ?", ("auto",)),
    ("SELECT deal_id FROM deals WHERE industry = ?", (None,)),
    ("SELECT deal_id FROM deals WHERE value > 0.15 AND lead = 'Sam'", ()),
    ("SELECT deal_id FROM deals WHERE industry IS NULL", ()),
    ("SELECT deal_id FROM deals ORDER BY value DESC, deal_id", ()),
    ("SELECT deal_id FROM deals ORDER BY value DESC, deal_id LIMIT 3", ()),
    ("SELECT deal_id FROM deals ORDER BY value LIMIT 2 OFFSET 2", ()),
    ("SELECT DISTINCT industry FROM deals", ()),
    ("SELECT DISTINCT industry FROM deals LIMIT 2", ()),
    ("SELECT DISTINCT industry FROM deals LIMIT 2 OFFSET 1", ()),
    ("SELECT DISTINCT lead FROM deals ORDER BY lead LIMIT 2", ()),
    ("SELECT deal_id FROM deals LIMIT 4", ()),
    ("SELECT k FROM empty", ()),
    ("SELECT count(*) FROM empty", ()),
    # Joins — NULL keys on both sides must never match.
    ("SELECT d.deal_id, c.nm FROM deals d "
     "JOIN contacts c ON c.deal_id = d.deal_id", ()),
    ("SELECT d.deal_id, c.nm FROM deals d "
     "LEFT JOIN contacts c ON c.deal_id = d.deal_id", ()),
    ("SELECT d.deal_id, c.nm FROM deals d "
     "JOIN contacts c ON c.deal_id = d.deal_id "
     "WHERE d.industry = 'bank' AND c.role = 'CSE'", ()),
    ("SELECT d.deal_id, c.nm FROM deals d "
     "LEFT JOIN contacts c ON c.deal_id = d.deal_id "
     "WHERE d.value > 0.15", ()),
    # LEFT JOIN + predicate on the right side: pushdown must not
    # filter before null-extension.
    ("SELECT d.deal_id, c.nm FROM deals d "
     "LEFT JOIN contacts c ON c.deal_id = d.deal_id "
     "WHERE c.nm IS NULL", ()),
    ("SELECT d.deal_id, c.nm, s.tower FROM deals d "
     "JOIN contacts c ON c.deal_id = d.deal_id "
     "JOIN scopes s ON s.deal_id = d.deal_id "
     "ORDER BY d.deal_id, c.cid, s.sid", ()),
    ("SELECT a.nm, b.nm FROM contacts a "
     "JOIN contacts b ON b.deal_id = a.deal_id "
     "WHERE a.cid != b.cid", ()),
    # Aggregation — order-sensitive float sums, DISTINCT aggregates,
    # HAVING, ORDER BY on aggregate aliases, expressions over results.
    ("SELECT count(*), sum(value), avg(value), min(value), max(value) "
     "FROM deals", ()),
    ("SELECT industry, count(*) n, sum(value) total FROM deals "
     "GROUP BY industry", ()),
    ("SELECT industry, count(*) n FROM deals GROUP BY industry "
     "ORDER BY n DESC, industry", ()),
    ("SELECT industry, sum(value) total FROM deals GROUP BY industry "
     "ORDER BY total DESC LIMIT 2", ()),
    ("SELECT industry, count(DISTINCT lead) leads FROM deals "
     "GROUP BY industry ORDER BY leads DESC, industry LIMIT 2", ()),
    ("SELECT industry FROM deals GROUP BY industry "
     "HAVING count(*) > 1", ()),
    ("SELECT d.industry, count(*) n, sum(s.hours) h FROM deals d "
     "JOIN scopes s ON s.deal_id = d.deal_id "
     "GROUP BY d.industry ORDER BY h DESC, d.industry", ()),
    ("SELECT industry, max(value) - min(value) spread FROM deals "
     "GROUP BY industry ORDER BY industry", ()),
    ("SELECT lead, count(*) FROM deals WHERE industry = ? "
     "GROUP BY lead ORDER BY lead", ("bank",)),
    ("SELECT sum(value) FROM deals WHERE industry = 'nope'", ()),
]


def _reference(db, sql, params):
    return naive_execute_select(db, parse(sql), params)


@pytest.mark.parametrize("sql,params", QUERY_ZOO,
                         ids=[q[0][:60] for q in QUERY_ZOO])
def test_every_option_combination_matches_naive(db, sql, params):
    expected = _reference(db, sql, params)
    result = SelectPlan(db, parse(sql)).execute(params)
    assert result.columns == expected.columns
    assert result.rows == expected.rows


def test_plans_are_reusable_across_params(db):
    statement = parse("SELECT deal_id FROM deals WHERE industry = ?")
    plan = SelectPlan(db, statement)
    for value in ("bank", "auto", None, "retail"):
        expected = _reference(
            db, "SELECT deal_id FROM deals WHERE industry = ?", (value,)
        )
        assert plan.execute((value,)).rows == expected.rows


# -- generated SELECTs --------------------------------------------------------
#
# A small grammar over the fixture tables.  Every generated statement is
# well typed (text columns meet text values, numeric columns numbers),
# because the one documented divergence between plan and oracle is
# *when* an ill-typed expression raises, not what rows come back.

TEXT, NUM = "text", "num"

# alias -> {column: (type, values a predicate may probe for)}
SOURCES = {
    "d": {  # deals
        "deal_id": (TEXT, ["d1", "d3", "d6", "dX"]),
        "industry": (TEXT, ["bank", "auto", "retail", "nope"]),
        "value": (NUM, [0.1, 0.15, 0.3, 10.5]),
        "lead": (TEXT, ["Sam", "Jane", "Wei"]),
    },
    "c": {  # contacts
        "cid": (NUM, [1, 4, 6]),
        "deal_id": (TEXT, ["d1", "d3", "dX"]),
        "nm": (TEXT, ["Sam", "Wei", "Ghost"]),
        "role": (TEXT, ["CSE", "TSA", "DPE"]),
    },
    "s": {  # scopes
        "sid": (NUM, [2, 4]),
        "deal_id": (TEXT, ["d1", "d4"]),
        "tower": (TEXT, ["WAN", "LAN"]),
        "hours": (NUM, [0.1, 0.3, 100.0]),
    },
    "n": {  # notes
        "nid": (NUM, [0, 7, 30]),
        "body": (TEXT, ["ab", "a_b", "50%_off", "si", "k", "\\"]),
    },
}

# FROM shapes: (aliases in join order, template).  ``{j1}``/``{j2}``
# become "JOIN" or "LEFT JOIN".
FROM_SHAPES = [
    (("d",), "deals d"),
    (("c",), "contacts c"),
    (("s",), "scopes s"),
    (("n",), "notes n"),
    (("d", "c"), "deals d {j1} contacts c ON c.deal_id = d.deal_id"),
    (("c", "d"), "contacts c {j1} deals d ON d.deal_id = c.deal_id"),
    (("d", "s"), "deals d {j1} scopes s ON s.hours > d.value"),
    (("d", "c", "s"),
     "deals d {j1} contacts c ON c.deal_id = d.deal_id "
     "{j2} scopes s ON s.deal_id = d.deal_id"),
]


# Aggregate calls: ``{n}`` takes a numeric column, ``{a}`` any column.
AGGREGATES = [
    "count(*)", "count({a})", "count(DISTINCT {a})", "sum({n})",
    "avg({n})", "min({a})", "max({a})", "max({n}) - min({n})",
]


def _sql_literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return str(value)


@st.composite
def _likes(draw, name, params):
    """``name [NOT] LIKE pattern [ESCAPE c]``: the pattern a literal or
    a ``?``, LOWER()/UPPER() on either side or neither."""
    pattern = draw(st.text(LIKE_ALPHABET, max_size=4))
    wrap = st.sampled_from(["{}", "{}", "LOWER({})", "UPPER({})"])
    left = draw(wrap).format(name)
    if draw(st.booleans()):
        params.append(pattern)
        right = draw(wrap).format("?")
    else:
        right = draw(wrap).format(_sql_literal(pattern))
    escape = draw(st.sampled_from(["", "", " ESCAPE '\\'", " ESCAPE 'a'"]))
    negated = draw(st.sampled_from(["", "NOT "]))
    return f"{left} {negated}LIKE {right}{escape}"


@st.composite
def _in_lists(draw, name, pool, params):
    """``name [NOT] IN (...)`` with literal, ``?``, NULL and repeated
    choices."""
    choices = []
    for _ in range(draw(st.integers(1, 4))):
        value = draw(st.sampled_from(pool + [None]))
        if draw(st.booleans()):
            params.append(value)
            choices.append("?")
        else:
            choices.append(_sql_literal(value))
    negated = draw(st.sampled_from(["", "NOT "]))
    return f"{name} {negated}IN ({', '.join(choices)})"


@st.composite
def _atoms(draw, columns, params):
    """One well-typed WHERE conjunct over ``columns``; ``?`` values are
    appended to ``params`` in the order the text will carry them."""
    name, (kind, pool) = draw(st.sampled_from(columns))
    probe = draw(st.sampled_from(pool))
    form = draw(st.sampled_from(
        ["lit", "param", "null_param", "is_null", "not_null", "flipped",
         "ne", "in", "like" if kind == TEXT else "range",
         "prefix" if kind == TEXT else "arith", "or"]
    ))
    if form == "lit":
        return f"{name} = {_sql_literal(probe)}"
    if form == "param":
        params.append(probe)
        return f"{name} = ?"
    if form == "null_param":
        params.append(None)
        return f"{name} = ?"
    if form == "is_null":
        return f"{name} IS NULL"
    if form == "not_null":
        return f"{name} IS NOT NULL"
    if form == "flipped":
        params.append(probe)
        return f"? <= {name}"
    if form == "ne":
        return f"{name} != {_sql_literal(probe)}"
    if form == "in":
        return draw(_in_lists(name, pool, params))
    if form == "range":
        op = draw(st.sampled_from(["<", "<=", ">", ">="]))
        return f"{name} {op} {_sql_literal(probe)}"
    if form == "like":
        return draw(_likes(name, params))
    if form == "prefix":
        return f"{name} LIKE {_sql_literal(probe[:1] + '%')}"
    if form == "arith":
        return f"{name} + 1 > {_sql_literal(probe)}"
    other_name, (_, other_pool) = draw(st.sampled_from(columns))
    other_probe = draw(st.sampled_from(other_pool))
    return (
        f"({name} = {_sql_literal(probe)} OR "
        f"{other_name} != {_sql_literal(other_probe)})"
    )


@st.composite
def selects(draw):
    """(sql, params) for one SELECT from the grammar."""
    aliases, template = draw(st.sampled_from(FROM_SHAPES))
    joins = st.sampled_from(["JOIN", "LEFT JOIN"])
    from_clause = template.format(j1=draw(joins), j2=draw(joins))
    columns = [
        (f"{alias}.{column}", spec)
        for alias in aliases
        for column, spec in SOURCES[alias].items()
    ]
    text_columns = [c for c in columns if c[1][0] == TEXT]
    num_columns = [c for c in columns if c[1][0] == NUM]
    params = []

    where = [
        draw(_atoms(columns, params))
        for _ in range(draw(st.integers(0, 3)))
    ]

    order = []
    if draw(st.booleans()):
        # Grouped: keys, aliased aggregates, optional HAVING.
        keys = draw(st.lists(st.sampled_from(text_columns), max_size=2,
                             unique_by=lambda c: c[0]))
        items = [name for name, _ in keys]
        outputs = [name.split(".")[1] for name in items]
        for position in range(draw(st.integers(1, 3))):
            call = draw(st.sampled_from(AGGREGATES)).format(
                n=draw(st.sampled_from(num_columns))[0],
                a=draw(st.sampled_from(columns))[0],
            )
            items.append(f"{call} a{position}")
            outputs.append(f"a{position}")
        group_by = " GROUP BY " + ", ".join(n for n, _ in keys) if keys else ""
        # The last two are about LEFT JOIN's null-extended rows: a
        # group of them counts no right-side value and has no maximum.
        having = draw(st.sampled_from(
            ["", " HAVING count(*) > 1", " HAVING count(*) >= ?",
             " HAVING count({a}) = 0", " HAVING max({a}) IS NULL"]
        )).format(a=draw(st.sampled_from(columns))[0])
        if having.endswith("?"):
            params.append(draw(st.integers(0, 3)))
        tail = group_by + having
        order = draw(st.lists(st.sampled_from(outputs), max_size=2,
                              unique=True))
    else:
        if draw(st.booleans()):
            items = ["*"]
        else:
            items = [
                name for name, _ in draw(
                    st.lists(st.sampled_from(columns), min_size=1,
                             max_size=3)
                )
            ]
            if draw(st.booleans()):
                items.append(f"{draw(st.sampled_from(num_columns))[0]} * 2")
        tail = ""
        order = [
            name for name, _ in draw(
                st.lists(st.sampled_from(columns), max_size=2,
                         unique_by=lambda c: c[0])
            )
        ]

    sql = "SELECT "
    if draw(st.booleans()):
        sql += "DISTINCT "
    sql += ", ".join(items) + " FROM " + from_clause
    if where:
        sql += " WHERE " + " AND ".join(where)
    sql += tail
    if order:
        sql += " ORDER BY " + ", ".join(
            key + draw(st.sampled_from(["", " ASC", " DESC"]))
            for key in order
        )
    limit = draw(st.sampled_from([None, 0, 1, 3, 10]))
    if limit is not None:
        sql += f" LIMIT {limit}"
        offset = draw(st.sampled_from([None, 1, 2]))
        if offset is not None:
            sql += f" OFFSET {offset}"
    return sql, tuple(params)


@given(selects())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_generated_selects_match_naive(db, generated):
    # Twice: the second run is served off the statement cache, through
    # the plan the first one prepared.
    sql, params = generated
    expected = _reference(db, sql, params)
    with obs.use_registry() as registry:
        for run in range(2):
            result = db.execute(sql, params)
            assert result.columns == expected.columns, (sql, run)
            assert result.rows == expected.rows, (sql, params, run)
        assert registry.counter("db.stmt_cache.hits").value >= 1


# -- LIKE, exhaustively ---------------------------------------------------------
#
# The grammar above reaches a case-fold trap only now and then; this
# sweeps them: every one- and two-character core over the alphabet, in
# each shape the executor classifies (equality, prefix, suffix,
# substring) and two it leaves to the regex, against every ``notes`` row.

LIKE_SHAPES = ["{}", "{}%", "%{}", "%{}%", "_{}", "%{}_%"]


@pytest.mark.parametrize("shape", LIKE_SHAPES)
def test_like_shapes_match_naive(db, shape):
    cores = list(LIKE_ALPHABET) + [
        a + b for a in LIKE_ALPHABET for b in LIKE_ALPHABET
    ]
    statements = [
        "SELECT nid FROM notes WHERE body LIKE ?",
        "SELECT nid FROM notes WHERE LOWER(body) NOT LIKE ? ESCAPE '\\'",
        "SELECT nid FROM notes WHERE UPPER(body) LIKE LOWER(?) ESCAPE 'a'",
    ]
    plans = [SelectPlan(db, parse(sql)) for sql in statements]
    for core in cores:
        params = (shape.format(core),)
        for sql, plan in zip(statements, plans):
            expected = _reference(db, sql, params)
            assert plan.execute(params).rows == expected.rows, (sql, params)


# -- laziness --------------------------------------------------------------------
#
# An expression that cannot be evaluated — unknown or ambiguous column,
# a ``?`` nobody supplied, LIKE over a number — is an error of the row
# that reaches it, not of the statement: nothing raises while no row
# does, and the first row raises what the interpreter would.

LAZY = [
    ("SELECT nope FROM {t}", ()),
    ("SELECT k FROM {t} WHERE nope = 1", ()),
    ("SELECT k FROM {t} WHERE k > 0 AND x.k = 1", ()),
    ("SELECT k FROM {t} a JOIN {t} b ON a.k = b.k", ()),
    ("SELECT a.k FROM {t} a JOIN {t} b ON a.k = b.k WHERE k = 1", ()),
    ("SELECT a.k FROM {t} a JOIN {t} b ON a.k + 0 = b.nope", ()),
    ("SELECT k FROM {t} WHERE k + 0 = ?", ()),
    ("SELECT k + ? FROM {t} WHERE k + 0 = ?", (1,)),
    ("SELECT k FROM {t} WHERE k LIKE '1%'", ()),
    ("SELECT k FROM {t} WHERE k + 0 LIKE ?", ("%",)),
    ("SELECT k FROM {t} ORDER BY nope", ()),
    ("SELECT count(*) FROM {t} GROUP BY nope", ()),
    ("SELECT sum(nope) FROM {t}", ()),
]


@pytest.mark.parametrize("template,params", LAZY,
                         ids=[case[0] for case in LAZY])
def test_errors_wait_for_a_row(db, template, params):
    assert len(db.execute(template.format(t="empty"), params).rows) <= 1
    sql = template.format(t="one")
    with pytest.raises(ProgrammingError) as expected:
        _reference(db, sql, params)
    with pytest.raises(ProgrammingError) as raised:
        db.execute(sql, params)
    assert str(raised.value) == str(expected.value)


def test_unknown_left_join_key_never_matches(db):
    # The seed read the left key with ``dict.get``: a column no source
    # has is NULL to an equi-join, not an error.
    for kind in ("JOIN", "LEFT JOIN"):
        sql = (f"SELECT d.deal_id, c.nm FROM deals d {kind} contacts c "
               "ON c.deal_id = d.nope")
        assert db.execute(sql).rows == _reference(db, sql, ()).rows


def test_empty_global_group_knows_no_column(db):
    # The one group of an aggregate over no rows has no first row to
    # read ``k`` from; both executors say so, in the same words.
    sql = "SELECT k, count(*) FROM empty"
    with pytest.raises(ProgrammingError) as expected:
        _reference(db, sql, ())
    with pytest.raises(ProgrammingError) as raised:
        db.execute(sql, ())
    assert str(raised.value) == str(expected.value)
    assert db.execute("SELECT count(*), max(k) FROM empty").rows == [(0, None)]


# -- concurrency -------------------------------------------------------------------


def test_one_plan_serves_concurrent_executions(db):
    # Parameters are bound per execution into closures the execution
    # owns; the plan itself keeps nothing between calls.
    plan = SelectPlan(db, parse(
        "SELECT d.deal_id, count(c.cid) n FROM deals d "
        "LEFT JOIN contacts c ON c.deal_id = d.deal_id "
        "WHERE d.industry IN (?, ?) AND LOWER(d.lead) LIKE ? "
        "GROUP BY d.deal_id HAVING count(*) >= ? ORDER BY d.deal_id"
    ))
    bindings = [
        ("bank", "auto", "%a%", 1),
        ("retail", None, "%", 0),
        ("bank", "bank", "jane", 1),
        ("nope", "auto", "s_m", 2),
    ]
    expected = [plan.execute(params).rows for params in bindings]
    assert len({tuple(rows) for rows in expected}) == len(bindings)
    start = threading.Barrier(len(bindings))
    wrong = []

    def work(params, rows):
        start.wait()
        for _ in range(200):
            if plan.execute(params).rows != rows:
                wrong.append(params)

    threads = [
        threading.Thread(target=work, args=pair)
        for pair in zip(bindings, expected)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not wrong
