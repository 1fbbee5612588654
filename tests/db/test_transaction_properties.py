"""Stateful property test: rolled-back transactions are invisible.

Random interleavings of inserts (``Database.insert``), DELETEs and
replacements (a DELETE of the key, then an insert: how onboarding
changes a row) run inside a transaction that is then rolled back; the
database state (rows AND every index) must be byte-identical to the
pre-transaction snapshot.  This is the invariant the undo log exists
for.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.errors import DatabaseError


def build_db(rows):
    db = Database()
    db.execute("CREATE TABLE t (pk INTEGER, v INTEGER, s TEXT, "
               "PRIMARY KEY (pk))")
    db.execute("CREATE INDEX ix_v ON t (v)")
    for pk, v, s in rows:
        db.insert("t", {"pk": pk, "v": v, "s": s})
    return db


def snapshot(db):
    rows = sorted(db.execute("SELECT * FROM t").rows)
    table = db.table("t")
    index_state = {
        name: sorted(
            (key, tuple(sorted(index.lookup(key))))
            for key in {table.schema.key_of(row, index.columns)
                        for _, row in table.scan()}
        )
        for name, index in table.indexes.items()
    }
    return rows, index_state


initial_rows = st.lists(
    st.tuples(st.integers(0, 30), st.integers(-5, 5),
              st.sampled_from(["a", "b", "c"])),
    max_size=15,
    unique_by=lambda row: row[0],
)

operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "replace", "delete"]),
        st.integers(0, 30),
        st.integers(-5, 5),
    ),
    max_size=20,
)


def apply(db, op, pk, v):
    """Run one operation; a constraint violation must simply leave no
    partial effects behind."""
    try:
        if op != "insert":
            db.execute("DELETE FROM t WHERE pk = ?", [pk])
        if op != "delete":
            db.insert("t", {"pk": pk, "v": v, "s": "x"})
    except DatabaseError:
        pass


class TestRollbackInvariance:
    @given(initial_rows, operations)
    @settings(max_examples=50)
    def test_rollback_restores_rows_and_indexes(self, rows, ops):
        db = build_db(rows)
        before = snapshot(db)
        db.begin()
        for op, pk, v in ops:
            apply(db, op, pk, v)
        db.rollback()
        assert snapshot(db) == before

    @given(initial_rows, operations)
    @settings(max_examples=30)
    def test_commit_then_reexecute_matches_no_transaction(self, rows, ops):
        """Committed transactions behave exactly like plain statements."""
        def run(db, use_transaction):
            if use_transaction:
                db.begin()
            for op, pk, v in ops:
                apply(db, op, pk, v)
            if use_transaction:
                db.commit()
            return snapshot(db)

        assert run(build_db(rows), True) == run(build_db(rows), False)
