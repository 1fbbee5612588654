"""Deeper executor tests: multi-joins, self-joins, aliases, edge cases."""

import pytest

from repro.db import Database
from repro.errors import ProgrammingError
from tests.db.rows import insert_rows


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE deals (deal_id TEXT, name TEXT, PRIMARY KEY (deal_id))"
    )
    database.execute(
        "CREATE TABLE contacts (cid INTEGER, deal_id TEXT, nm TEXT, "
        "role TEXT, PRIMARY KEY (cid), "
        "FOREIGN KEY (deal_id) REFERENCES deals (deal_id))"
    )
    database.execute(
        "CREATE TABLE scopes (sid INTEGER, deal_id TEXT, svc TEXT, "
        "PRIMARY KEY (sid), "
        "FOREIGN KEY (deal_id) REFERENCES deals (deal_id))"
    )
    insert_rows(database, "deals", [("d1", "A"), ("d2", "B"), ("d3", "C")])
    insert_rows(database, "contacts", [
        (1, "d1", "Sam", "CSE"), (2, "d1", "Jane", "TSA"),
        (3, "d2", "Sam", "CSE"), (4, "d3", "Wei", "DPE"),
    ])
    insert_rows(database, "scopes", [
        (1, "d1", "WAN"), (2, "d2", "WAN"), (3, "d2", "LAN"),
    ])
    return database


class TestMultiJoin:
    def test_three_way_join(self, db):
        result = db.execute(
            "SELECT d.name, c.nm, s.svc FROM deals d "
            "JOIN contacts c ON c.deal_id = d.deal_id "
            "JOIN scopes s ON s.deal_id = d.deal_id "
            "WHERE s.svc = 'WAN' ORDER BY d.name, c.nm"
        )
        assert result.rows == [
            ("A", "Jane", "WAN"), ("A", "Sam", "WAN"), ("B", "Sam", "WAN"),
        ]

    def test_self_join_colleagues(self, db):
        # Who worked on a deal with Sam? (the Meta-query 2 SQL shape)
        result = db.execute(
            "SELECT DISTINCT b.nm FROM contacts a "
            "JOIN contacts b ON b.deal_id = a.deal_id "
            "WHERE a.nm = 'Sam' AND b.nm != 'Sam' ORDER BY b.nm"
        )
        assert result.column("nm") == ["Jane"]

    def test_left_join_chain(self, db):
        result = db.execute(
            "SELECT d.deal_id, s.svc FROM deals d "
            "LEFT JOIN scopes s ON s.deal_id = d.deal_id "
            "ORDER BY d.deal_id, s.svc"
        )
        assert ("d3", None) in result.rows

    def test_join_with_non_equi_condition(self, db):
        # Forces the nested-loop path (no hash join possible).
        result = db.execute(
            "SELECT COUNT(*) FROM contacts a "
            "JOIN contacts b ON a.cid < b.cid"
        )
        assert result.scalar() == 6  # C(4,2)
        # And verify the planner chose nested loop.
        result = db.execute(
            "SELECT a.cid FROM contacts a JOIN contacts b ON a.cid < b.cid"
        )
        assert any("nested loop" in step for step in result.plan)

    def test_hash_join_detected_for_equi(self, db):
        result = db.execute(
            "SELECT d.name FROM deals d "
            "JOIN contacts c ON c.deal_id = d.deal_id"
        )
        assert any("hash join" in step for step in result.plan)


class TestProjectionAndGrouping:
    def test_expression_projection(self, db):
        result = db.execute("SELECT cid * 2 + 1 AS x FROM contacts "
                            "ORDER BY cid LIMIT 2")
        assert result.column("x") == [3, 5]

    def test_group_by_with_join(self, db):
        result = db.execute(
            "SELECT d.name, COUNT(c.cid) AS n FROM deals d "
            "LEFT JOIN contacts c ON c.deal_id = d.deal_id "
            "GROUP BY d.deal_id ORDER BY n DESC, d.name"
        )
        assert result.rows == [("A", 2), ("B", 1), ("C", 1)]

    def test_group_by_multiple_keys(self, db):
        result = db.execute(
            "SELECT deal_id, role, COUNT(*) FROM contacts "
            "GROUP BY deal_id, role ORDER BY deal_id, role"
        )
        assert len(result.rows) == 4

    def test_having_with_expression(self, db):
        result = db.execute(
            "SELECT deal_id FROM contacts GROUP BY deal_id "
            "HAVING COUNT(*) * 10 >= 20"
        )
        assert result.column("deal_id") == ["d1"]

    def test_aggregate_expression_arithmetic(self, db):
        result = db.execute(
            "SELECT MAX(cid) - MIN(cid) FROM contacts"
        )
        assert result.scalar() == 3

    def test_functions_in_where(self, db):
        result = db.execute(
            "SELECT nm FROM contacts WHERE LOWER(nm) = 'sam' "
            "AND deal_id = 'd1'"
        )
        assert result.column("nm") == ["Sam"]

    def test_distinct_with_order_and_limit(self, db):
        result = db.execute(
            "SELECT DISTINCT nm FROM contacts ORDER BY nm LIMIT 2"
        )
        assert result.column("nm") == ["Jane", "Sam"]


class TestErrors:
    def test_unknown_column_in_projection(self, db):
        with pytest.raises(ProgrammingError):
            db.execute("SELECT ghost FROM deals")

    def test_unknown_alias_star(self, db):
        with pytest.raises(ProgrammingError):
            db.execute("SELECT z.* FROM deals d")

    def test_ambiguous_unqualified_column(self, db):
        with pytest.raises(ProgrammingError, match="ambiguous"):
            db.execute(
                "SELECT deal_id FROM deals d "
                "JOIN contacts c ON c.deal_id = d.deal_id"
            )


class TestExecutorEdgeCases:
    """Result-shape edge cases the optimized paths must not disturb."""

    def test_grouped_order_by_aggregate_alias(self, db):
        result = db.execute(
            "SELECT deal_id, COUNT(*) n FROM contacts "
            "GROUP BY deal_id ORDER BY n DESC, deal_id"
        )
        assert result.rows == [("d1", 2), ("d2", 1), ("d3", 1)]

    def test_grouped_order_by_alias_with_limit(self, db):
        result = db.execute(
            "SELECT deal_id, COUNT(*) n FROM contacts "
            "GROUP BY deal_id ORDER BY n DESC, deal_id LIMIT 1"
        )
        assert result.rows == [("d1", 2)]

    def test_distinct_limit_offset_interplay(self, db):
        full = db.execute("SELECT DISTINCT role FROM contacts").column("role")
        paged = db.execute(
            "SELECT DISTINCT role FROM contacts LIMIT 2 OFFSET 1"
        ).column("role")
        assert paged == full[1:3]

    def test_null_join_keys_never_match(self, db):
        insert_rows(db, "contacts", [(9, None, "Ghost", "DPE")])
        try:
            result = db.execute(
                "SELECT c.nm FROM deals d "
                "JOIN contacts c ON c.deal_id = d.deal_id"
            )
            assert "Ghost" not in result.column("nm")
            left = db.execute(
                "SELECT c.nm, d.name FROM contacts c "
                "LEFT JOIN deals d ON d.deal_id = c.deal_id "
                "WHERE c.cid = 9"
            )
            # NULL key keeps the left row but never finds a partner.
            assert left.rows == [("Ghost", None)]
        finally:
            db.execute("DELETE FROM contacts WHERE cid = 9")

    def test_left_join_predicate_pushdown_soundness(self, db):
        # d3 has contacts but none named Sam; a naive pre-join filter on
        # contacts would null-extend d3 and wrongly surface it here.
        result = db.execute(
            "SELECT d.deal_id FROM deals d "
            "LEFT JOIN contacts c ON c.deal_id = d.deal_id "
            "WHERE c.nm = 'Sam' ORDER BY d.deal_id"
        )
        assert result.column("deal_id") == ["d1", "d2"]
