"""Planner decisions: pushdown, join strategies, EXPLAIN, scan metrics."""

import pytest

from repro import obs
from repro.db import Database


@pytest.fixture
def registry():
    with obs.use_registry() as fresh:
        yield fresh


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE deals (deal_id TEXT, industry TEXT, "
        "PRIMARY KEY (deal_id))"
    )
    database.execute(
        "CREATE TABLE contacts (cid INTEGER, deal_id TEXT, nm TEXT, "
        "PRIMARY KEY (cid), "
        "FOREIGN KEY (deal_id) REFERENCES deals (deal_id))"
    )
    database.execute("CREATE INDEX ix_contacts_deal ON contacts (deal_id)")
    for i in range(4):
        database.execute(
            "INSERT INTO deals VALUES (?, ?)",
            [f"d{i}", "bank" if i % 2 else "auto"],
        )
        # 8 contacts per deal so the right side is >= 4x the probe side
        # and the index nested-loop join threshold is met.
        for j in range(8):
            database.execute(
                "INSERT INTO contacts VALUES (?, ?, ?)",
                [i * 10 + j, f"d{i}", f"p{i}.{j}"],
            )
    return database


class TestJoinStrategies:
    def test_index_nested_loop_join_when_right_indexed(self, db):
        result = db.execute(
            "SELECT c.nm FROM deals d "
            "JOIN contacts c ON c.deal_id = d.deal_id "
            "WHERE d.deal_id = 'd1'"
        )
        assert any("index join c via ix_contacts_deal" in line
                   for line in result.plan)
        assert len(result.rows) == 8

    def test_hash_join_build_side_selection(self, db):
        # No usable right index (join on nm has none) and the left side
        # is smaller than the right: build on the left.
        result = db.execute(
            "SELECT d.deal_id, c.nm FROM deals d "
            "JOIN contacts c ON c.nm = d.industry"
        )
        assert any("build=left" in line for line in result.plan)

    def test_index_join_skipped_when_left_too_large(self, db):
        # Probing contacts (32 rows) into deals (4 rows) via the pk
        # would do 32 point lookups against a 4-row table; the planner
        # falls back to a hash join.
        result = db.execute(
            "SELECT d.industry FROM contacts c "
            "JOIN deals d ON d.deal_id = c.deal_id"
        )
        assert any("hash join d" in line for line in result.plan)
        assert len(result.rows) == 32

    def test_left_join_keeps_unmatched_rows(self, db):
        db.execute("INSERT INTO deals VALUES ('d9', 'void')")
        result = db.execute(
            "SELECT d.deal_id, c.nm FROM deals d "
            "LEFT JOIN contacts c ON c.deal_id = d.deal_id "
            "WHERE d.deal_id = 'd9'"
        )
        assert result.rows == [("d9", None)]


class TestPushdown:
    def test_base_predicate_pushed_into_scan(self, db):
        result = db.execute(
            "SELECT c.nm FROM deals d "
            "JOIN contacts c ON c.deal_id = d.deal_id "
            "WHERE d.industry = 'bank' AND c.nm LIKE 'p1%'"
        )
        assert any("pushdown" in line for line in result.plan)
        assert sorted(result.column("nm")) == [f"p1.{j}" for j in range(8)]

    def test_left_join_never_pushes_right_side_predicate(self, db):
        db.execute("INSERT INTO deals VALUES ('d9', 'void')")
        result = db.execute(
            "SELECT d.deal_id, c.nm FROM deals d "
            "LEFT JOIN contacts c ON c.deal_id = d.deal_id "
            "WHERE d.deal_id = 'd9' AND c.nm IS NULL"
        )
        # Filtering c before a LEFT JOIN would change which rows get
        # null-extended; the engine must keep the unmatched row.
        assert result.rows == [("d9", None)]

    def test_runtime_null_probe_yields_empty_scan(self, db):
        result = db.execute(
            "SELECT deal_id FROM deals WHERE deal_id = ?", [None]
        )
        assert result.rows == []
        assert any("empty scan" in line for line in result.plan)


class TestInListAccess:
    def test_in_list_probes_the_index(self, db, registry):
        result = db.execute(
            "SELECT nm FROM contacts "
            "WHERE deal_id IN ('d1', ?, NULL, 'd1', ?)",
            ["d3", None],
        )
        assert result.plan[0] == (
            "index lookup ix_contacts_deal(deal_id in 2 value(s))"
        )
        # Ascending row ids: the rows a full scan would give, in its order.
        assert result.column("nm") == [
            f"p{i}.{j}" for i in (1, 3) for j in range(8)
        ]
        assert registry.counter("db.rows_scanned").value == 16

    def test_in_list_of_nulls_reads_nothing(self, db, registry):
        result = db.execute(
            "SELECT nm FROM contacts WHERE deal_id IN (NULL, ?)", [None]
        )
        assert result.rows == []
        assert "in 0 value(s)" in result.plan[0]
        assert registry.counter("db.rows_scanned").value == 0

    def test_equality_and_range_come_first(self, db):
        # An equality probe is narrower; a range delivers key order,
        # which the IN probes must not take away.
        eq = db.execute(
            "SELECT nm FROM contacts "
            "WHERE deal_id IN ('d1', 'd2') AND cid = 11"
        )
        assert eq.plan[0].startswith("index lookup pk_contacts(cid=11")
        ranged = db.execute(
            "SELECT nm FROM contacts "
            "WHERE deal_id IN ('d1', 'd2') AND cid >= 27"
        )
        assert ranged.plan[0].startswith("index range pk_contacts")
        assert ranged.rows == [("p2.7",)]

    @pytest.mark.parametrize("where", [
        "deal_id NOT IN ('d1', 'd2')",
        "deal_id IN ('d1', nm)",
        "nm IN ('p1.1', 'p2.2')",
        "deal_id IN ('d1') OR cid = 1",
    ])
    def test_what_still_scans(self, db, where):
        result = db.execute(f"SELECT nm FROM contacts WHERE {where}")
        assert result.plan[0] == "full scan contacts"

    def test_delete_locates_rows_through_in_list(self, db):
        result = db.execute("DELETE FROM contacts WHERE cid IN (10, 11, 99)")
        assert result.scalar() == 2
        assert result.plan == [
            "index lookup pk_contacts(cid in 3 value(s))"
        ]


class TestScanMetrics:
    def test_join_rows_split_from_base_scan(self, db, registry):
        db.execute(
            "SELECT c.nm FROM deals d "
            "JOIN contacts c ON c.deal_id = d.deal_id"
        )
        snapshot = registry.snapshot()
        assert "db.rows_scanned" in snapshot
        assert "db.join.probe_rows" in snapshot
        # Join work is counted separately from base access regardless
        # of which join strategy the planner picked.
        assert registry.counter("db.join.probe_rows").value > 0
        assert registry.counter("db.join.build_rows").value > 0

    def test_index_join_probe_rows_accounting(self, db, registry):
        db.execute(
            "SELECT c.nm FROM deals d "
            "JOIN contacts c ON c.deal_id = d.deal_id "
            "WHERE d.deal_id = 'd1'"
        )
        # One probe row (the single deal), eight fetched contact rows.
        assert registry.counter("db.join.probe_rows").value == 1
        assert registry.counter("db.join.build_rows").value == 8

    def test_single_table_query_has_no_join_counters(self, db, registry):
        db.execute("SELECT deal_id FROM deals")
        snapshot = registry.snapshot()
        assert "db.join.build_rows" not in snapshot
        assert "db.join.probe_rows" not in snapshot


class TestExplain:
    def test_explain_select_reports_plan_without_rows(self, db):
        result = db.execute(
            "EXPLAIN SELECT c.nm FROM deals d "
            "JOIN contacts c ON c.deal_id = d.deal_id "
            "WHERE d.deal_id = ?",
            ["d1"],
        )
        assert result.columns == ["plan"]
        lines = result.column("plan")
        assert any("index join" in line for line in lines)

    def test_explain_sql_statement(self, db):
        result = db.execute(
            "EXPLAIN SELECT deal_id FROM deals WHERE deal_id = 'd1'"
        )
        assert result.columns == ["plan"]
        assert any("index lookup pk_deals" in line
                   for line in result.column("plan"))

    def test_explain_update_uses_index_without_mutating(self, db):
        result = db.execute(
            "EXPLAIN UPDATE contacts SET nm = 'x' WHERE deal_id = 'd1'"
        )
        lines = result.column("plan")
        assert any("ix_contacts_deal" in line for line in lines)
        assert any("candidate rows" in line for line in lines)
        assert "x" not in db.execute("SELECT nm FROM contacts").column("nm")

    def test_explain_delete_reports_access_path(self, db):
        result = db.execute("EXPLAIN DELETE FROM contacts WHERE cid = 11")
        assert any("pk_contacts" in line for line in result.column("plan"))
        assert db.execute(
            "SELECT count(*) FROM contacts"
        ).scalar() == 32


class TestMutationPlans:
    def test_update_rowcount_carries_plan(self, db):
        result = db.execute(
            "UPDATE contacts SET nm = 'renamed' WHERE deal_id = 'd2'"
        )
        assert result.scalar() == 8
        assert any("ix_contacts_deal" in line for line in result.plan)

    def test_delete_rowcount_carries_plan(self, db):
        result = db.execute("DELETE FROM contacts WHERE cid = 30")
        assert result.scalar() == 1
        assert any("index lookup pk_contacts" in line
                   for line in result.plan)

    def test_update_without_index_scans(self, db):
        result = db.execute(
            "UPDATE contacts SET nm = 'n' WHERE nm = 'p0.0'"
        )
        assert result.scalar() == 1
        assert any("full scan contacts" in line for line in result.plan)
