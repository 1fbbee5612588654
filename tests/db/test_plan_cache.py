"""Prepared-statement/plan cache: hits, DDL invalidation, eviction."""

import pytest

from repro import obs
from repro.db import Database
from repro.db.database import _CacheEntry, _StatementCache


@pytest.fixture
def registry():
    with obs.use_registry() as fresh:
        yield fresh


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE deals (deal_id TEXT, industry TEXT, value REAL, "
        "PRIMARY KEY (deal_id))"
    )
    database.execute(
        "INSERT INTO deals VALUES ('d1', 'bank', 10.0), "
        "('d2', 'auto', 20.0), ('d3', 'bank', 30.0)"
    )
    return database


class TestCacheHits:
    def test_repeated_select_hits_cache(self, db, registry):
        sql = "SELECT deal_id FROM deals WHERE industry = ?"
        first = db.execute(sql, ["bank"])
        second = db.execute(sql, ["bank"])
        assert first.rows == second.rows == [("d1",), ("d3",)]
        assert registry.counter("db.stmt_cache.misses").value == 1
        assert registry.counter("db.stmt_cache.hits").value == 1

    def test_cached_plan_respects_new_params(self, db, registry):
        sql = "SELECT deal_id FROM deals WHERE industry = ? ORDER BY deal_id"
        assert db.execute(sql, ["bank"]).column("deal_id") == ["d1", "d3"]
        assert db.execute(sql, ["auto"]).column("deal_id") == ["d2"]
        assert registry.counter("db.stmt_cache.hits").value == 1

    def test_whitespace_variants_are_distinct_entries(self, db, registry):
        db.execute("SELECT deal_id FROM deals")
        db.execute("SELECT  deal_id  FROM deals")
        assert registry.counter("db.stmt_cache.misses").value == 2
        assert registry.counter("db.stmt_cache.hits").value == 0

    def test_non_select_statements_cache_too(self, db, registry):
        sql = "UPDATE deals SET value = ? WHERE deal_id = ?"
        db.execute(sql, [11.0, "d1"])
        db.execute(sql, [12.0, "d1"])
        assert registry.counter("db.stmt_cache.hits").value == 1
        assert db.execute(
            "SELECT value FROM deals WHERE deal_id = 'd1'"
        ).scalar() == 12.0

    def test_results_are_fresh_objects_per_execution(self, db):
        sql = "SELECT deal_id FROM deals ORDER BY deal_id"
        first = db.execute(sql)
        second = db.execute(sql)
        assert first.rows is not second.rows
        assert first.plan is not second.plan
        first.rows.append(("tampered",))
        assert db.execute(sql).rows == [("d1",), ("d2",), ("d3",)]


class TestInvalidation:
    def test_create_index_invalidates_cached_plan(self, db, registry):
        sql = "SELECT deal_id FROM deals WHERE industry = 'bank'"
        before = db.execute(sql)
        assert "full scan deals" in before.plan
        db.execute("CREATE INDEX ix_deals_industry ON deals (industry)")
        after = db.execute(sql)
        assert any("ix_deals_industry" in line for line in after.plan)
        assert before.rows == after.rows
        assert registry.counter("db.stmt_cache.invalidations").value >= 1

    def test_direct_table_create_index_bumps_epoch(self, db):
        # The intranet directory creates indexes on tables directly,
        # bypassing SQL DDL; cached plans must still re-plan.
        sql = "SELECT deal_id FROM deals WHERE industry = 'auto'"
        db.execute(sql)
        epoch = db._ddl_epoch
        db.table("deals").create_index("ix_direct", ("industry",))
        assert db._ddl_epoch > epoch
        assert any("ix_direct" in line for line in db.execute(sql).plan)

    def test_drop_table_invalidates(self, db):
        db.execute("SELECT deal_id FROM deals")
        epoch = db._ddl_epoch
        db.execute("CREATE TABLE aux (k INTEGER, PRIMARY KEY (k))")
        db.execute("DROP TABLE aux")
        assert db._ddl_epoch >= epoch + 2


class TestEviction:
    def test_lru_eviction_at_capacity(self, registry):
        cache = _StatementCache(2)

        def entry():
            return _CacheEntry(statement=None, plan=None, epoch=0)

        cache.store("a", entry())
        cache.store("b", entry())
        assert cache.lookup("a", 0) is not None  # a is fresher
        cache.store("c", entry())  # evicts b, the least recent
        assert len(cache) == 2
        assert cache.lookup("b", 0) is None
        assert cache.lookup("a", 0) is not None
        assert cache.lookup("c", 0) is not None
        assert registry.counter("db.stmt_cache.evictions").value == 1
        assert registry.counter("db.stmt_cache.hits").value == 3
        assert registry.counter("db.stmt_cache.misses").value == 1

    def test_an_entry_from_an_older_epoch_is_dropped(self, registry):
        cache = _StatementCache(2)
        cache.store("a", _CacheEntry(None, None, epoch=0))
        assert cache.lookup("a", 1) is None
        assert len(cache) == 0
        assert registry.counter("db.stmt_cache.invalidations").value == 1
