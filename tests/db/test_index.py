"""Unit and property tests for hash and sorted indexes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db import HashIndex, SortedIndex
from repro.errors import IntegrityError


class TestHashIndex:
    def test_lookup_after_insert(self):
        index = HashIndex("i", ("a",))
        index.insert(("x",), 1)
        index.insert(("x",), 2)
        assert index.lookup(("x",)) == {1, 2}
        assert index.lookup(("y",)) == set()

    def test_delete(self):
        index = HashIndex("i", ("a",))
        index.insert(("x",), 1)
        index.delete(("x",), 1)
        assert index.lookup(("x",)) == set()
        assert len(index) == 0

    def test_delete_missing_raises(self):
        index = HashIndex("i", ("a",))
        with pytest.raises(KeyError):
            index.delete(("x",), 1)

    def test_unique_violation(self):
        index = HashIndex("i", ("a",), unique=True)
        index.insert(("x",), 1)
        with pytest.raises(IntegrityError):
            index.insert(("x",), 2)

    def test_unique_allows_nulls(self):
        index = HashIndex("i", ("a",), unique=True)
        index.insert((None,), 1)
        index.insert((None,), 2)  # SQL: NULLs don't collide
        assert index.lookup((None,)) == {1, 2}

    def test_would_violate_with_ignore(self):
        index = HashIndex("i", ("a",), unique=True)
        index.insert(("x",), 1)
        assert index.would_violate(("x",))
        assert not index.would_violate(("x",), ignore_rowid=1)
        assert not index.would_violate(("y",))

    def test_needs_columns(self):
        with pytest.raises(ValueError):
            HashIndex("i", (), unique=False)

    def test_distinct_keys(self):
        index = HashIndex("i", ("a",))
        index.insert(("x",), 1)
        index.insert(("x",), 2)
        index.insert(("y",), 3)
        assert index.distinct_keys == 2


class TestSortedIndex:
    def make(self, values):
        index = SortedIndex("i", ("a",))
        for rowid, value in enumerate(values, start=1):
            index.insert((value,), rowid)
        return index

    def test_range_inclusive(self):
        index = self.make([10, 20, 30, 40])
        assert list(index.range((20,), (30,))) == [2, 3]

    def test_range_exclusive(self):
        index = self.make([10, 20, 30, 40])
        assert list(index.range((20,), (30,), False, False)) == []
        assert list(index.range((10,), (40,), False, False)) == [2, 3]

    def test_open_ended_ranges(self):
        index = self.make([10, 20, 30])
        assert list(index.range(None, (20,))) == [1, 2]
        assert list(index.range((20,), None)) == [2, 3]
        assert list(index.range(None, None)) == [1, 2, 3]

    def test_nulls_excluded_from_range(self):
        index = SortedIndex("i", ("a",))
        index.insert((None,), 1)
        index.insert((5,), 2)
        assert list(index.range(None, None)) == [2]
        assert index.lookup((None,)) == {1}

    def test_ordered_rowids(self):
        # An open range walks every row in key order.
        index = self.make([30, 10, 20])
        assert list(index.range(None, None)) == [2, 3, 1]

    def test_delete_keeps_order(self):
        index = self.make([10, 20, 30])
        index.delete((20,), 2)
        assert list(index.range(None, None)) == [1, 3]

    @given(st.lists(st.integers(-50, 50), max_size=60))
    def test_range_matches_bruteforce(self, values):
        index = SortedIndex("i", ("a",))
        for rowid, value in enumerate(values):
            index.insert((value,), rowid)
        low, high = -10, 10
        expected = sorted(
            rowid for rowid, v in enumerate(values) if low <= v <= high
        )
        assert sorted(index.range((low,), (high,))) == expected

    @given(st.lists(st.tuples(st.integers(0, 20), st.booleans()), max_size=50))
    def test_insert_delete_consistency(self, operations):
        """Interleaved inserts/deletes never corrupt the sorted view."""
        index = SortedIndex("i", ("a",))
        live = {}
        next_rowid = 0
        for value, is_insert in operations:
            if is_insert or value not in live:
                index.insert((value,), next_rowid)
                live.setdefault(value, set()).add(next_rowid)
                next_rowid += 1
            else:
                rowid = live[value].pop()
                if not live[value]:
                    del live[value]
                index.delete((value,), rowid)
        expected = sorted(
            rowid for rowids in live.values() for rowid in rowids
        )
        assert sorted(index.range(None, None)) == expected
        assert len(index) == len(expected)
