"""Unit and property tests for the hash index ``repro.db.Index``."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db import Index
from repro.errors import IntegrityError


class TestHashIndex:
    def test_lookup_after_insert(self):
        index = Index("i", ("a",))
        index.insert(("x",), 1)
        index.insert(("x",), 2)
        assert index.lookup(("x",)) == {1, 2}
        assert index.lookup(("y",)) == set()

    def test_delete(self):
        index = Index("i", ("a",))
        index.insert(("x",), 1)
        index.delete(("x",), 1)
        assert index.lookup(("x",)) == set()
        assert len(index) == 0

    def test_delete_missing_raises(self):
        index = Index("i", ("a",))
        with pytest.raises(KeyError):
            index.delete(("x",), 1)

    def test_unique_violation(self):
        index = Index("i", ("a",), unique=True)
        index.insert(("x",), 1)
        with pytest.raises(IntegrityError):
            index.insert(("x",), 2)

    def test_unique_allows_nulls(self):
        index = Index("i", ("a",), unique=True)
        index.insert((None,), 1)
        index.insert((None,), 2)  # SQL: NULLs don't collide
        assert index.lookup((None,)) == {1, 2}

    def test_would_violate(self):
        index = Index("i", ("a",), unique=True)
        index.insert(("x",), 1)
        assert index.would_violate(("x",))
        assert not index.would_violate(("y",))
        assert not index.would_violate((None,))
        assert not Index("j", ("a",)).would_violate(("x",))

    def test_needs_columns(self):
        with pytest.raises(ValueError):
            Index("i", (), unique=False)

    def test_distinct_keys(self):
        index = Index("i", ("a",))
        index.insert(("x",), 1)
        index.insert(("x",), 2)
        index.insert(("y",), 3)
        assert index.distinct_keys == 2

    @given(st.lists(st.tuples(st.integers(0, 20), st.booleans()), max_size=50))
    def test_insert_delete_consistency(self, operations):
        """Interleaved inserts/deletes leave every key's bucket exact."""
        index = Index("i", ("a",))
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
        for value in range(21):
            assert index.lookup((value,)) == live.get(value, set())
        assert index.distinct_keys == len(live)
        assert len(index) == sum(len(rowids) for rowids in live.values())
