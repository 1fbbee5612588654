"""Secondary indexes: hash (equality) and sorted (range) access paths.

Indexes map a key tuple — the values of the indexed columns — to the set
of row ids holding that key.  The table keeps them in sync on every
insert/update/delete; the query planner consults them through
:meth:`HashIndex.lookup` and :meth:`SortedIndex.range`.

NULL semantics follow SQL: rows with a NULL in any indexed column are
stored (so deletes stay symmetric) but unique enforcement skips them,
and range scans never return them.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import IntegrityError, ProgrammingError

__all__ = ["Index", "HashIndex", "SortedIndex"]

Key = Tuple[Any, ...]


class Index:
    """Base class: key extraction bookkeeping shared by both kinds.

    Args:
        name: Index name (unique within its table).
        columns: Indexed column names, in key order.
        unique: Enforce uniqueness of non-NULL keys.
    """

    def __init__(self, name: str, columns: Tuple[str, ...], unique: bool) -> None:
        if not columns:
            raise ValueError("index needs at least one column")
        self.name = name
        self.columns = columns
        self.unique = unique
        self._entries: Dict[Key, Set[int]] = {}

    # -- maintenance ---------------------------------------------------

    def insert(self, key: Key, rowid: int) -> None:
        """Register ``rowid`` under ``key``; raises on unique violation."""
        if self.unique and None not in key:
            existing = self._entries.get(key)
            if existing:
                raise IntegrityError(
                    f"unique index {self.name!r} violated by key {key!r}"
                )
        bucket = self._entries.get(key)
        if bucket is None:
            bucket = set()
            self._entries[key] = bucket
            self._key_added(key)
        bucket.add(rowid)

    def delete(self, key: Key, rowid: int) -> None:
        """Remove ``rowid`` from ``key``'s bucket."""
        bucket = self._entries.get(key)
        if bucket is None or rowid not in bucket:
            raise KeyError(f"rowid {rowid} not under key {key!r}")
        bucket.discard(rowid)
        if not bucket:
            del self._entries[key]
            self._key_removed(key)

    def would_violate(self, key: Key, ignore_rowid: Optional[int] = None) -> bool:
        """True if inserting ``key`` would break a unique constraint."""
        if not self.unique or None in key:
            return False
        bucket = self._entries.get(key)
        if not bucket:
            return False
        return bucket != ({ignore_rowid} if ignore_rowid is not None else set())

    # -- access path ----------------------------------------------------

    def lookup(self, key: Key) -> Set[int]:
        """Row ids whose indexed columns equal ``key`` exactly."""
        return set(self._entries.get(key, ()))

    def lookup_sorted(self, key: Key) -> List[int]:
        """Like :meth:`lookup` but ascending — the deterministic probe
        order the executor's index joins and point lookups need."""
        return sorted(self._entries.get(key, ()))

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._entries.values())

    @property
    def distinct_keys(self) -> int:
        """Number of distinct key values (used for selectivity estimates)."""
        return len(self._entries)

    # -- subclass hooks ---------------------------------------------------

    def _key_added(self, key: Key) -> None:
        """Called when a key appears for the first time."""

    def _key_removed(self, key: Key) -> None:
        """Called when a key's last row is removed."""


class HashIndex(Index):
    """Pure hash index: O(1) equality lookup, no ordered access."""

    def __init__(self, name: str, columns: Tuple[str, ...], unique: bool = False):
        super().__init__(name, columns, unique)


class SortedIndex(Index):
    """Index that additionally keeps keys in sorted order for range scans.

    Keys containing NULL are excluded from the sorted sequence (SQL range
    predicates are never true for NULL) but still participate in equality
    lookup and unique checks.
    """

    def __init__(self, name: str, columns: Tuple[str, ...], unique: bool = False):
        super().__init__(name, columns, unique)
        self._sorted_keys: List[Key] = []

    def _key_added(self, key: Key) -> None:
        if None in key:
            return
        bisect.insort(self._sorted_keys, key)

    def _key_removed(self, key: Key) -> None:
        if None in key:
            return
        position = bisect.bisect_left(self._sorted_keys, key)
        if (
            position < len(self._sorted_keys)
            and self._sorted_keys[position] == key
        ):
            del self._sorted_keys[position]

    def range(
        self,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[int]:
        """Yield row ids with low <= key <= high, in key order.

        Either bound may be None for an open interval; inclusivity is
        controlled per bound so the planner can serve <, <=, >, >=.  A
        bound the stored keys cannot be ordered against raises
        :class:`~repro.errors.ProgrammingError`, as the same comparison
        does on an unindexed column.
        """
        try:
            if low is None:
                start = 0
            elif include_low:
                start = bisect.bisect_left(self._sorted_keys, low)
            else:
                start = bisect.bisect_right(self._sorted_keys, low)
            if high is None:
                stop = len(self._sorted_keys)
            elif include_high:
                stop = bisect.bisect_right(self._sorted_keys, high)
            else:
                stop = bisect.bisect_left(self._sorted_keys, high)
        except TypeError as exc:
            raise ProgrammingError(
                f"cannot compare the keys of index {self.name!r} with "
                f"the range {low!r}..{high!r}: {exc}"
            ) from exc
        for position in range(start, stop):
            # Sort row ids for deterministic iteration order.
            yield from sorted(self._entries[self._sorted_keys[position]])
