"""Secondary indexes: hash (equality), sorted (range) and substring
access paths.

Indexes map a key tuple — the values of the indexed columns — to the set
of row ids holding that key.  The table keeps them in sync on every
insert/update/delete; the query planner consults them through
:meth:`HashIndex.lookup`, :meth:`SortedIndex.range` and
:meth:`Index.substring_rowids`.

The substring path serves a leading-wildcard ``LIKE``: a map from the
trigrams of each distinct lowered ASCII text key to the keys holding
them.  It is built on the first probe of the index, from its keys, and
from then on kept current only as a key appears or disappears.  Its
answer is a superset: a non-ASCII key is always a candidate, because
the regex that defines LIKE folds ``İ``, ``ı``, ``ſ`` and the Kelvin
sign onto ASCII letters, which ``str.lower`` does not.

NULL semantics follow SQL: rows with a NULL in any indexed column are
stored (so deletes stay symmetric) but unique enforcement skips them,
and range scans and substring probes never return them.
"""

from __future__ import annotations

import bisect
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.errors import IntegrityError, ProgrammingError

__all__ = ["Index", "HashIndex", "SortedIndex"]

Key = Tuple[Any, ...]


def _trigrams(text: str) -> Set[str]:
    """Every three-character window of ``text``, lowered."""
    text = text.lower()
    return {text[i:i + 3] for i in range(len(text) - 2)}


class _TrigramMap:
    """Lowered-ASCII trigram -> the text keys holding it, plus every
    non-ASCII text key.  Keys that are not text (NULL) are left out: no
    LIKE matches them."""

    __slots__ = ("buckets", "non_ascii")

    def __init__(self, keys: Iterable[Key]) -> None:
        self.buckets: Dict[str, Set[Key]] = {}
        self.non_ascii: Set[Key] = set()
        for key in keys:
            self.add(key)

    def add(self, key: Key) -> None:
        value = key[0]
        if not isinstance(value, str):
            return
        if not value.isascii():
            self.non_ascii.add(key)
            return
        for gram in _trigrams(value):
            self.buckets.setdefault(gram, set()).add(key)

    def remove(self, key: Key) -> None:
        value = key[0]
        if not isinstance(value, str):
            return
        if not value.isascii():
            self.non_ascii.discard(key)
            return
        for gram in _trigrams(value):
            bucket = self.buckets[gram]
            bucket.discard(key)
            if not bucket:
                del self.buckets[gram]

    def candidates(self, grams: Set[str]) -> Set[Key]:
        """Keys that may contain every one of ``grams`` (non-empty)."""
        buckets = sorted(
            (self.buckets.get(gram, ()) for gram in grams), key=len
        )
        found = set(buckets[0])
        for bucket in buckets[1:]:
            if not found:
                break
            found.intersection_update(bucket)
        return found | self.non_ascii


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
        # Built by the first substring probe; None until then.
        self._trigrams: Optional[_TrigramMap] = None

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
            if self._trigrams is not None:
                self._trigrams.add(key)
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
            if self._trigrams is not None:
                self._trigrams.remove(key)

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

    def substring_rowids(self, runs: Iterable[str]) -> List[int]:
        """Ascending row ids of every key of a single-column text index
        that may contain each of ``runs`` case-insensitively.

        ``runs`` are ASCII, each at least three characters long, and at
        least one is given.  The answer is a superset of the matching
        keys' rows (every non-ASCII key is in it); the caller re-applies
        its predicate.  The first call builds the trigram map.  Callers
        probe under the database's read lock, so a concurrent first
        probe can only build the same map: each builds its own and
        publishes it with one assignment."""
        trigrams = self._trigrams
        if trigrams is None:
            trigrams = _TrigramMap(self._entries)
            self._trigrams = trigrams
        grams: Set[str] = set()
        for run in runs:
            grams |= _trigrams(run)
        entries = self._entries
        return sorted(
            rowid
            for key in trigrams.candidates(grams)
            for rowid in entries[key]
        )

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
