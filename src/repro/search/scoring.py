"""Relevance scoring: Okapi BM25, the keyword baseline's one scorer.

The engine scores every field separately and sums the contributions
with the field boosts, so a scorer always answers for one (term,
field).  It has two entry points:

* :meth:`score_postings` — the bulk API over a compiled posting array
  (parallel ``tfs`` / ``lengths`` lists from
  :class:`~repro.search.index_reader.TermPostings`): idf and the
  length-normalization constants are computed **once per (term,
  field)**, so each hit costs one multiply-add
  (``mult * tf / (tf + base + scale * length)``);
* :meth:`upper_bound` — the largest score any document could attain
  for the term, which MaxScore pruning compares against the running
  top-k threshold.

The reference interpreter in ``tests/reference/search.py`` restates
the same float expression one document at a time, so the engine's
pruned rankings can be checked for bit-identical scores.

idf depends only on (corpus size, document frequency); the scorer
memoizes it per (field, term) validated against those two numbers, so
repeated queries skip the ``math.log`` without any explicit
invalidation hook.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from repro.search.index_reader import IndexReader

__all__ = ["Scorer", "Bm25Scorer"]

# Idf caches are per-scorer-instance and keyed by (field, term); entries
# self-validate against (N, df).  The cap only guards pathological
# vocabularies — normal query mixes stay far below it.
_IDF_CACHE_MAX = 65536


class Scorer(Protocol):
    """Scoring interface: the bulk and upper-bound entry points the
    engine calls."""

    def score_postings(
        self,
        index: IndexReader,
        term: str,
        field: str,
        tfs: Sequence[int],
        lengths: Sequence[int],
        df: int,
    ) -> List[float]:
        """Bulk contributions for one term's posting array.

        ``tfs`` and ``lengths`` are parallel; ``df`` is the term's full
        in-field document frequency (callers may pass a *filtered*
        slice of the postings, so df cannot be inferred from
        ``len(tfs)``).
        """
        ...

    def upper_bound(
        self,
        index: IndexReader,
        term: str,
        field: str,
        df: int,
        max_tf: Optional[int] = None,
    ) -> float:
        """Largest score any document could attain for ``term``.

        Must be a true upper bound (over-estimates cost pruning
        opportunity, under-estimates would corrupt rankings).
        ``max_tf`` tightens the bound when known.
        """
        ...


class _IdfCache:
    """(field, term) -> idf, self-validated against (N, df).

    idf is fully determined by the corpus size and the document
    frequency, so a cached value is reused exactly when both match —
    no epoch plumbing, and a scorer instance shared across indexes can
    never serve a wrong value.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: Dict[
            Tuple[str, str], Tuple[int, int, float]
        ] = {}

    def get(
        self, field: str, term: str, total: int, df: int
    ) -> Optional[float]:
        entry = self._entries.get((field, term))
        if entry is not None and entry[0] == total and entry[1] == df:
            return entry[2]
        return None

    def put(
        self,
        field: str,
        term: str,
        total: int,
        df: int,
        idf: float,
    ) -> None:
        if len(self._entries) >= _IDF_CACHE_MAX:
            self._entries.clear()
        self._entries[(field, term)] = (total, df, idf)


class Bm25Scorer:
    """Okapi BM25 with the conventional defaults k1=1.2, b=0.75.

    IDF uses the +1 smoothing from Robertson/Sparck-Jones so terms
    present in most documents still contribute non-negatively.
    """

    def __init__(self, k1: float = 1.2, b: float = 0.75) -> None:
        if k1 < 0 or not 0 <= b <= 1:
            raise ValueError("require k1 >= 0 and 0 <= b <= 1")
        self.k1 = k1
        self.b = b
        self._idf_cache = _IdfCache()

    def _idf(
        self, index: IndexReader, term: str, field: str, df: int
    ) -> float:
        total = len(index)
        cached = self._idf_cache.get(field, term, total, df)
        if cached is not None:
            return cached
        idf = math.log(1.0 + (total - df + 0.5) / (df + 0.5))
        self._idf_cache.put(field, term, total, df, idf)
        return idf

    def score_postings(
        self,
        index: IndexReader,
        term: str,
        field: str,
        tfs: Sequence[int],
        lengths: Sequence[int],
        df: int,
    ) -> List[float]:
        if df <= 0 or not tfs:
            return []
        average = index.average_length(field)
        if average == 0:
            return [0.0] * len(tfs)
        idf = self._idf(index, term, field, df)
        mult = idf * (self.k1 + 1.0)
        base = self.k1 * (1.0 - self.b)
        scale = self.k1 * self.b / average
        return [
            mult * tf / (tf + base + scale * length)
            for tf, length in zip(tfs, lengths)
        ]

    def upper_bound(
        self,
        index: IndexReader,
        term: str,
        field: str,
        df: int,
        max_tf: Optional[int] = None,
    ) -> float:
        if df <= 0:
            return 0.0
        idf = self._idf(index, term, field, df)
        mult = idf * (self.k1 + 1.0)
        if max_tf:
            base = self.k1 * (1.0 - self.b)
            if base > 0:
                # score <= mult*tf/(tf+base) which increases in tf.
                return mult * max_tf / (max_tf + base)
        return mult
