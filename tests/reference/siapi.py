"""The grouped-search oracle: group built hits, then trim.

This is the body of ``SiapiService.search_grouped`` from before it
grouped on ``(doc_id, score)`` pairs: every matching document arrives
as a finished hit (``tests/reference/search.py``'s ``exhaustive_hits``:
decoded, snippeted), the activity is read off the decoded document, scores
are normalized by the best in the result set and averaged per
activity, and only then are the per-activity and activity limits
applied — so most of what was built is dropped again.  That waste is
the point: nothing here is chosen before it is materialised, which is
what makes it the statement of what the production path must return
(``tests/search/test_grouped_equivalence.py``).
"""

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro.search.document import SearchHit
from repro.search.siapi import ActivityHits, SiapiQuery
from tests.reference.search import exhaustive_hits

__all__ = ["grouped_by_materialising", "group_hits", "scope_predicate"]


def grouped_by_materialising(
    engine,
    query: SiapiQuery,
    scope: Optional[Set[str]] = None,
    per_activity_limit: Optional[int] = None,
    activity_limit: Optional[int] = None,
    activity_key: str = "deal_id",
) -> List[ActivityHits]:
    """What ``SiapiService(engine, activity_key).search_grouped`` must
    answer.  The scope is applied as a predicate over stored documents,
    after scoring."""
    doc_filter = None
    if scope is not None:
        doc_filter = scope_predicate(scope, activity_key)
    hits = exhaustive_hits(engine, query.to_query(), None, doc_filter)
    return group_hits(hits, engine.index, per_activity_limit,
                      activity_limit, activity_key)


def scope_predicate(scope, activity_key: str = "deal_id"):
    """An activity scope as a predicate over a stored document: its
    activity is one of ``scope``.  A document without the key is in no
    scope."""
    def in_scope(document) -> bool:
        if activity_key not in document.metadata:
            return False
        try:
            return document.metadata[activity_key] in scope
        except TypeError:  # an unhashable value is in no scope
            return False

    return in_scope


def group_hits(
    hits: List[SearchHit],
    reader,
    per_activity_limit: Optional[int] = None,
    activity_limit: Optional[int] = None,
    activity_key: str = "deal_id",
) -> List[ActivityHits]:
    """Built hits, best first, into ranked activities; each hit's
    activity is read off its document in ``reader``."""
    if not hits:
        return []
    best = max(hit.score for hit in hits) or 1.0
    grouped: Dict[str, List[Tuple[float, SearchHit]]] = {}
    for hit in hits:
        activity = reader.document(hit.doc_id).metadata.get(activity_key)
        if activity is None:
            continue
        grouped.setdefault(activity, []).append((hit.score / best, hit))
    results = []
    for activity_id, scored in grouped.items():
        scored.sort(key=lambda pair: (-pair[0], pair[1].doc_id))
        trimmed = scored[:per_activity_limit] if per_activity_limit else scored
        results.append(
            ActivityHits(
                activity_id=activity_id,
                score=sum(s for s, _ in scored) / len(scored),
                hits=[hit for _, hit in trimmed],
            )
        )
    if activity_limit is not None and activity_limit < len(results):
        return heapq.nsmallest(
            activity_limit,
            results,
            key=lambda a: (-a.score, a.activity_id),
        )
    results.sort(key=lambda a: (-a.score, a.activity_id))
    return results
