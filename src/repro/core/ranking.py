"""Result ranking: combining synopsis and SIAPI relevance (Fig. 1, step 18).

Per the paper: *"we normalize the document relevance scores from
OmniFind (e.g., compute an average score) and then combine the
normalized score with the synopsis relevance score."*  The SIAPI side
arrives already normalized per activity (see
:meth:`repro.search.siapi.SiapiService.search_grouped`); this module
performs the weighted combination and deterministic ordering.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.query_analyzer import SynopsisMatch
from repro.search.document import SearchHit
from repro.search.siapi import ActivityHits

__all__ = ["RankedActivity", "RankCombiner"]


@dataclass
class RankedActivity:
    """One business activity in the final ranking.

    Attributes:
        deal_id: The activity.
        score: Combined relevance.
        synopsis_score: Contribution from the structured context (0 when
            the activity came only from the keyword side).
        siapi_score: Normalized keyword relevance (0 when no text query
            or no hits in this activity).
        reasons: Synopsis match explanations (the match's own
            sequence, not a copy).
        hits: The activity's document hits (pre-access-control; the
            SIAPI group's own sequence, not a copy).
    """

    deal_id: str
    score: float
    synopsis_score: float = 0.0
    siapi_score: float = 0.0
    reasons: Sequence[str] = ()
    hits: Sequence[SearchHit] = ()


class RankCombiner:
    """Weighted combination of the two relevance sources.

    Args:
        synopsis_weight: Weight of the synopsis relevance; the SIAPI
            side gets ``1 - synopsis_weight``.  When only one source
            contributed (concept-only or keyword-only queries), that
            source's score is used directly instead of being scaled —
            scaling would just shrink every score by a constant.
    """

    def __init__(self, synopsis_weight: float = 0.5) -> None:
        if not 0.0 <= synopsis_weight <= 1.0:
            raise ValueError("synopsis_weight must be in [0, 1]")
        self.synopsis_weight = synopsis_weight

    def combine(
        self,
        synopsis: Dict[str, SynopsisMatch],
        siapi: Optional[List[ActivityHits]],
        limit: Optional[int] = None,
    ) -> List[RankedActivity]:
        """Merge both sources into a deterministic ranking.

        ``limit`` keeps only the best activities, selected with a
        bounded heap instead of sorting the full merge — identical to
        the head of the unlimited ranking (ties break by deal id).
        """
        siapi_by_deal: Dict[str, ActivityHits] = {
            group.activity_id: group for group in (siapi or [])
        }
        deal_ids = set(synopsis) | set(siapi_by_deal)
        ranked: List[RankedActivity] = []
        for deal_id in deal_ids:
            synopsis_match = synopsis.get(deal_id)
            siapi_group = siapi_by_deal.get(deal_id)
            synopsis_score = synopsis_match.score if synopsis_match else 0.0
            siapi_score = siapi_group.score if siapi_group else 0.0
            if synopsis_match and siapi_group:
                combined = (
                    self.synopsis_weight * synopsis_score
                    + (1.0 - self.synopsis_weight) * siapi_score
                )
            elif synopsis_match:
                combined = synopsis_score
            else:
                combined = siapi_score
            ranked.append(
                RankedActivity(
                    deal_id=deal_id,
                    score=combined,
                    synopsis_score=synopsis_score,
                    siapi_score=siapi_score,
                    reasons=synopsis_match.reasons if synopsis_match else (),
                    hits=siapi_group.hits if siapi_group else (),
                )
            )
        if limit is not None and limit < len(ranked):
            return heapq.nsmallest(
                limit, ranked, key=lambda a: (-a.score, a.deal_id)
            )
        ranked.sort(key=lambda a: (-a.score, a.deal_id))
        return ranked
