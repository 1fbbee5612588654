"""Facet counts over the organized information.

The EIL search editor (paper Figure 8) offers dropdown criteria —
Tower/Sub-tower, Sector/Industry, Out-Sourcing Consultant,
Geography/Country.  Those dropdowns need to show the values that exist
(and how many deals carry each), both globally and *within a result
set* so users can refine iteratively — the faceted-navigation pattern
the paper's related-work section notes enterprise vendors converging
on.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.organized import OrganizedInformation

__all__ = ["FacetService"]


class FacetService:
    """Computes deal counts per facet value."""

    def __init__(self, organized: OrganizedInformation) -> None:
        self.organized = organized

    def facets(
        self,
        deal_ids: Optional[Iterable[str]] = None,
    ) -> Dict[str, List[Tuple[str, int]]]:
        """All facets at once; optionally restricted to ``deal_ids``.

        Returns facet name -> [(value, deal count)] sorted by
        descending count, then value.
        """
        scope = set(deal_ids) if deal_ids is not None else None
        return {
            "tower": self._scope_facet(scope),
            "industry": self._deal_column_facet("industry", scope),
            "consultant": self._deal_column_facet("consultant", scope),
            "geography": self._deal_column_facet("geography", scope),
            "value_band": self._deal_column_facet("value_band", scope),
            "role": self._role_facet(scope),
        }

    # -- internals ----------------------------------------------------------

    def _deal_column_facet(
        self, column: str, scope: Optional[set]
    ) -> List[Tuple[str, int]]:
        rows = self.organized.db.execute(
            f"SELECT deal_id, {column} FROM deals"
        ).to_dicts()
        counts: Dict[str, int] = {}
        for row in rows:
            if scope is not None and row["deal_id"] not in scope:
                continue
            value = row[column]
            if not value:
                continue
            counts[str(value)] = counts.get(str(value), 0) + 1
        return _sorted_counts(counts)

    def _scope_facet(self, scope: Optional[set]) -> List[Tuple[str, int]]:
        rows = self.organized.db.execute(
            "SELECT deal_id, canonical FROM deal_scopes"
        ).to_dicts()
        counts: Dict[str, int] = {}
        seen = set()
        for row in rows:
            if scope is not None and row["deal_id"] not in scope:
                continue
            key = (row["deal_id"], row["canonical"])
            if key in seen:
                continue
            seen.add(key)
            counts[str(row["canonical"])] = (
                counts.get(str(row["canonical"]), 0) + 1
            )
        return _sorted_counts(counts)

    def _role_facet(self, scope: Optional[set]) -> List[Tuple[str, int]]:
        rows = self.organized.db.execute(
            "SELECT DISTINCT deal_id, role FROM contacts "
            "WHERE role IS NOT NULL"
        ).to_dicts()
        counts: Dict[str, int] = {}
        for row in rows:
            if scope is not None and row["deal_id"] not in scope:
                continue
            if not row["role"]:
                continue
            counts[str(row["role"])] = counts.get(str(row["role"]), 0) + 1
        return _sorted_counts(counts)


def _sorted_counts(counts: Dict[str, int]) -> List[Tuple[str, int]]:
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))
