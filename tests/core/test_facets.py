"""Unit tests for facet counts (the Figure 8 form dropdowns)."""

import pytest

from repro.annotators import ContactRecord, ScopeEntry
from repro.core import FacetService, OrganizedInformation


@pytest.fixture
def facets():
    info = OrganizedInformation()
    for deal_id, industry, consultant in (
        ("d1", "Insurance", "TPI"),
        ("d2", "Insurance", ""),
        ("d3", "Banking", "TPI"),
    ):
        info.store_deal_context(deal_id, {
            "Deal Name": deal_id.upper(),
            "Industry": industry,
            "Out Sourcing Consultant": consultant,
            "Total Contract Value": "over 100M",
        })
    info.store_scopes("d1", [
        ScopeEntry("WAN", "Network Services", 9.0, 3),
        ScopeEntry("LAN", "Network Services", 5.0, 2),
    ])
    info.store_scopes("d2", [ScopeEntry("WAN", "Network Services", 7.0, 2)])
    info.store_contacts("d1", [
        ContactRecord("d1", "A B", role="Client Solution Executive",
                      category="core deal team"),
        ContactRecord("d1", "C D", role="Pricer",
                      category="core deal team"),
    ])
    info.store_contacts("d3", [
        ContactRecord("d3", "E F", role="Client Solution Executive",
                      category="core deal team"),
    ])
    return FacetService(info)


class TestFacets:
    def test_industry_counts(self, facets):
        assert facets.facets()["industry"] == [
            ("Insurance", 2), ("Banking", 1)
        ]

    def test_empty_values_excluded(self, facets):
        consultant = dict(facets.facets()["consultant"])
        assert consultant == {"TPI": 2}

    def test_tower_counts_deals_not_mentions(self, facets):
        tower = dict(facets.facets()["tower"])
        assert tower["WAN"] == 2
        assert tower["LAN"] == 1

    def test_role_counts_distinct_deals(self, facets):
        role = dict(facets.facets()["role"])
        assert role["Client Solution Executive"] == 2
        assert role["Pricer"] == 1

    def test_scoped_to_result_set(self, facets):
        scoped = facets.facets(deal_ids=["d1"])
        assert dict(scoped["industry"]) == {"Insurance": 1}
        assert dict(scoped["tower"]) == {"WAN": 1, "LAN": 1}

    def test_sorted_by_count_then_value(self, facets):
        values = facets.facets()["tower"]
        counts = [count for _, count in values]
        assert counts == sorted(counts, reverse=True)

    def test_all_facet_names_computable(self, facets):
        everything = facets.facets()
        assert set(everything) == {
            "tower", "industry", "consultant", "geography", "value_band",
            "role",
        }

    def test_value_band_facet(self, facets):
        assert dict(facets.facets()["value_band"]) == {"over 100M": 3}
