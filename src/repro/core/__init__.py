"""EIL core: the paper's primary contribution, assembled."""

from repro.core.acquisition import DataAcquisition
from repro.core.analysis import AnalysisResults, FeatureRollup, InformationAnalysis
from repro.core.context import ContactView, DealSynopsis, SynopsisBuilder
from repro.core.eil import BuildReport, EILSystem
from repro.core.facets import FacetService
from repro.core.metaqueries import (
    GraphQuery,
    graph_worked_with_query,
    role_capacity_query,
    scope_query,
    service_keyword_query,
    worked_with_query,
)
from repro.core.organized import OrganizedInformation, create_schema
from repro.core.presentation import (
    render_deal_list,
    render_results,
    render_synopsis,
)
from repro.core.query_analyzer import FormQuery, SynopsisMatch, SynopsisSearch
from repro.core.ranking import RankCombiner, RankedActivity
from repro.core.search import (
    ActivityResult,
    BusinessActivityDrivenSearch,
    EilResults,
)

__all__ = [
    "EILSystem",
    "BuildReport",
    "FormQuery",
    "SynopsisMatch",
    "SynopsisSearch",
    "BusinessActivityDrivenSearch",
    "EilResults",
    "ActivityResult",
    "RankCombiner",
    "RankedActivity",
    "FacetService",
    "OrganizedInformation",
    "create_schema",
    "DealSynopsis",
    "ContactView",
    "SynopsisBuilder",
    "DataAcquisition",
    "InformationAnalysis",
    "AnalysisResults",
    "FeatureRollup",
    "render_deal_list",
    "render_synopsis",
    "render_results",
    "scope_query",
    "worked_with_query",
    "role_capacity_query",
    "service_keyword_query",
    "GraphQuery",
    "graph_worked_with_query",
]
