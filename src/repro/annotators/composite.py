"""Composite annotator (Table 1, row 5): the standard EIL pipeline.

Assembles the primitive annotators — regex contact details, ontology
services, heuristics person mentions, social networking, technologies,
win strategies, client references, context fields — into one aggregate
with the flow control EIL uses (social analysis only on candidate
documents, per paper Fig. 3 steps 1-2).
"""

from __future__ import annotations

from repro.annotators.content import (
    ClientReferenceAnnotator,
    ContextFieldAnnotator,
    TechnologyAnnotator,
    WinStrategyAnnotator,
)
from repro.annotators.heuristics import PersonHeuristicAnnotator
from repro.annotators.ontology import OntologyServiceAnnotator
from repro.annotators.regex import build_contact_annotator
from repro.annotators.social import SocialNetworkingAnnotator, candidate_document
from repro.corpus.taxonomy import ServiceTaxonomy
from repro.uima.engine import AggregateAnalysisEngine

__all__ = ["build_eil_pipeline"]


def build_eil_pipeline(taxonomy: ServiceTaxonomy) -> AggregateAnalysisEngine:
    """The full document-level EIL annotation pipeline.

    Args:
        taxonomy: Services taxonomy for the ontology and technology
            annotators.
    """
    return AggregateAnalysisEngine(
        "eil-pipeline",
        [
            build_contact_annotator(),
            OntologyServiceAnnotator(taxonomy),
            PersonHeuristicAnnotator(),
            (SocialNetworkingAnnotator(), candidate_document),
            TechnologyAnnotator(taxonomy),
            WinStrategyAnnotator(),
            ClientReferenceAnnotator(),
            ContextFieldAnnotator(),
        ],
    )
