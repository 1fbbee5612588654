"""EIL annotators: the five Table 1 types plus the Fig. 3 social annotator."""

from repro.annotators.base import EIL_TYPE_NAMES, EilAnnotator, register_eil_types
from repro.annotators.classifier import NaiveBayesClassifier
from repro.annotators.composite import build_eil_pipeline
from repro.annotators.cooccurrence import CooccurrenceSocialAnnotator
from repro.annotators.content import (
    CONTEXT_FIELD_NAMES,
    ClientReferenceAnnotator,
    ContextFieldAnnotator,
    TechnologyAnnotator,
    WinStrategyAnnotator,
)
from repro.annotators.heuristics import PersonHeuristicAnnotator
from repro.annotators.ontology import OntologyServiceAnnotator
from repro.annotators.regex import (
    RegexAnnotator,
    RegexRule,
    build_contact_annotator,
)
from repro.annotators.scope import (
    ScopeAggregator,
    ScopeEntry,
    scope_candidate_document,
)
from repro.annotators.social import (
    CATEGORY_FOR_ROLE,
    ContactRecord,
    ContactRollup,
    SocialNetworkingAnnotator,
    candidate_document,
)

__all__ = [
    "EilAnnotator",
    "register_eil_types",
    "EIL_TYPE_NAMES",
    "RegexAnnotator",
    "RegexRule",
    "build_contact_annotator",
    "PersonHeuristicAnnotator",
    "OntologyServiceAnnotator",
    "NaiveBayesClassifier",
    "WinStrategyAnnotator",
    "TechnologyAnnotator",
    "ClientReferenceAnnotator",
    "ContextFieldAnnotator",
    "CONTEXT_FIELD_NAMES",
    "SocialNetworkingAnnotator",
    "ContactRecord",
    "ContactRollup",
    "CATEGORY_FOR_ROLE",
    "candidate_document",
    "ScopeAggregator",
    "ScopeEntry",
    "scope_candidate_document",
    "build_eil_pipeline",
    "CooccurrenceSocialAnnotator",
]
