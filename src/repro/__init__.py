"""repro — EIL: business-activity driven enterprise search.

A from-scratch reproduction of "Improving Information Access for a
Community of Practice Using Business Process as Context" (Deng,
Devarakonda, Mahindru, Rajamani, Vogl, Zadrozny; ICDE 2008): the EIL
system plus every substrate it needs — an in-memory relational engine,
a BM25 full-text engine with SIAPI-style scoped search, a UIMA-like
annotation framework, the Table 1 annotator family, the Figure 3
social-networking annotator, access control, and a deterministic
synthetic enterprise corpus replacing the proprietary IBM data.

Quickstart::

    from repro import CorpusGenerator, EILSystem, FormQuery, User

    corpus = CorpusGenerator().generate()
    eil = EILSystem.build(corpus)
    results = eil.search(FormQuery(tower="End User Services"),
                         user=User("alice", {"sales"}))
    for activity in results.activities:
        print(activity.name, activity.score)
"""

from repro.core import (
    BuildReport,
    DealSynopsis,
    EILSystem,
    EilResults,
    FormQuery,
    GraphQuery,
    graph_worked_with_query,
    render_deal_list,
    render_results,
    render_synopsis,
    role_capacity_query,
    scope_query,
    service_keyword_query,
    worked_with_query,
)
from repro.corpus import Corpus, CorpusConfig, CorpusGenerator
from repro.db import Database
from repro.errors import ReproError
from repro.graph import EntityGraph
from repro.search import IndexableDocument, SearchEngine, SiapiQuery
from repro.security import ANONYMOUS, AccessController, User

__version__ = "1.0.0"

__all__ = [
    "EILSystem",
    "BuildReport",
    "FormQuery",
    "EilResults",
    "DealSynopsis",
    "CorpusGenerator",
    "CorpusConfig",
    "Corpus",
    "Database",
    "SearchEngine",
    "SiapiQuery",
    "IndexableDocument",
    "AccessController",
    "User",
    "ANONYMOUS",
    "ReproError",
    "render_deal_list",
    "render_synopsis",
    "render_results",
    "scope_query",
    "worked_with_query",
    "role_capacity_query",
    "service_keyword_query",
    "EntityGraph",
    "GraphQuery",
    "graph_worked_with_query",
    "__version__",
]
