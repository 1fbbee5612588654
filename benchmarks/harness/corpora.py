"""The benchmark's corpora and the sizes of everything a run does.

The corpus seed is a constant, not ``--seed``.  The driver compares runs
made with different seeds, so a seeded corpus would put
corpus-to-corpus variation into every spread and make the exact-repeat
metrics (``table2_f1``, ``index_bytes_per_doc``) inexact.  ``--seed``
chooses the operations instead (see ``workloads.py``).

Two shapes, after the paper's two scales:

* ``deep`` — few thick workbooks (the evaluation's 23 deals / 15k
  documents shape): index-heavy.
* ``wide`` — many thin deals (the rollout's ~1,000 engagements shape):
  synopsis-, contact- and graph-heavy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.corpus.deals import DealGenerator, DealSpec
from repro.corpus.documents_gen import WorkbookFactory
from repro.corpus.generator import Corpus, CorpusConfig, CorpusGenerator
from repro.docmodel.repository import EngagementWorkbook

__all__ = ["CorpusSpec", "Scale", "BENCH", "SMOKE", "WORKLOAD_CORPUS",
           "scale_for", "build_corpus", "new_workbooks"]

CORPUS_SEED = 2008


@dataclass(frozen=True)
class CorpusSpec:
    """One corpus: ``deals`` workbooks of ``docs`` documents each."""

    deals: int
    docs: int
    staff_pool: int = 150
    seed: int = CORPUS_SEED

    @property
    def documents(self) -> int:
        return self.deals * self.docs


@dataclass(frozen=True)
class Scale:
    """Every size one run depends on.

    Attributes:
        name: ``bench``, or ``smoke`` for numbers never to be compared.
        deep, wide: The two corpora.
        cold_ops: Distinct operations in one ``form_cold`` pass.
        hot_ops, hot_pool: ``form_hot`` draws ``hot_ops`` operations
            from ``hot_pool`` distinct forms.
        analytics_forms, analytics_graph, analytics_views,
        analytics_sql: Operation counts of one ``analytics`` pass.
        churn_deals, churn_docs: Deals added then removed per pass, and
            the documents of each.
        reader_forms: The reader thread's cold form list.
        query_cache, engine_cache: Cache capacities; None keeps the
            program's defaults (128 / 256), which is what ``bench``
            measures.
        min_passes: Fewest measured passes whatever ``--seconds`` says.
    """

    name: str
    deep: CorpusSpec
    wide: CorpusSpec
    cold_ops: int
    hot_ops: int
    hot_pool: int
    analytics_forms: int
    analytics_graph: int
    analytics_views: int
    analytics_sql: int
    churn_deals: int
    churn_docs: int
    reader_forms: int
    query_cache: Optional[int]
    engine_cache: Optional[int]
    min_passes: int


# What BENCHMARK.json runs.  ISSUE 14 named 60 x 100 and 400 x 12; the
# driver makes 92 runs in 3420 s, and those sizes take 13 s to set up.
BENCH = Scale(
    name="bench",
    deep=CorpusSpec(20, 100), wide=CorpusSpec(80, 12, staff_pool=160),
    cold_ops=600, hot_ops=12000, hot_pool=48,
    analytics_forms=160, analytics_graph=80, analytics_views=40,
    analytics_sql=40,
    churn_deals=6, churn_docs=50, reader_forms=200,
    query_cache=None, engine_cache=None, min_passes=5,
)

# ``--smoke``.  Too small to hold 600 distinct forms, so the caches
# shrink with the corpus and the miss/hit pins still bite.
SMOKE = Scale(
    name="smoke",
    deep=CorpusSpec(5, 16, staff_pool=40),
    wide=CorpusSpec(10, 12, staff_pool=40),
    cold_ops=80, hot_ops=600, hot_pool=8,
    analytics_forms=24, analytics_graph=12, analytics_views=6,
    analytics_sql=6,
    churn_deals=2, churn_docs=12, reader_forms=24,
    query_cache=16, engine_cache=32, min_passes=3,
)


def scale_for(smoke: bool) -> Scale:
    return SMOKE if smoke else BENCH


#: Which corpus each workload runs on.
WORKLOAD_CORPUS = {
    "form_cold": "deep",
    "form_hot": "deep",
    "analytics": "wide",
    "ingest": "deep",
}


def build_corpus(spec: CorpusSpec) -> Corpus:
    """Generate the corpus ``spec`` describes (no e-mail threads)."""
    return CorpusGenerator(
        CorpusConfig(
            seed=spec.seed,
            n_deals=spec.deals,
            docs_per_deal=spec.docs,
            n_threads=0,
            staff_pool_size=spec.staff_pool,
        )
    ).generate()


def new_workbooks(
    corpus: Corpus, count: int, docs: int
) -> List[Tuple[DealSpec, EngagementWorkbook]]:
    """``count`` engagements the corpus does not hold, for churn.

    Deal ids continue after the corpus's own, so onboarding one never
    collides with an existing deal.
    """
    base = len(corpus.deals)
    seed = corpus.config.seed + 2
    deals = DealGenerator(
        seed=seed,
        taxonomy=corpus.taxonomy,
        staff_pool_size=corpus.config.staff_pool_size,
    ).generate(base + count)[base:]
    factory = WorkbookFactory(corpus.taxonomy, seed=seed)
    return [(deal, factory.build_workbook(deal, docs)) for deal in deals]
