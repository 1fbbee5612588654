"""Information Analysis: the offline annotate-and-aggregate stage.

Orchestrates paper Figure 2's middle column: parse every workbook
document into a CAS, run the composite annotator pipeline, and feed the
collection-processing consumers that produce per-deal structured
results — contacts (Fig. 3), scopes (Section 3.4), overview context,
win strategies, technologies and client references.  The results are
then handed to :class:`~repro.core.organized.OrganizedInformation`.

Fault tolerance: workbook reads (the ``repository`` fault point) are
retried and a persistently unreadable workbook is *quarantined* — its
documents are skipped, recorded in ``AnalysisResults.quarantined``, and
the build continues.  Each per-document parse passes a keyed
``analysis`` fault-point check (key = doc id), so injected per-document
faults are deterministic at any worker count and land in the CPE's
quarantine rather than aborting the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Set, Tuple

from repro.annotators.base import register_eil_types
from repro.annotators.composite import build_eil_pipeline
from repro.annotators.scope import ScopeAggregator, ScopeEntry
from repro.annotators.social import ContactRecord, ContactRollup
from repro.corpus.taxonomy import ServiceTaxonomy
from repro.docmodel.parsers import DocumentParser, register_structure_types
from repro.docmodel.repository import WorkbookCollection
from repro.errors import TransientError
from repro.faults import RetryPolicy, get_injector
from repro.intranet.directory import PersonnelDirectory
from repro.obs import CounterHandle, HistogramHandle, get_tracer
from repro.uima.cas import Cas
from repro.uima.cpe import CasConsumer, CollectionProcessingEngine
from repro.uima.typesystem import TypeSystem

__all__ = ["AnalysisResults", "FeatureRollup", "InformationAnalysis"]

_DOCUMENTS_FAILED = CounterHandle("analysis.documents_failed")
_DOCUMENTS_PROCESSED = CounterHandle("analysis.documents_processed")
_DOCUMENTS_QUARANTINED = CounterHandle("analysis.documents_quarantined")
_WORKBOOKS_QUARANTINED = CounterHandle("analysis.workbooks_quarantined")
_PARSE_SECONDS = HistogramHandle("analysis.parse_seconds")


class FeatureRollup(CasConsumer):
    """Generic per-deal collector of one annotation type's feature values.

    Collects de-duplicated feature tuples per deal, preserving first-seen
    order — used for context fields, win strategies, technologies and
    client references.
    """

    def __init__(self, name: str, type_name: str, features: Tuple[str, ...]):
        self.name = name
        self.type_name = type_name
        self.features = features
        self._by_deal: Dict[str, List[Tuple[str, ...]]] = {}
        self._seen: Set[Tuple[str, Tuple[str, ...]]] = set()

    def process_cas(self, cas: Cas) -> None:
        deal_id = str(cas.metadata.get("deal_id", ""))
        if not deal_id or self.type_name not in cas.type_system:
            return
        for annotation in cas.select(self.type_name):
            values = tuple(
                str(annotation.get(feature, "")) for feature in self.features
            )
            key = (deal_id, values)
            if key in self._seen:
                continue
            self._seen.add(key)
            self._by_deal.setdefault(deal_id, []).append(values)

    def collection_process_complete(self) -> Dict[str, List[Tuple[str, ...]]]:
        return self._by_deal


@dataclass
class AnalysisResults:
    """Everything the offline analysis produced, keyed by deal id."""

    contacts: Dict[str, List[ContactRecord]] = field(default_factory=dict)
    scopes: Dict[str, List[ScopeEntry]] = field(default_factory=dict)
    context: Dict[str, Dict[str, str]] = field(default_factory=dict)
    strategies: Dict[str, List[str]] = field(default_factory=dict)
    technologies: Dict[str, List[Tuple[str, str]]] = field(
        default_factory=dict
    )
    references: Dict[str, List[str]] = field(default_factory=dict)
    documents_processed: int = 0
    documents_failed: int = 0
    documents_quarantined: int = 0
    quarantined: List[str] = field(default_factory=list)


class InformationAnalysis:
    """Runs the full offline analysis over a workbook collection."""

    def __init__(
        self,
        taxonomy: ServiceTaxonomy,
        directory: Optional[PersonnelDirectory] = None,
        scope_min_weight: float = 4.0,
        retry: Optional[RetryPolicy] = None,
        deadline_seconds: Optional[float] = None,
        max_failure_ratio: float = 1.0,
    ) -> None:
        self.taxonomy = taxonomy
        self.directory = directory
        self.scope_min_weight = scope_min_weight
        self.retry = retry or RetryPolicy()
        self.deadline_seconds = deadline_seconds
        self.max_failure_ratio = max_failure_ratio
        self.type_system = TypeSystem()
        register_structure_types(self.type_system)
        register_eil_types(self.type_system)
        self.parser = DocumentParser(self.type_system)
        self.pipeline = build_eil_pipeline(taxonomy)
        self.pipeline.initialize_types(self.type_system)

    def analyze(
        self,
        collection: WorkbookCollection,
        workers: int = 1,
        executor: Optional[str] = None,
    ) -> AnalysisResults:
        """Parse + annotate + aggregate one collection.

        Args:
            collection: The workbooks to analyze.
            workers: Worker count for the parse+annotate stage.  The
                default (1) runs strictly serially, more shard the
                corpus by deal across that many worker processes; any
                value produces identical :class:`AnalysisResults`
                because the CPE merges worker output in stable document
                order before the collection-level consumers run.
            executor: ``"serial"`` keeps the stage on the calling
                thread at any width; None or ``"processes"`` lets
                ``workers`` decide.
        """
        contact_rollup = ContactRollup(self.directory)
        scope_aggregator = ScopeAggregator(self.scope_min_weight)
        context_rollup = FeatureRollup(
            "context", "eil.ContextField", ("name", "value")
        )
        strategy_rollup = FeatureRollup(
            "strategies", "eil.WinStrategy", ("text",)
        )
        technology_rollup = FeatureRollup(
            "technologies", "eil.Technology", ("term", "tower")
        )
        reference_rollup = FeatureRollup(
            "references", "eil.ClientReference", ("text",)
        )
        cpe = CollectionProcessingEngine(
            self.pipeline,
            [
                contact_rollup,
                scope_aggregator,
                context_rollup,
                strategy_rollup,
                technology_rollup,
                reference_rollup,
            ],
            retry=self.retry,
            deadline_seconds=self.deadline_seconds,
            max_failure_ratio=self.max_failure_ratio,
        )
        with get_tracer().span("offline.analyze", workers=workers) as span:
            items, skipped_docs, workbook_quarantine = (
                self._collect_documents(collection)
            )
            report = cpe.run(
                items,
                prepare=self._parse_one,
                workers=workers,
                executor=executor,
                # Shard by deal: a deal's documents travel to one
                # worker process together, mirroring the per-deal
                # repository layout the paper crawls.
                shard_key=attrgetter("deal_id"),
            )
        _DOCUMENTS_PROCESSED.inc(report.documents_processed)
        _DOCUMENTS_FAILED.inc(report.documents_failed)
        _DOCUMENTS_QUARANTINED.inc(
            report.documents_quarantined + skipped_docs
        )
        span.set_attribute("documents", report.documents_processed)
        results = AnalysisResults(
            contacts=report.consumer_results["contact-rollup"],
            scopes=report.consumer_results["scope-aggregator"],
            context={
                deal_id: {name: value for name, value in pairs}
                for deal_id, pairs in report.consumer_results[
                    "context"
                ].items()
            },
            strategies={
                deal_id: [text for (text,) in rows]
                for deal_id, rows in report.consumer_results[
                    "strategies"
                ].items()
            },
            technologies={
                deal_id: [(term, tower) for term, tower in rows]
                for deal_id, rows in report.consumer_results[
                    "technologies"
                ].items()
            },
            references={
                deal_id: [text for (text,) in rows]
                for deal_id, rows in report.consumer_results[
                    "references"
                ].items()
            },
            documents_processed=report.documents_processed,
            documents_failed=report.documents_failed,
            documents_quarantined=(
                report.documents_quarantined + skipped_docs
            ),
            quarantined=workbook_quarantine + report.quarantined,
        )
        return results

    def _collect_documents(self, collection: WorkbookCollection):
        """Gather documents workbook by workbook, quarantining outages.

        Returns ``(documents, skipped_count, quarantine_lines)``.  Each
        workbook read is retried under the analysis retry policy; a
        workbook that stays unreadable contributes one quarantine line
        and its documents are skipped, instead of aborting the build.
        """
        documents: List = []
        quarantine: List[str] = []
        skipped = 0
        for workbook in collection:
            try:
                docs = self.retry.call(workbook.documents)
            except TransientError as exc:
                skipped += len(workbook)
                quarantine.append(
                    f"workbook {workbook.name} (deal {workbook.deal_id}): "
                    f"{type(exc).__name__}: {exc} "
                    f"({len(workbook)} documents skipped)"
                )
                _WORKBOOKS_QUARANTINED.inc()
                continue
            documents.extend(docs)
        return documents, skipped, quarantine

    def _parse_one(self, document) -> Cas:
        """Parse one document to a CAS, timing the parse stage.

        Runs inside the CPE's worker pool when ``workers > 1``, so the
        parse stage fans out together with annotation.  The keyed
        ``analysis`` fault point fires here: decisions hash on the doc
        id, never on worker scheduling, so the quarantined set — and
        therefore every surviving document's results — is identical at
        any worker count (the PR 2 determinism invariant, preserved
        under injection).
        """
        get_injector().check(
            "analysis", key=getattr(document, "doc_id", None)
        )
        with _PARSE_SECONDS.timer():
            return self.parser.to_cas(document)
