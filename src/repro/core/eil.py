"""The EIL system facade: offline build + online search.

Wires every component of the paper's Figure 2 architecture together:

* offline — :class:`~repro.core.acquisition.DataAcquisition` crawls the
  workbooks into the semantic index;
  :class:`~repro.core.analysis.InformationAnalysis` runs the annotator
  pipeline and CPEs; the results populate
  :class:`~repro.core.organized.OrganizedInformation`.
* online — :class:`~repro.core.search.BusinessActivityDrivenSearch`
  answers form queries;
  :class:`~repro.core.context.SynopsisBuilder` serves the per-deal
  synopsis; plain keyword search over the same index is exposed as the
  paper's OmniFind baseline.

Typical use::

    from repro import CorpusGenerator, EILSystem, FormQuery, User

    corpus = CorpusGenerator().generate()
    eil = EILSystem.build(corpus)
    results = eil.search(FormQuery(tower="End User Services"),
                         user=User("alice", {"sales"}))
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Tuple

from repro.core.acquisition import DataAcquisition
from repro.core.analysis import AnalysisResults, InformationAnalysis
from repro.core.context import DealSynopsis, SynopsisBuilder
from repro.core.organized import OrganizedInformation
from repro.core.query_analyzer import FormQuery
from repro.core.search import (
    BusinessActivityDrivenSearch,
    CacheProbe,
    EilResults,
)
from repro.corpus.generator import Corpus
from repro.corpus.taxonomy import ServiceTaxonomy
from repro.db.persistence import dump_database, load_database
from repro.core.metaqueries import GraphQuery
from repro.docmodel.repository import WorkbookCollection
from repro.errors import StorageError, TransientError
from repro.faults import RetryPolicy
from repro.graph import EntityGraph, index_deal_from_organized
from repro.intranet.directory import PersonnelDirectory
from repro.obs import CounterHandle, GaugeHandle, get_tracer
from repro.search.document import SearchHit
from repro.search.engine import SearchEngine
from repro.search.siapi import SiapiService
from repro.security.access import AccessController, User
from repro.storage.atomic import (
    atomic_write_text,
    encode_document,
    read_manifest,
)

__all__ = ["EILSystem", "BuildReport"]

_DEALS_POPULATED = GaugeHandle("eil.deals_populated")
_DOCUMENTS_QUARANTINED = GaugeHandle("eil.documents_quarantined")
_GRAPH_DEALS_SKIPPED = CounterHandle("graph.deals_skipped")

_DEFAULT_USER = User("analyst", frozenset({"sales"}))


def _default_workers() -> int:
    """Offline worker count when unspecified: ``REPRO_WORKERS`` or 1.

    The environment override exists so an entire test or CI run can be
    re-executed under a parallel build (the determinism invariant makes
    that a pure execution-mode change) without touching every call
    site.
    """
    return int(os.environ.get("REPRO_WORKERS", "1"))


@dataclass
class BuildReport:
    """What the offline pipeline produced.

    Attributes:
        documents_indexed: Documents in the semantic index.
        documents_analyzed: Documents the annotation pipeline processed.
        documents_failed: Documents whose analysis raised a hard error.
        deals_populated: Deals with a stored synopsis.
        documents_quarantined: Documents set aside by the fault layer
            (transient failures, deadline overruns, unreadable
            workbooks); the per-document reasons are in
            ``EILSystem.analysis_results.quarantined``.
    """

    documents_indexed: int
    documents_analyzed: int
    documents_failed: int
    deals_populated: int
    documents_quarantined: int = 0


def _manifest_fields(
    manifest: Dict[str, object], path: str
) -> Tuple[Dict[str, str], Optional[BuildReport]]:
    """``eil-manifest.json``'s repositories and build report, once they
    have the shapes :meth:`EILSystem.save_index` writes; a
    :class:`StorageError` naming ``path`` otherwise (the envelope
    vouches for the bytes, not for the code that wrote them)."""
    repositories = manifest.get("repositories")
    if not isinstance(repositories, dict) or not all(
        isinstance(name, str) for name in repositories.values()
    ):
        raise StorageError(
            f"malformed {path}: repositories must map deal ids to "
            f"repository names, got {repositories!r:.80}"
        )
    if "build_report" not in manifest:
        raise StorageError(f"malformed {path}: no build_report")
    report = manifest["build_report"]
    if report is None:
        return dict(repositories), None
    names = {f.name for f in fields(BuildReport)}
    if (
        not isinstance(report, dict)
        or set(report) != names
        or not all(type(value) is int for value in report.values())
    ):
        raise StorageError(
            f"malformed {path}: build_report must have the integer "
            f"fields {sorted(names)}, got {report!r:.120}"
        )
    return dict(repositories), BuildReport(**report)


class EILSystem:
    """One deployed EIL instance over a workbook collection.

    :meth:`build` and :meth:`load` take the same keyword options as the
    constructor and hand them to it.

    Args:
        taxonomy: The services taxonomy.
        collection: The workbooks the system covers.
        directory: The intranet personnel directory.
        access: Document ACLs (default: open).
        scope_min_weight: The weight a service needs to be reported as
            a deal's scope.
        workers: Worker count for the offline parse+annotate stage;
            the default (1, or ``REPRO_WORKERS``) runs serially, more
            shard the corpus by deal across that many worker processes.
            Results are identical at any width (stable-order merge).
        executor: Offline execution mode — ``processes`` (the default)
            or ``serial``, which keeps the stage on the calling thread
            whatever ``workers`` says.  Results are identical under
            both.
        query_cache_size: Form-query result-cache capacity (0: none).
        engine_cache_size: Search-engine result-cache capacity (0: none).
        deadline_seconds: Per-document analysis budget; overruns are
            quarantined (None disables the check).
        max_failure_ratio: Abort the build when more than this fraction
            of documents failed or were quarantined.
        retry: Retry policy for transient failures across both
            pipelines (defaults to three quick attempts).
    """

    #: File names / identity of the on-disk layout written by
    #: :meth:`save_index` and read back by :meth:`load`.
    EIL_MANIFEST = "eil-manifest.json"
    _EIL_FORMAT = "repro-eil-index"
    _EIL_VERSION = 2
    _INDEX_SUBDIR = "index"
    _SYNOPSIS_FILE = "synopsis.json"
    _GRAPH_FILE = "graph.json"

    def __init__(
        self,
        taxonomy: ServiceTaxonomy,
        collection: WorkbookCollection,
        directory: Optional[PersonnelDirectory] = None,
        access: Optional[AccessController] = None,
        scope_min_weight: float = 4.0,
        workers: Optional[int] = None,
        executor: Optional[str] = None,
        query_cache_size: int = 128,
        engine_cache_size: int = 256,
        deadline_seconds: Optional[float] = None,
        max_failure_ratio: float = 1.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        workers = _default_workers() if workers is None else workers
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.taxonomy = taxonomy
        self.collection = collection
        self.directory = directory
        self.access = access or AccessController()
        self.workers = workers
        self.executor = executor  # None: the CPE's default, processes
        self._query_cache_size = query_cache_size
        self.engine = SearchEngine(
            # Slide titles carry the key point (paper Section 3.3).
            field_boosts={"title": 2.0},
            cache_size=engine_cache_size,
        )
        self.siapi = SiapiService(self.engine)
        self.organized = OrganizedInformation()
        self.synopsis_builder = SynopsisBuilder(self.organized)
        # The entity graph (repro.graph): materialized from the same
        # rows the populate step stores, kept in lockstep by
        # add_workbook / remove_deal under its own RW lock + epoch.
        self.graph = EntityGraph()
        self._retry = retry or RetryPolicy()
        self._analysis = InformationAnalysis(
            taxonomy,
            directory,
            scope_min_weight=scope_min_weight,
            retry=self._retry,
            deadline_seconds=deadline_seconds,
            max_failure_ratio=max_failure_ratio,
        )
        # deal_id -> repository name; the online search holds this very
        # dict, so onboarding and offboarding update it in one place.
        self._repositories: Dict[str, str] = {
            workbook.deal_id: workbook.name for workbook in collection
        }
        self._search: Optional[BusinessActivityDrivenSearch] = None
        self.build_report: Optional[BuildReport] = None
        self.analysis_results: Optional[AnalysisResults] = None

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, corpus: Corpus, **options) -> "EILSystem":
        """Build a ready-to-query system from a generated corpus.

        ``options`` are the constructor's keyword arguments.
        """
        system = cls(
            taxonomy=corpus.taxonomy,
            collection=corpus.collection,
            directory=corpus.directory,
            **options,
        )
        system.run_offline_pipeline()
        return system

    def run_offline_pipeline(self) -> BuildReport:
        """Crawl, analyze and populate (Figure 2's offline half)."""
        tracer = get_tracer()
        with tracer.span("offline.pipeline", workers=self.workers,
                         executor=self.executor):
            acquisition = DataAcquisition(self.engine, retry=self._retry)
            crawl_report = acquisition.acquire(self.collection)

            results = self._analysis.analyze(self.collection,
                                             workers=self.workers,
                                             executor=self.executor)
            self.analysis_results = results

            deal_ids = (
                set(results.context)
                | set(results.scopes)
                | set(results.contacts)
            )
            with tracer.span("offline.populate", deals=len(deal_ids)):
                for deal_id in sorted(deal_ids):
                    self._populate(deal_id, results)

            with tracer.span("offline.graph", deals=len(deal_ids)):
                for deal_id in sorted(deal_ids):
                    self._index_deal_graph(deal_id)

            self._search = self._new_search()
        self.build_report = BuildReport(
            documents_indexed=crawl_report.indexed,
            documents_analyzed=results.documents_processed,
            documents_failed=results.documents_failed,
            deals_populated=len(deal_ids),
            documents_quarantined=results.documents_quarantined,
        )
        _DEALS_POPULATED.set(len(deal_ids))
        _DOCUMENTS_QUARANTINED.set(results.documents_quarantined)
        return self.build_report

    # -- persistence -------------------------------------------------------------

    def save_index(self, directory: str) -> Dict[str, object]:
        """Persist the built system under ``directory`` for cold start.

        Layout::

            directory/
              eil-manifest.json   # repositories, build report
              index/              # segment store (MANIFEST.json + segments)
              synopsis.json       # organized-information database snapshot
              graph.json          # entity graph (canonical, checksummed)

        Every file lands atomically (temp + fsync + rename), so a crash
        mid-save leaves any previous snapshot loadable; every JSON file
        is an :func:`~repro.storage.atomic.encode_document` document.
        Returns the engine's storage statistics (``segments``,
        ``bytes_per_doc``, ...).
        """
        self._require_search()  # only a built system is worth persisting
        os.makedirs(directory, exist_ok=True)
        with get_tracer().span("persist.save"):
            stats = self.engine.save_index(
                os.path.join(directory, self._INDEX_SUBDIR)
            )
            dump_database(
                self.organized.db,
                os.path.join(directory, self._SYNOPSIS_FILE),
            )
            self.graph.save(os.path.join(directory, self._GRAPH_FILE))
            manifest = {
                "repositories": self._repositories,
                "build_report": (
                    asdict(self.build_report)
                    if self.build_report is not None
                    else None
                ),
            }
            atomic_write_text(
                os.path.join(directory, self.EIL_MANIFEST),
                encode_document(self._EIL_FORMAT, self._EIL_VERSION, manifest),
            )
        return stats

    @classmethod
    def load(cls, directory: str, corpus: Corpus, **options) -> "EILSystem":
        """Cold-start a ready-to-query system from :meth:`save_index`.

        Skips the offline pipeline entirely: the segment index and the
        organized-information database are read back from disk, so load
        time is independent of analysis cost.  Queries, synopses and
        incremental maintenance (``add_workbook`` / ``remove_deal``)
        behave exactly as on the freshly built system.  Every file is
        checked against its checksum and version; a file that fails
        raises a typed error naming it.

        An ``index/`` saved partitioned into shards (it holds
        ``SHARDS.json``) is refused with a
        :class:`~repro.errors.StorageError` naming that file: this
        version reads one index, so such a snapshot must be rebuilt.  A
        manifest's ``shards`` field, which unpartitioned snapshots of
        that time also carry, is ignored.

        Args:
            directory: A directory written by :meth:`save_index`.
            corpus: The corpus the index was built from (supplies the
                taxonomy, workbook collection and personnel directory,
                which are not persisted).
            options: The constructor's keyword arguments.
        """
        manifest_path = os.path.join(directory, cls.EIL_MANIFEST)
        manifest = read_manifest(
            manifest_path, cls._EIL_FORMAT, cls._EIL_VERSION
        )
        repositories, report = _manifest_fields(manifest, manifest_path)
        index_directory = os.path.join(directory, cls._INDEX_SUBDIR)
        shards_path = os.path.join(index_directory, "SHARDS.json")
        if os.path.exists(shards_path):
            raise StorageError(
                f"{shards_path}: the index was saved partitioned into "
                f"shards, which this version does not read; rebuild the "
                f"snapshot (python -m repro persist)"
            )
        system = cls(
            taxonomy=corpus.taxonomy,
            collection=corpus.collection,
            directory=corpus.directory,
            **options,
        )
        with get_tracer().span("persist.load"):
            system.engine.load_index(index_directory)
            system.organized = OrganizedInformation(
                db=load_database(
                    os.path.join(directory, cls._SYNOPSIS_FILE)
                )
            )
        system.synopsis_builder = SynopsisBuilder(system.organized)
        graph_path = os.path.join(directory, cls._GRAPH_FILE)
        if os.path.exists(graph_path):
            # The persisted graph is canonical: loading it (rather than
            # rebuilding) is what makes cold starts bit-identical.
            system.graph = EntityGraph.load(graph_path)
        else:
            # The graph is derived state: without its file, rebuild it
            # from the synopsis DB.
            from repro.graph import build_graph

            system.graph = build_graph(system.organized)
        system._repositories = repositories
        system._search = system._new_search()
        if report is not None:
            system.build_report = report
            _DEALS_POPULATED.set(system.build_report.deals_populated)
            _DOCUMENTS_QUARANTINED.set(
                system.build_report.documents_quarantined
            )
        return system

    # -- online API -------------------------------------------------------------

    def search(
        self,
        form: FormQuery,
        user: User = _DEFAULT_USER,
        limit: Optional[int] = None,
        probe: Optional[CacheProbe] = None,
    ) -> EilResults:
        """Business-activity driven search (paper Figure 1).

        ``probe`` is this request's :meth:`probe_search`, when the
        caller made it first: access, form and cache are then not
        looked at again.
        """
        with get_tracer().span("online.search"):
            return self._require_search().execute(
                form, user, limit, probe=probe
            )

    def probe_search(
        self,
        form: FormQuery,
        user: User = _DEFAULT_USER,
        limit: Optional[int] = None,
    ) -> CacheProbe:
        """Look ``search(form, user, limit)`` up in the query cache.

        The first half of a search: the access and empty-form checks,
        the cache key and the one cache verdict, with no substrate
        read — cheap enough for a caller's own thread.  Hand the probe
        to :meth:`search` to finish the request: a hit returns the
        cached answer itself (immutable, shared by every hit), a miss is
        computed and stored under the probe's key.
        """
        return self._require_search().probe(form, user, limit)

    def synopsis(self, deal_id: str, user: User = _DEFAULT_USER) -> DealSynopsis:
        """The deal synopsis view (paper Figure 6)."""
        self.access.require_synopsis_access(user)
        return self.synopsis_builder.build(deal_id)

    def graph_query(self, query: GraphQuery):
        """Run one entity-graph query (people & role search).

        Dispatches a :class:`~repro.core.metaqueries.GraphQuery` to the
        matching :class:`~repro.graph.EntityGraph` traversal.  Graph
        queries read only the in-memory graph (no synopsis-DB or index
        substrate), so they stay answerable on every rung of the
        degradation ladder.
        """
        with get_tracer().span("online.graph_query", kind=query.kind):
            if query.kind == "worked-with":
                return self.graph.worked_with(query.subject, query.limit)
            if query.kind == "role-capacity":
                return self.graph.role_capacity(query.subject,
                                                query.limit)
            if query.kind == "expertise":
                return self.graph.expertise(query.subject, query.limit)
            # GraphQuery.__post_init__ validated the kind already.
            return self.graph.team_overlap(query.subject, query.limit)

    def keyword_search(
        self, query: str, limit: Optional[int] = None
    ) -> List[SearchHit]:
        """The baseline: plain keyword search over the same index.

        This is the "business-agnostic search-box" EIL is evaluated
        against in Section 4 — no activity scoping, no synopsis.
        Transient index failures are retried; the baseline has no
        degradation ladder, so a persistent outage propagates.
        """
        with get_tracer().span("online.keyword_search"):
            return self._retry.call(self.engine.search, query, limit)

    def keyword_count(self, query: str) -> int:
        """Number of documents a keyword query returns (Figure 4)."""
        return self.engine.count(query)

    def deal_ids(self) -> List[str]:
        """All deals with a stored synopsis."""
        return self.organized.deal_ids()

    def _require_search(self) -> BusinessActivityDrivenSearch:
        if self._search is None:
            raise RuntimeError(
                "run_offline_pipeline() must complete before searching"
            )
        return self._search

    def _new_search(self) -> BusinessActivityDrivenSearch:
        """The online pipeline over this system's current substrates."""
        return BusinessActivityDrivenSearch(
            organized=self.organized,
            taxonomy=self.taxonomy,
            siapi=self.siapi,
            access=self.access,
            repositories=self._repositories,
            cache_size=self._query_cache_size,
            retry=self._retry,
        )

    def _populate(self, deal_id: str, results: AnalysisResults) -> None:
        """Store one deal's analysis results as its synopsis rows."""
        organized = self.organized
        organized.store_deal_context(
            deal_id, results.context.get(deal_id, {})
        )
        organized.store_scopes(deal_id, results.scopes.get(deal_id, []))
        organized.store_contacts(deal_id, results.contacts.get(deal_id, []))
        organized.store_win_strategies(
            deal_id, results.strategies.get(deal_id, [])
        )
        organized.store_technologies(
            deal_id, results.technologies.get(deal_id, [])
        )
        organized.store_client_references(
            deal_id, results.references.get(deal_id, [])
        )

    def _index_deal_graph(self, deal_id: str) -> None:
        """(Re)materialize one deal's subgraph, surviving db faults.

        Materialization reads the deal's stored rows back out of the
        synopsis database, so its SELECTs cross the ``db`` fault point.
        Transient failures retry under the build's policy; a deal whose
        reads stay failing is skipped (``graph.deals_skipped``) rather
        than aborting the build — the same degrade-don't-crash
        philosophy as document quarantine.  The skipped deal's graph
        view self-heals on the next successful re-index (add_workbook,
        or a cold-start rebuild).
        """
        try:
            self._retry.call(
                index_deal_from_organized,
                self.graph, self.organized, deal_id,
            )
        except TransientError:
            _GRAPH_DEALS_SKIPPED.inc()

    # -- incremental maintenance ---------------------------------------------

    def add_workbook(self, workbook) -> None:
        """Onboard one engagement without a full rebuild (idempotent).

        The production deployment grows continuously (the paper reports
        ~1000 engagements at rollout); re-running the whole offline
        pipeline per new deal would not scale.  This indexes the new
        workbook's documents, analyzes just that workbook, and populates
        its synopsis rows.

        Onboarding has upsert semantics: re-adding a deal that is
        already onboarded (or re-adding after ``remove_deal`` left the
        workbook in ``collection``) first drops the deal's existing
        index documents and synopsis rows, so repeated calls never
        duplicate documents or rows.
        """
        self._require_search()  # initial build must have happened
        deal_id = workbook.deal_id
        if (deal_id in self._repositories
                or self.organized.deal_row(deal_id) is not None):
            self.remove_deal(deal_id)
        self.collection.upsert(workbook)
        self._repositories[deal_id] = workbook.name  # the search's map too

        # Same retry policy as the build's crawl: a document the build
        # would ride out a crawler fault for must not be skipped here.
        crawl = DataAcquisition(self.engine, retry=self._retry).acquire(
            WorkbookCollection([workbook])
        )
        results = self._analysis.analyze(WorkbookCollection([workbook]))
        self._populate(deal_id, results)
        self._index_deal_graph(deal_id)
        if self.build_report is not None:
            self.build_report.documents_indexed += crawl.indexed
            self.build_report.documents_analyzed += (
                results.documents_processed
            )
            self.build_report.documents_quarantined += (
                results.documents_quarantined
            )
            self.build_report.deals_populated += 1
            _DEALS_POPULATED.set(self.build_report.deals_populated)
        self._search.invalidate()

    def remove_deal(self, deal_id: str) -> int:
        """Offboard one engagement: drop its index entries and synopsis.

        Returns the number of documents removed from the index.  The
        workbook object itself stays in ``collection`` (the repository
        is the system of record; EIL only forgets what it extracted).
        ``build_report`` and the ``eil.deals_populated`` gauge track the
        removal, so stats do not drift under continuous offboarding.
        """
        had_synopsis = self.organized.deal_row(deal_id) is not None
        # The metadata value index finds the deal's documents directly —
        # no full doc_ids scan, which matters once the index is
        # segment-backed at 100k+ docs (a scan would page every
        # docstore record off disk).  They leave the index together: a
        # reader sees the whole deal or none of it.
        doc_ids = sorted(self.engine.docs_with_metadata("deal_id", [deal_id]))
        self.engine.remove(*doc_ids)
        removed = len(doc_ids)
        # Children first, then the deal row (FK RESTRICT order).
        for table in ("deal_scopes", "contacts", "win_strategies",
                      "technologies", "client_references"):
            self.organized.db.execute(
                f"DELETE FROM {table} WHERE deal_id = ?", [deal_id]
            )
        self.organized.db.execute(
            "DELETE FROM deals WHERE deal_id = ?", [deal_id]
        )
        self.graph.remove_deal(deal_id)
        self._repositories.pop(deal_id, None)
        if self._search is not None:
            self._search.invalidate()
        if self.build_report is not None:
            self.build_report.documents_indexed -= removed
            if had_synopsis:
                self.build_report.deals_populated -= 1
            _DEALS_POPULATED.set(self.build_report.deals_populated)
        return removed
