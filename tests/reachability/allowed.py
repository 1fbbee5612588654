"""Functions no entry point calls, each with its category and reason.

:data:`ALLOWED` maps a qualified name, as the gate reports it, to
``(category, reason)``.  The category is one of :data:`CATEGORIES`:

* a *protocol stub*: the base-class body of a method every concrete
  class overrides, or a default hook;
* a *dunder or debug aid*: called by Python or by a person at a prompt;
* a *fault/error path*: runs when something goes wrong, which the
  entry points' fault drills do not reach;
* *kept pending* a ROADMAP item that decides whether the code is
  reached or deleted.

An entry goes when its function is deleted or an entry point starts
calling it: the gate fails on a stale entry.
"""

from typing import Dict, Iterable, Tuple

PROTOCOL = "protocol stub"
DUNDER = "dunder or debug aid"
FAULT = "fault/error path"
SNAPSHOT = "kept pending ROADMAP item One published snapshot per epoch"
LAYOUT = "kept pending ROADMAP item One served layout"
TRACING = "kept pending ROADMAP item Request-scoped tracing"
ACCESS = ("kept pending ROADMAP item Stateful models, 5: access-control "
          "invariants as properties")
COLD_START = ("kept pending ROADMAP item Cold start reads what was saved "
              "and rebuilds what is derived")
LATER = "kept pending ROADMAP item Called, not just named"

CATEGORIES = (PROTOCOL, DUNDER, FAULT, SNAPSHOT, LAYOUT, TRACING, ACCESS,
              COLD_START, LATER)

ALLOWED: Dict[str, Tuple[str, str]] = {}


def _allow(category: str, reason: str, names: Iterable[str]) -> None:
    for name in names:
        assert name not in ALLOWED, name
        ALLOWED[name] = (category, reason)


_allow(PROTOCOL, "IndexReader's abstract primitive: every reader "
       "(InvertedIndex, Segment, the composites) overrides it", [
           f"repro.search.index_reader.IndexReader.{name}"
           for name in (
               "__len__", "doc_ids", "docs_with_metadata", "document",
               "field_document_count", "field_token_total", "fields",
               "has_document", "max_tf", "metadata_column", "positions",
               "stored_fields", "term_postings", "vocabulary",
           )
       ])
_allow(PROTOCOL, "CompositeIndexReader's abstract property: only the "
       "segment store overrides it", [
           "repro.search.index_reader.CompositeIndexReader.parts",
       ])
_allow(PROTOCOL, "Scorer's protocol method: the BM25 scorer overrides it",
       [
           "repro.search.scoring.Scorer.score_postings",
           "repro.search.scoring.Scorer.upper_bound",
       ])
_allow(PROTOCOL, "a default no-op hook of the UIMA base classes, which "
       "every engine and consumer in use overrides", [
           "repro.uima.engine.AnalysisEngine.initialize_types",
           "repro.uima.engine.AnalysisEngine.process",
           "repro.uima.cpe.CasConsumer.process_cas",
           "repro.uima.cpe.CasConsumer.collection_process_complete",
       ])
_allow(PROTOCOL, "the DocumentSource protocol's method body", [
    "repro.search.crawler.DocumentSource.iter_documents",
])
_allow(PROTOCOL, "overridden by each cell kind (counter, histogram)", [
    "repro.obs.metrics._Cells._empty",
    "repro.obs.metrics._Cells._fold",
])
_allow(PROTOCOL, "overridden by each handle kind (counter, gauge, "
       "histogram)", [
           "repro.obs.metrics._Handle._resolve",
       ])
_allow(PROTOCOL, "the no-op span's annotation, for callers that "
       "annotate whatever span they are given", [
           "repro.obs.tracing._NullSpanContext.set_attribute",
       ])

_allow(DUNDER, "Python calls it: len(), in, iter(), bool(), ==, or "
       "pickling to a spawned worker", [
           "repro.cache.LruCache.__contains__",
           "repro.cache.LruCache.__len__",
           "repro.corpus.taxonomy.ServiceTaxonomy.__contains__",
           "repro.db.database._StatementCache.__len__",
           "repro.db.index.Index.__len__",
           "repro.db.query.ResultSet.__iter__",
           "repro.db.query.ResultSet.__len__",
           "repro.db.query._NullsLast.__eq__",
           "repro.docmodel.repository.WorkbookCollection.__contains__",
           "repro.faults.injection.FaultProfile.__bool__",
           "repro.obs.metrics._Handle.__reduce__",
           "repro.uima.cas.Cas.__iter__",
       ])
_allow(DUNDER, "repr for a person at a prompt or in a traceback", [
    "repro.db.database.Database.__repr__",
    "repro.db.schema.TableSchema.__repr__",
    "repro.db.table.Table.__repr__",
    "repro.db.types.DataType.__str__",
    "repro.docmodel.repository.EngagementWorkbook.__repr__",
    "repro.faults.injection.FaultProfile.__repr__",
    "repro.uima.cas.Cas.__repr__",
])
_allow(DUNDER, "operator and test aid: inspect a live object", [
    "repro.cache.LruCache.clear",
    "repro.obs.metrics.Histogram.max",
    "repro.obs.metrics.Histogram.min",
    "repro.obs.metrics.MetricsRegistry.names",
    "repro.faults.injection.FaultInjector.active",
    "repro.faults.breaker.CircuitBreaker.state",
    "repro.docmodel.repository.EngagementWorkbook.get",
])

_allow(FAULT, "raises or records a failure no fault drill produces", [
    "repro.db.sql._Parser._fail",
    "repro.db.expr._raiser",
    "repro.db.expr._raiser._raise",
    "repro.errors.BuildAbortedError.__init__",
    "repro.uima.cpe._describe_failure",
    "repro.uima.cpe.CollectionProcessingEngine._record_failure",
    "repro.uima.cpe.CollectionProcessingEngine._record_quarantine",
    "repro.core.search.BusinessActivityDrivenSearch._contacts",
])
_allow(FAULT, "the breaker trips and probes only after consecutive "
       "failures, which the 20% drills do not string together", [
           "repro.faults.breaker.CircuitBreaker._release_probe",
           "repro.faults.breaker.CircuitBreaker._set_state",
           "repro.faults.breaker.CircuitBreaker._trip",
       ])
_allow(FAULT, "undoes a DELETE that fails part way (a foreign key "
       "refuses a later row) and rolls back a transaction", [
           "repro.db.database.Database._undo",
           "repro.db.table.Table.undo_delete",
           "repro.db.table.Table.undo_insert",
       ])

_allow(SNAPSHOT, "undo-log transactions: the snapshot item decides "
       "whether publish uses them", [
           "repro.db.database.Database.begin",
           "repro.db.database.Database.commit",
           "repro.db.database.Database.rollback",
       ])
_allow(TRACING, "EXPLAIN, which the tracing item's `repro explain` is "
       "to call", [
           "repro.db.database.Database._explain_statement",
       ])
_allow(LAYOUT, "the segment store's write path, which the one-served-"
       "layout item reaches from the build", [
           # Reached through the composite's own removals and
           # offboarding's lookup, which only the segment store's
           # write path now runs.
           "repro.search.index_reader.CompositeIndexReader._untrack",
           "repro.search.index_reader.CompositeIndexReader.docs_with_metadata",
           "repro.storage.segment.merge_segments",
           "repro.storage.segment.Segment.iter_term_raw",
           "repro.storage.segment.Segment.docs_with_metadata",
           "repro.storage.segment.Segment.raw_bytes",
           "repro.storage.segment.Segment.tombstone",
           "repro.storage.store.SegmentBackedIndex._merge_positions",
           "repro.storage.store.SegmentBackedIndex._tier",
           "repro.storage.store.SegmentBackedIndex.close",
           "repro.storage.store.SegmentBackedIndex.maybe_merge",
           "repro.storage.store.SegmentBackedIndex.remove",
       ])

_allow(ACCESS, "policy administration: a revoked user loses access, "
       "and the query cache keys on the policy_version they move", [
           "repro.security.access.AccessController.restrict",
           "repro.security.access.AccessController.revoke_user",
       ])
_allow(COLD_START, "rebuilding the graph from the loaded synopsis, which "
       "the cold-start item makes the load path", [
           "repro.graph.materialize.build_graph",
       ])
_allow(LATER, "SELECT expression closure (OR / NOT / arithmetic / IN) "
       "no synopsis query compiles; a later deletion PR, with "
       "tests/reference/expr.py as its oracle", [
           "repro.db.expr.Arithmetic.__post_init__",
           "repro.db.expr._as_bool",
           "repro.db.expr._build_and",
           "repro.db.expr._build_and._and",
           "repro.db.expr._build_arithmetic",
           "repro.db.expr._build_arithmetic._arithmetic",
           "repro.db.expr._build_in._in",
           "repro.db.expr._build_like._like",
           "repro.db.expr._build_not",
           "repro.db.expr._build_not._not",
           "repro.db.expr._build_or",
           "repro.db.expr._build_or._or",
       ])
