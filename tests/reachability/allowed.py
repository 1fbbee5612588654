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
LATER = "kept pending ROADMAP item Called, not just named"

CATEGORIES = (PROTOCOL, DUNDER, FAULT, SNAPSHOT, LAYOUT, TRACING, LATER)

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
               "document_frequency", "field_document_count",
               "field_length", "field_token_total", "fields",
               "has_document", "max_tf", "metadata_column", "positions",
               "term_frequency", "term_postings", "token_total",
               "total_length", "vocabulary",
           )
       ])
_allow(PROTOCOL, "CompositeIndexReader's abstract property: the "
       "sharded index and the segment store override it", [
           "repro.search.index_reader.CompositeIndexReader.parts",
       ])
_allow(PROTOCOL, "Scorer's abstract method: the BM25 and TF-IDF scorers "
       "override it", [
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

_allow(LATER, "IndexReader oracle primitive only the conformance suite "
       "reads; a later deletion PR moves it to tests/reference/", [
           f"{owner}.{name}"
           for owner in (
               "repro.search.index_reader.CompositeIndexReader",
               "repro.search.inverted_index.InvertedIndex",
               "repro.storage.segment.Segment",
           )
           for name in (
               "field_length", "term_frequency", "token_total",
               "total_length",
           )
       ])
_allow(LATER, "SELECT expression closure (OR / NOT / arithmetic / IN / "
       "LIKE regex fallback) no synopsis query compiles; a later "
       "deletion PR, with tests/reference/expr.py as its oracle", [
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
           "repro.db.expr._like_matcher.by_regex",
           "repro.db.expr._like_regex",
       ])
_allow(LATER, "CREATE TABLE's DEFAULT clause: no schema the system "
       "creates uses it", [
           "repro.db.sql._Parser._parse_literal_value",
       ])
_allow(LATER, "the learned candidate selector and the section "
       "classifier (paper §3.2.1 future work): no option turns them on", [
           "repro.annotators.candidates.LearnedCandidateSelector.__init__",
           "repro.annotators.candidates.LearnedCandidateSelector."
           "agreement_with",
           "repro.annotators.candidates.LearnedCandidateSelector."
           "is_candidate",
           "repro.annotators.candidates.LearnedCandidateSelector.predicate",
           "repro.annotators.candidates.LearnedCandidateSelector.train",
           "repro.annotators.candidates.LearnedCandidateSelector."
           "train_from_rule",
           "repro.annotators.candidates._featurize",
           "repro.annotators.classifier.NaiveBayesClassifier.labels",
           "repro.annotators.classifier.SectionClassifierAnnotator.__init__",
           "repro.annotators.classifier.SectionClassifierAnnotator.process",
       ])
_allow(LATER, "scalar scoring and the SIAPI service's own search: "
       "oracles of the top-k engine living in src", [
           "repro.search.scoring.Bm25Scorer.score",
           "repro.search.scoring.Scorer.score",
           "repro.search.siapi.SiapiService.count",
           "repro.search.siapi.SiapiService.search",
       ])
_allow(LATER, "behaviour no entry point exercises: a later deletion PR "
       "reaches or deletes it", [
           "repro.core.metaqueries.graph_expertise_query",
           "repro.core.metaqueries.graph_role_capacity_query",
           "repro.core.metaqueries.graph_team_overlap_query",
           "repro.corpus.taxonomy.ServiceTaxonomy.suggest",
           "repro.text.similarity.jaro",
           "repro.text.similarity.jaro_winkler",
           "repro.text.stemmer.stem",
           "repro.graph.materialize.build_graph",
           "repro.search.engine._Execution._universe",
           "repro.search.siapi.SiapiQuery.is_empty",
           "repro.faults.injection.FaultInjector.wrap",
           "repro.faults.injection.FaultInjector.wrap.wrapped",
           "repro.security.access.AccessController.restrict",
           "repro.security.access.AccessController.revoke_user",
           "repro.uima.cas.Cas.remove",
       ])
