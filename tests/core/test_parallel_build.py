"""Determinism suite: parallel offline builds equal the serial build.

The CPE merges per-worker CAS streams back in stable document order
before any collection-level consumer runs, so ``analyze(workers=N)``
must produce :class:`AnalysisResults` *equal* to the serial run, and a
parallel-built :class:`EILSystem` must answer queries identically.
"""

import threading

import pytest

from repro import CorpusConfig, CorpusGenerator, EILSystem, User, obs
from repro.core import scope_query
from repro.core.analysis import InformationAnalysis
from repro.core.metaqueries import service_keyword_query
from repro.errors import AnnotatorError, TransientError
from repro.uima.cas import Cas
from repro.uima.cpe import CollectionProcessingEngine
from repro.uima.engine import AnalysisEngine
from repro.uima.typesystem import TypeSystem

SALES = User("u", frozenset({"sales"}))


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(
        CorpusConfig(n_deals=4, docs_per_deal=14)
    ).generate()


class TestParallelAnalysisDeterminism:
    def test_workers_4_equals_serial(self, corpus):
        serial = InformationAnalysis(
            corpus.taxonomy, corpus.directory
        ).analyze(corpus.collection)
        parallel = InformationAnalysis(
            corpus.taxonomy, corpus.directory
        ).analyze(corpus.collection, workers=4)
        assert parallel == serial

    def test_odd_worker_count_equals_serial(self, corpus):
        serial = InformationAnalysis(
            corpus.taxonomy, corpus.directory
        ).analyze(corpus.collection)
        parallel = InformationAnalysis(
            corpus.taxonomy, corpus.directory
        ).analyze(corpus.collection, workers=3)
        assert parallel == serial

    def test_workers_beyond_document_count(self, corpus):
        # More workers than documents must not drop or reorder output.
        serial = InformationAnalysis(
            corpus.taxonomy, corpus.directory
        ).analyze(corpus.collection)
        parallel = InformationAnalysis(
            corpus.taxonomy, corpus.directory
        ).analyze(corpus.collection, workers=128)
        assert parallel == serial


class TestParallelSystemBuild:
    def test_parallel_build_report_matches_serial(self, corpus):
        serial = EILSystem.build(corpus)
        parallel = EILSystem.build(corpus, workers=4)
        assert parallel.build_report == serial.build_report
        assert parallel.analysis_results == serial.analysis_results

    def test_parallel_build_answers_identically(self, corpus):
        serial = EILSystem.build(corpus)
        parallel = EILSystem.build(corpus, workers=4)
        for form in (
            scope_query("End User Services"),
            service_keyword_query("Storage Management Services",
                                  "data replication"),
        ):
            left = serial.search(form, SALES)
            right = parallel.search(form, SALES)
            assert left.deal_ids == right.deal_ids
            assert left.plan == right.plan
            assert left.scoped == right.scoped

    def test_invalid_workers_rejected(self, corpus):
        with pytest.raises(ValueError):
            EILSystem.build(corpus, workers=0)


def _type_system():
    ts = TypeSystem()
    ts.define("t.Word", ["text"])
    return ts


class _RecordingEngine(AnalysisEngine):
    """Counts processed documents; fails or stalls on demand.

    ``processed`` is this process's list; the ``test.documents_seen``
    counter also adds up what worker processes did, because a shard's
    metrics ride back to the parent registry.
    """

    name = "recording"

    def __init__(self, fail_at=frozenset(), stall_at=frozenset(),
                 stall_seconds=0.0):
        self.fail_at = set(fail_at)
        self.stall_at = set(stall_at)
        self.stall_seconds = stall_seconds
        self.processed = []
        self._lock = threading.Lock()

    def process(self, cas: Cas) -> None:
        doc_id = cas.metadata["doc_id"]
        with self._lock:
            self.processed.append(doc_id)
        obs.get_registry().inc("test.documents_seen")
        if doc_id in self.stall_at and self.stall_seconds:
            import time
            time.sleep(self.stall_seconds)
        if doc_id in self.fail_at:
            raise AnnotatorError(f"hard failure at {doc_id}")


def _collection(ts, n):
    return [
        Cas(f"text {i:04d}", ts, {"doc_id": i, "deal_id": f"deal-{i % 3}"})
        for i in range(n)
    ]


class TestStreamingFailureParity:
    """``continue_on_error=False`` fails at the serial run's document,
    and the shard that holds it stops there instead of running on."""

    def test_shard_stops_at_serial_failure(self):
        ts = _type_system()
        serial_engine = _RecordingEngine(fail_at={5})
        with pytest.raises(AnnotatorError, match="at 5"):
            CollectionProcessingEngine(
                serial_engine, continue_on_error=False
            ).run(_collection(ts, 60))
        assert serial_engine.processed == list(range(6))

        with obs.use_registry(obs.MetricsRegistry()) as registry:
            with pytest.raises(AnnotatorError, match="at 5"):
                CollectionProcessingEngine(
                    _RecordingEngine(fail_at={5}), continue_on_error=False
                ).run(_collection(ts, 60), workers=2,
                      shard_key=lambda cas: cas.metadata["deal_id"])
        # Raising at document 5 needs all three deal shards merged, so
        # the count is exact: deal-2's shard (2, 5, 8, ...) stopped at 5,
        # the other two ran their 20 documents each.
        assert registry.counters["test.documents_seen"].value == 20 + 20 + 2

    def test_fatal_prepare_error_stops_submission(self):
        ts = _type_system()

        def prepare(item):
            obs.get_registry().inc("test.items_prepared")
            if item == 7:
                raise AnnotatorError("collection broken at 7")
            return Cas(f"text {item}", ts, {"doc_id": item,
                                            "deal_id": "d"})

        with obs.use_registry(obs.MetricsRegistry()) as registry:
            with pytest.raises(AnnotatorError, match="at 7"):
                CollectionProcessingEngine(_RecordingEngine()).run(
                    list(range(50)), prepare=prepare, workers=2,
                    shard_key=lambda item: item % 3,
                )
        # Shard 1 (1, 4, 7, ...) stopped at 7; shards 0 and 2 ran whole.
        assert registry.counters["test.items_prepared"].value == 17 + 3 + 16

    def test_processes_raise_at_same_document(self):
        ts = _type_system()
        with pytest.raises(AnnotatorError, match="at 5"):
            CollectionProcessingEngine(
                _RecordingEngine(fail_at={5}), continue_on_error=False
            ).run(_collection(ts, 30), workers=2, executor="processes",
                  shard_key=lambda cas: cas.metadata["deal_id"])


class TestElapsedAccounting:
    """Every outcome records its real elapsed time, so slow-then-failing
    documents stay visible under ``cpe.document_seconds.failed``."""

    STALL = 0.02

    def _run(self, engine, ts, n=6):
        with obs.use_registry(obs.MetricsRegistry()) as registry:
            CollectionProcessingEngine(engine).run(_collection(ts, n))
        return registry

    def test_failed_documents_record_elapsed(self):
        ts = _type_system()
        registry = self._run(_RecordingEngine(
            fail_at={2}, stall_at={2}, stall_seconds=self.STALL
        ), ts)
        histogram = registry.histograms["cpe.document_seconds.failed"]
        assert histogram.count == 1
        assert histogram.max >= self.STALL

    def test_transient_quarantine_records_elapsed(self):
        # Transients come from the substrates (prepare side), as in
        # the real pipeline where repository/crawler checks fire.
        ts = _type_system()
        stall = self.STALL

        def prepare(item):
            if item == 3:
                import time
                time.sleep(stall)
                raise TransientError("substrate blip at 3")
            return Cas(f"text {item}", ts, {"doc_id": item,
                                            "deal_id": "d"})

        with obs.use_registry(obs.MetricsRegistry()) as registry:
            CollectionProcessingEngine(_RecordingEngine()).run(
                list(range(6)), prepare=prepare
            )
        histogram = registry.histograms[
            "cpe.document_seconds.quarantined"
        ]
        assert histogram.count == 1
        assert histogram.max >= self.STALL

    def test_successes_keep_their_histogram(self):
        ts = _type_system()
        registry = self._run(_RecordingEngine(), ts)
        assert registry.histograms["cpe.document_seconds"].count == 6
        assert "cpe.document_seconds.failed" not in registry.histograms
