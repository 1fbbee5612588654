"""Determinism suite for the ``processes`` executor.

Mirrors ``tests/core/test_parallel_build.py`` for true multi-core
builds: the CPE shards the corpus by deal across worker processes and
merges pickled per-document outcomes back in stable document order, so
``analyze(workers=N, executor="processes")`` must produce
:class:`AnalysisResults` (and the CPE a :class:`CpeReport`) identical
to the serial run at any worker count — including under an active
fault profile, whose keyed draws are re-seeded per worker process
rather than inherited via fork state.
"""

import pickle

import pytest

from repro import CorpusConfig, CorpusGenerator, EILSystem, User, cli, obs
from repro.annotators.base import register_eil_types
from repro.core import scope_query
from repro.core.analysis import InformationAnalysis
from repro.core.metaqueries import service_keyword_query
from repro.errors import AnnotatorError
from repro.faults import FaultInjector, FaultProfile, use_injector
from repro.uima.cas import Cas
from repro.uima.cpe import CasConsumer, CollectionProcessingEngine
from repro.uima.engine import AnalysisEngine
from repro.uima.typesystem import TypeSystem

SALES = User("u", frozenset({"sales"}))


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(
        CorpusConfig(n_deals=4, docs_per_deal=14)
    ).generate()


@pytest.fixture(scope="module")
def serial_results(corpus):
    return InformationAnalysis(
        corpus.taxonomy, corpus.directory
    ).analyze(corpus.collection)


class TestProcessAnalysisDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_processes_equal_serial(self, corpus, serial_results, workers):
        parallel = InformationAnalysis(
            corpus.taxonomy, corpus.directory
        ).analyze(corpus.collection, workers=workers,
                  executor="processes")
        assert parallel == serial_results
        # Identical down to the rendered form, not just field-wise.
        assert repr(parallel) == repr(serial_results)

    def test_workers_beyond_deal_count(self, corpus, serial_results):
        # Sharding is by deal; more workers than shards must not drop
        # or reorder output.
        parallel = InformationAnalysis(
            corpus.taxonomy, corpus.directory
        ).analyze(corpus.collection, workers=64, executor="processes")
        assert parallel == serial_results


class TestProcessDeterminismUnderFaults:
    PROFILE = FaultProfile.parse("analysis:error=0.3")

    def _analyze(self, corpus, workers, executor):
        with use_injector(FaultInjector(self.PROFILE, seed=7)):
            with obs.use_registry(obs.MetricsRegistry()) as registry:
                results = InformationAnalysis(
                    corpus.taxonomy, corpus.directory
                ).analyze(corpus.collection, workers=workers,
                          executor=executor)
        return results, registry

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_keyed_draws_identical_across_executors(self, corpus, workers):
        serial, serial_registry = self._analyze(corpus, 1, "serial")
        assert serial.documents_quarantined > 0  # the profile bites
        parallel, registry = self._analyze(corpus, workers, "processes")
        assert parallel == serial
        assert parallel.quarantined == serial.quarantined
        # Worker-side telemetry merges back into the parent registry:
        # the same number of faults fired, in worker processes or not.
        assert (registry.counters["faults.injected"].value
                == serial_registry.counters["faults.injected"].value)


class TestProcessSystemBuild:
    def test_process_build_matches_serial(self, corpus):
        serial = EILSystem.build(corpus)
        parallel = EILSystem.build(corpus, workers=4,
                                   executor="processes")
        assert parallel.build_report == serial.build_report
        assert parallel.analysis_results == serial.analysis_results

    def test_process_build_answers_identically(self, corpus):
        serial = EILSystem.build(corpus)
        parallel = EILSystem.build(corpus, workers=2,
                                   executor="processes")
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

    def test_invalid_executor_rejected(self, corpus):
        with pytest.raises(ValueError):
            EILSystem.build(corpus, workers=2, executor="fibers")

    def test_threads_executor_rejected(self, corpus, capsys):
        names_both = r"\('serial', 'processes'\), got 'threads'"
        with pytest.raises(ValueError, match=names_both):
            CollectionProcessingEngine(_FlakyEngine(), executor="threads")
        with pytest.raises(ValueError, match=names_both):
            CollectionProcessingEngine(_FlakyEngine()).run(
                [], executor="threads"
            )
        with pytest.raises(ValueError, match=names_both):
            EILSystem.build(corpus, executor="threads")
        with pytest.raises(SystemExit):
            cli.main(["--executor", "threads", "stats"])
        assert "choose from 'serial', 'processes'" in capsys.readouterr().err


class _CountingConsumer(CasConsumer):
    """Orders and counts the CASes it is fed."""

    name = "counting"

    def __init__(self):
        self.doc_ids = []

    def process_cas(self, cas: Cas) -> None:
        self.doc_ids.append(cas.metadata["doc_id"])

    def collection_process_complete(self):
        return list(self.doc_ids)


class _FlakyEngine(AnalysisEngine):
    """Deterministically fails every seventh document."""

    name = "flaky"

    def process(self, cas: Cas) -> None:
        doc_id = cas.metadata["doc_id"]
        cas.annotate("t.Word", 0, 4, text=f"w{doc_id}")
        if doc_id % 7 == 3:
            raise AnnotatorError(f"bad document {doc_id}")


def _type_system():
    ts = TypeSystem()
    ts.define("t.Word", ["text"])
    return ts


def _collection(ts, n):
    return [
        Cas(f"text {i:04d}", ts,
            {"doc_id": i, "deal_id": f"deal-{i % 5}"})
        for i in range(n)
    ]


class TestCpeReportEquality:
    """CpeReport — counts, failure lines, consumer order — is identical."""

    def _run(self, executor, workers):
        ts = _type_system()
        cpe = CollectionProcessingEngine(
            _FlakyEngine(), [_CountingConsumer()]
        )
        return cpe.run(
            _collection(ts, 30), workers=workers, executor=executor,
            shard_key=lambda cas: cas.metadata["deal_id"],
        )

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_report_identical_at_any_width(self, workers):
        serial = self._run("serial", 1)
        parallel = self._run("processes", workers)
        assert parallel == serial
        assert pickle.dumps(parallel) == pickle.dumps(serial)
        assert parallel.consumer_results["counting"] == sorted(
            parallel.consumer_results["counting"]
        )

    def test_failure_lines_attributable(self):
        report = self._run("processes", 3)
        assert report.documents_failed == 4  # docs 3, 10, 17, 24
        for line in report.failures:
            assert "AnnotatorError" in line and "deal" in line


class TestCasPickleRoundTrip:
    def test_round_trip_preserves_everything(self):
        ts = _type_system()
        cas = Cas("alpha beta gamma", ts, {"doc_id": "d1",
                                           "deal_id": "deal-1"})
        first = cas.annotate("t.Word", 0, 5, text="alpha")
        cas.annotate("t.Word", 6, 10, text="beta")
        clone = pickle.loads(pickle.dumps(cas))
        assert clone.text == cas.text
        assert clone.metadata == cas.metadata
        assert list(clone) == list(cas)
        assert clone.covered_text(list(clone)[0]) == "alpha"
        assert clone.type_system.all_features("t.Word") == {"text"}
        assert first in list(clone.select("t.Word"))

    def test_round_trip_keeps_assigning_unique_ids(self):
        ts = _type_system()
        cas = Cas("alpha beta", ts)
        cas.annotate("t.Word", 0, 5, text="alpha")
        clone = pickle.loads(pickle.dumps(cas))
        fresh = clone.annotate("t.Word", 6, 10, text="beta")
        ids = [a.annotation_id for a in clone]
        assert fresh.annotation_id not in ids[:-1]
        assert len(ids) == len(set(ids))

    def test_annotated_analysis_cas_round_trips(self, corpus):
        analysis = InformationAnalysis(corpus.taxonomy, corpus.directory)
        document = next(iter(corpus.collection)).documents()[0]
        cas = analysis._parse_one(document)
        analysis.pipeline.run(cas)
        clone = pickle.loads(pickle.dumps(cas))
        assert list(clone) == list(cas)
        assert clone.metadata == cas.metadata


class TestProcessModeRequirements:
    def test_register_types_importable(self):
        # Worker processes re-import the annotator modules under
        # spawn; the registration entry points must stay module-level.
        assert callable(register_eil_types)

    def test_environment_defaults(self, corpus, monkeypatch):
        # The worker count alone decides (one worker is a serial run);
        # the executor is left to the CPE's default either way.
        monkeypatch.setenv("REPRO_WORKERS", "2")
        system = EILSystem(corpus.taxonomy, corpus.collection,
                           corpus.directory)
        assert system.workers == 2
        assert system.executor is None
        assert CollectionProcessingEngine(_FlakyEngine()).executor == (
            "processes"
        )
        monkeypatch.delenv("REPRO_WORKERS")
        system = EILSystem(corpus.taxonomy, corpus.collection,
                           corpus.directory)
        assert system.workers == 1
        assert system.executor is None
