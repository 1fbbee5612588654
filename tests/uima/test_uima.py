"""Unit tests for the annotation framework: types, CAS, engines, CPE."""

import pickle

import pytest

from repro.errors import AnnotatorError, TypeSystemError
from repro.uima import (
    AggregateAnalysisEngine,
    AnalysisEngine,
    Cas,
    CasConsumer,
    CollectionProcessingEngine,
    TypeSystem,
)


@pytest.fixture
def ts():
    type_system = TypeSystem()
    type_system.define("eil.Entity", ["normalized"])
    type_system.define("eil.Person", ["name", "email"], supertype="eil.Entity")
    type_system.define("eil.Org", ["name"], supertype="eil.Entity")
    return type_system


class TestTypeSystem:
    def test_define_and_get(self, ts):
        assert ts.get("eil.Person").supertype == "eil.Entity"
        assert "eil.Person" in ts
        assert "nope" not in ts

    def test_duplicate_definition_rejected(self, ts):
        with pytest.raises(TypeSystemError):
            ts.define("eil.Person")

    def test_unknown_supertype_rejected(self, ts):
        with pytest.raises(TypeSystemError):
            ts.define("eil.X", supertype="ghost")

    def test_feature_inheritance(self, ts):
        assert ts.all_features("eil.Person") == {"normalized", "name", "email"}

    def test_subtype_queries(self, ts):
        assert ts.is_subtype("eil.Person", "eil.Entity")
        assert not ts.is_subtype("eil.Entity", "eil.Person")
        assert ts.subtypes_of("eil.Entity") == {
            "eil.Entity", "eil.Person", "eil.Org"
        }

    def test_empty_name_rejected(self):
        with pytest.raises(TypeSystemError):
            TypeSystem().define("")


class TestTypeClosureCaches:
    """``subtypes_of`` and ``all_features`` answer from per-name caches
    that ``define`` drops."""

    def test_define_after_queries_is_visible(self, ts):
        assert ts.subtypes_of("eil.Entity") == {
            "eil.Entity", "eil.Person", "eil.Org"
        }
        assert ts.subtypes_of("eil.Person") == {"eil.Person"}
        assert ts.all_features("eil.Person") == {"normalized", "name", "email"}
        ts.define("eil.Employee", ["badge"], supertype="eil.Person")
        assert ts.subtypes_of("eil.Entity") == {
            "eil.Entity", "eil.Person", "eil.Org", "eil.Employee"
        }
        assert ts.subtypes_of("eil.Person") == {"eil.Person", "eil.Employee"}
        assert ts.all_features("eil.Employee") == {
            "normalized", "name", "email", "badge"
        }
        assert ts.all_features("eil.Person") == {"normalized", "name", "email"}

    def test_define_after_select_and_annotate_is_visible(self, ts):
        cas = Cas("Sam White of ABC", ts)
        cas.annotate("eil.Person", 0, 9, name="Sam White")
        assert len(cas.select("eil.Entity")) == 1
        ts.define("eil.Employee", ["badge"], supertype="eil.Person")
        cas.annotate("eil.Employee", 0, 9, name="Sam White", badge="7")
        assert [a.type_name for a in cas.select("eil.Entity")] == [
            "eil.Person", "eil.Employee"
        ]
        assert [a.type_name for a in cas.select("eil.Person")] == [
            "eil.Person", "eil.Employee"
        ]
        with pytest.raises(TypeSystemError):
            cas.annotate("eil.Person", 0, 9, badge="7")

    def test_mutating_an_answer_changes_no_later_answer(self, ts):
        first = ts.subtypes_of("eil.Entity")
        first.clear()
        first.add("ghost")
        assert ts.subtypes_of("eil.Entity") == {
            "eil.Entity", "eil.Person", "eil.Org"
        }
        cas = Cas("Sam White", ts)
        cas.annotate("eil.Org", 0, 3, name="Sam")
        assert len(cas.select("eil.Entity")) == 1
        with pytest.raises(AttributeError):
            ts.all_features("eil.Person").add("ghost")

    def test_unknown_names_still_raise(self, ts):
        for _ in range(2):  # a failed lookup caches nothing
            with pytest.raises(TypeSystemError):
                ts.subtypes_of("ghost")
            with pytest.raises(TypeSystemError):
                ts.all_features("ghost")
        ts.define("ghost")
        assert ts.subtypes_of("ghost") == {"ghost"}
        assert ts.all_features("ghost") == frozenset()

    def test_pickled_type_system_keeps_answering(self, ts):
        ts.subtypes_of("eil.Entity")
        clone = pickle.loads(pickle.dumps(ts))
        clone.define("eil.Employee", supertype="eil.Person")
        assert "eil.Employee" in clone.subtypes_of("eil.Entity")
        assert "eil.Employee" not in ts.subtypes_of("eil.Entity")


class TestCas:
    def test_annotate_and_covered_text(self, ts):
        cas = Cas("Sam White is the CSE", ts)
        annotation = cas.annotate("eil.Person", 0, 9, name="Sam White")
        assert cas.covered_text(annotation) == "Sam White"
        assert annotation["name"] == "Sam White"
        assert annotation.get("email") is None

    def test_unknown_feature_rejected(self, ts):
        cas = Cas("text", ts)
        with pytest.raises(TypeSystemError, match="phone"):
            cas.annotate("eil.Person", 0, 2, phone="x")

    def test_inherited_feature_allowed(self, ts):
        cas = Cas("text", ts)
        cas.annotate("eil.Person", 0, 2, normalized="t")

    def test_unknown_type_rejected(self, ts):
        with pytest.raises(TypeSystemError):
            Cas("text", ts).annotate("eil.Ghost", 0, 1)

    def test_span_bounds_checked(self, ts):
        cas = Cas("abc", ts)
        with pytest.raises(ValueError):
            cas.annotate("eil.Person", 0, 10)
        with pytest.raises(ValueError):
            cas.annotate("eil.Person", 2, 1)

    def test_select_polymorphic_and_ordered(self, ts):
        cas = Cas("Sam White at ACME", ts)
        cas.annotate("eil.Org", 13, 17, name="ACME")
        cas.annotate("eil.Person", 0, 9, name="Sam White")
        entities = cas.select("eil.Entity")
        assert [a.type_name for a in entities] == ["eil.Person", "eil.Org"]
        assert len(cas.select("eil.Org")) == 1
        assert len(cas.select()) == 2

    def test_document_level_annotation(self, ts):
        cas = Cas("abc", ts)
        cas.annotate("eil.Org", name="whole-doc")
        assert cas.select("eil.Org")[0].begin == 0

    def test_metadata(self, ts):
        cas = Cas("abc", ts, metadata={"deal_id": "d1"})
        assert cas.metadata["deal_id"] == "d1"


class UppercaseOrgAnnotator(AnalysisEngine):
    """Marks every ALLCAPS word of length >= 3 as an Org."""

    name = "orgs"

    def initialize_types(self, type_system):
        if "eil.Entity" not in type_system:
            type_system.define("eil.Entity", ["normalized"])
        if "eil.Org" not in type_system:
            type_system.define("eil.Org", ["name"], supertype="eil.Entity")

    def process(self, cas):
        import re

        for match in re.finditer(r"\b[A-Z]{3,}\b", cas.text):
            cas.annotate("eil.Org", match.start(), match.end(),
                         name=match.group(0))


class ExplodingAnnotator(AnalysisEngine):
    name = "boom"

    def process(self, cas):
        raise RuntimeError("kaboom")


class TestEngines:
    def test_run_counts_annotations(self, ts):
        cas = Cas("ACME and IBM", ts)
        result = UppercaseOrgAnnotator().run(cas)
        assert result.annotations_added == 2

    def test_errors_wrapped_with_engine_name(self, ts):
        with pytest.raises(AnnotatorError, match="boom"):
            ExplodingAnnotator().run(Cas("x", ts))

    def test_aggregate_runs_in_order(self, ts):
        order = []

        class Probe(AnalysisEngine):
            def __init__(self, label):
                self.name = label

            def process(self, cas):
                order.append(self.name)

        aggregate = AggregateAnalysisEngine("agg", [Probe("a"), Probe("b")])
        aggregate.run(Cas("x", ts))
        assert order == ["a", "b"]

    def test_aggregate_flow_predicate(self, ts):
        aggregate = AggregateAnalysisEngine(
            "agg",
            [(UppercaseOrgAnnotator(), lambda cas: "ACME" in cas.text)],
        )
        cas_hit = Cas("ACME corp", ts)
        cas_miss = Cas("no orgs here", ts)
        aggregate.run(cas_hit)
        aggregate.run(cas_miss)
        assert len(cas_hit.select("eil.Org")) == 1
        assert len(cas_miss.select("eil.Org")) == 0

    def test_aggregate_validates_delegates(self):
        with pytest.raises(AnnotatorError):
            AggregateAnalysisEngine("agg", [])
        with pytest.raises(AnnotatorError):
            AggregateAnalysisEngine("agg", ["not-an-engine"])

    def test_initialize_types_cascades(self):
        type_system = TypeSystem()
        aggregate = AggregateAnalysisEngine("agg", [UppercaseOrgAnnotator()])
        aggregate.initialize_types(type_system)
        assert "eil.Org" in type_system


class CountingConsumer(CasConsumer):
    name = "counter"

    def __init__(self):
        self.org_names = []

    def process_cas(self, cas):
        self.org_names.extend(
            a["name"] for a in cas.select("eil.Org")
        )

    def collection_process_complete(self):
        return sorted(set(self.org_names))


class TestCpe:
    def make_collection(self, ts, texts):
        return [Cas(text, ts) for text in texts]

    def test_cpe_runs_engine_and_consumers(self, ts):
        consumer = CountingConsumer()
        cpe = CollectionProcessingEngine(
            UppercaseOrgAnnotator(), [consumer]
        )
        report = cpe.run(self.make_collection(ts, ["ACME here", "IBM there",
                                                   "ACME again"]))
        assert report.documents_processed == 3
        assert report.consumer_results["counter"] == ["ACME", "IBM"]

    def test_cpe_continues_on_error(self, ts):
        cpe = CollectionProcessingEngine(
            AggregateAnalysisEngine(
                "agg", [(ExplodingAnnotator(),
                         lambda cas: "bad" in cas.text)]
            ),
        )
        report = cpe.run(self.make_collection(ts, ["good", "bad doc", "good"]))
        # Aggregate wraps the delegate failure; the CPE records it.
        assert report.documents_processed == 2
        assert report.documents_failed == 1
        assert report.failures

    def test_cpe_strict_mode_raises(self, ts):
        cpe = CollectionProcessingEngine(
            ExplodingAnnotator(), continue_on_error=False
        )
        with pytest.raises(AnnotatorError):
            cpe.run(self.make_collection(ts, ["x"]))

    def test_invalid_worker_counts_rejected(self, ts):
        with pytest.raises(ValueError):
            CollectionProcessingEngine(UppercaseOrgAnnotator(), workers=0)
        cpe = CollectionProcessingEngine(UppercaseOrgAnnotator())
        with pytest.raises(ValueError):
            cpe.run(self.make_collection(ts, ["ACME"]), workers=0)

    def test_failures_carry_document_identity(self, ts):
        """Failure strings name the doc, deal, and originating error."""
        cpe = CollectionProcessingEngine(
            AggregateAnalysisEngine(
                "agg", [(ExplodingAnnotator(),
                         lambda cas: "bad" in cas.text)]
            ),
        )
        collection = [
            Cas("fine", ts,
                metadata={"doc_id": "d-1", "deal_id": "deal-9"}),
            Cas("bad doc", ts,
                metadata={"doc_id": "d-2", "deal_id": "deal-9"}),
        ]
        report = cpe.run(collection)
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert "d-2" in failure
        assert "deal-9" in failure
        # The wrapped original exception type, not just AnnotatorError.
        assert "RuntimeError" in failure

    def test_failures_without_metadata_still_recorded(self, ts):
        cpe = CollectionProcessingEngine(ExplodingAnnotator())
        report = cpe.run(self.make_collection(ts, ["x"]))
        assert report.documents_failed == 1
        assert "<unknown>" in report.failures[0]

    def test_parallel_run_matches_serial(self, ts):
        texts = [f"ACME {i} IBM" for i in range(12)] + ["lowercase only"]
        serial_consumer = CountingConsumer()
        serial = CollectionProcessingEngine(
            UppercaseOrgAnnotator(), [serial_consumer]
        ).run(self.make_collection(ts, texts))
        parallel_consumer = CountingConsumer()
        parallel = CollectionProcessingEngine(
            UppercaseOrgAnnotator(), [parallel_consumer], workers=4
        ).run(self.make_collection(ts, texts))
        assert parallel.documents_processed == serial.documents_processed
        assert parallel.consumer_results == serial.consumer_results
        # Consumers saw the CASes in the original document order.
        assert parallel_consumer.org_names == serial_consumer.org_names

    def test_parallel_run_records_attributable_failures(self, ts):
        cpe = CollectionProcessingEngine(
            AggregateAnalysisEngine(
                "agg", [(ExplodingAnnotator(),
                         lambda cas: "bad" in cas.text)]
            ),
            workers=3,
        )
        collection = [
            Cas(text, ts, metadata={"doc_id": f"d-{i}", "deal_id": "D"})
            for i, text in enumerate(["good", "bad one", "good", "bad two"])
        ]
        report = cpe.run(collection)
        assert report.documents_processed == 2
        assert report.documents_failed == 2
        assert any("d-1" in failure for failure in report.failures)
        assert any("d-3" in failure for failure in report.failures)

    def test_parallel_strict_mode_raises(self, ts):
        cpe = CollectionProcessingEngine(
            ExplodingAnnotator(), continue_on_error=False, workers=2
        )
        with pytest.raises(AnnotatorError):
            cpe.run(self.make_collection(ts, ["x", "y"]))

    def test_parallel_prepare_fans_out(self, ts):
        """prepare maps raw items to CASes inside the pool."""
        consumer = CountingConsumer()
        cpe = CollectionProcessingEngine(
            UppercaseOrgAnnotator(), [consumer], workers=2
        )
        report = cpe.run(
            ["ACME here", "IBM there"],
            prepare=lambda text: Cas(text, ts),
        )
        assert report.documents_processed == 2
        assert report.consumer_results["counter"] == ["ACME", "IBM"]
