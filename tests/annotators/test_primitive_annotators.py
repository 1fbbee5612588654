"""Unit tests for the Table 1 primitive annotator types."""

import pytest

from repro.annotators import (
    NaiveBayesClassifier,
    OntologyServiceAnnotator,
    PersonHeuristicAnnotator,
    RegexAnnotator,
    RegexRule,
    build_contact_annotator,
    build_eil_pipeline,
    register_eil_types,
)
from repro.corpus import build_default_taxonomy
from repro.docmodel import DocumentParser, TextDocument
from repro.errors import AnnotatorError
from repro.uima import Cas, TypeSystem


def make_cas(text, metadata=None):
    ts = register_eil_types(TypeSystem())
    return Cas(text, ts, metadata=metadata or {})


class TestRegexAnnotator:
    def test_email_extraction_normalized(self):
        cas = make_cas("Contact <Sam.White@ABC.com> for details")
        build_contact_annotator().run(cas)
        emails = cas.select("eil.Email")
        assert len(emails) == 1
        assert emails[0]["address"] == "sam.white@abc.com"

    def test_phone_extraction_normalized(self):
        cas = make_cas("Call (914) 555-0143 or 914-555-0199.")
        build_contact_annotator().run(cas)
        numbers = {a["number"] for a in cas.select("eil.Phone")}
        assert numbers == {"+1-914-555-0143", "+1-914-555-0199"}

    def test_money_band(self):
        cas = make_cas("Total contract value: 50 to 100M, maybe over 100M")
        build_contact_annotator().run(cas)
        assert len(cas.select("eil.Money")) == 2

    def test_iso_date(self):
        cas = make_cas("Contract starts 2006-01-05.")
        build_contact_annotator().run(cas)
        assert cas.select("eil.Date")[0]["iso"] == "2006-01-05"

    def test_feature_factory_can_veto(self):
        import re

        rule = RegexRule("eil.Phone", re.compile(r"\d+"), lambda m: None)
        cas = make_cas("12345")
        RegexAnnotator([rule]).run(cas)
        assert len(cas) == 0

    def test_no_matches_no_annotations(self):
        cas = make_cas("nothing to see here")
        build_contact_annotator().run(cas)
        assert len(cas) == 0


class TestHeuristicsAnnotator:
    def test_role_colon_name(self):
        cas = make_cas("Lead TSA: Jane Doe")
        PersonHeuristicAnnotator().run(cas)
        person = cas.select("eil.Person")[0]
        assert person["name"] == "Jane Doe"
        assert person["role"] == "Technical Solution Architect"

    def test_name_is_the_role(self):
        cas = make_cas("Sam White is the CSE on this deal.")
        PersonHeuristicAnnotator().run(cas)
        person = cas.select("eil.Person")[0]
        assert person["name"] == "Sam White"
        assert person["role"] == "Client Solution Executive"

    def test_name_paren_role(self):
        cas = make_cas("Please ping Wei Chen (DPE) about the schedule.")
        PersonHeuristicAnnotator().run(cas)
        assert cas.select("eil.Person")[0]["role"] == (
            "Delivery Project Executive"
        )

    def test_does_not_cross_lines(self):
        # Empty field followed by the next label must not be a person.
        cas = make_cas("Lead TSA: \nDelivery Location: Onshore")
        PersonHeuristicAnnotator().run(cas)
        assert cas.select("eil.Person") == []

    def test_no_duplicate_annotations_for_same_span(self):
        cas = make_cas("Sam White is the CSE. Sam White (CSE).")
        PersonHeuristicAnnotator().run(cas)
        spans = [(a.begin, a.end) for a in cas.select("eil.Person")]
        assert len(spans) == len(set(spans))


class TestOntologyAnnotator:
    @pytest.fixture
    def annotator(self):
        return OntologyServiceAnnotator(build_default_taxonomy())

    def test_canonical_resolution(self, annotator):
        cas = make_cas("Customer Services Center is included in the scope")
        annotator.run(cas)
        service = cas.select("eil.Service")[0]
        assert service["canonical"] == "Customer Service Center"
        assert service["tower"] == "End User Services"

    def test_acronym_case_sensitive(self, annotator):
        cas = make_cas("The CSC team met; csc is not a service mention.")
        annotator.run(cas)
        services = cas.select("eil.Service")
        assert len(services) == 1
        assert services[0]["surface"] == "CSC"

    def test_longest_match_wins(self, annotator):
        cas = make_cas("Storage Management Services review")
        annotator.run(cas)
        services = cas.select("eil.Service")
        assert len(services) == 1
        assert services[0]["canonical"] == "Storage Management Services"

    def test_scope_context_weight(self, annotator):
        cas = make_cas(
            "Network Services is included in the services scope today"
        )
        annotator.run(cas)
        assert cas.select("eil.Service")[0]["weight"] == 3.0

    def test_passing_mention_weight(self, annotator):
        cas = make_cas("The client mentioned Network Services in passing")
        annotator.run(cas)
        assert cas.select("eil.Service")[0]["weight"] == 1.0

    def test_no_substring_false_positive(self, annotator):
        cas = make_cas("The LANDSCAPE document and WANDERING notes")
        annotator.run(cas)
        assert cas.select("eil.Service") == []


class TestNaiveBayes:
    def make_trained(self):
        classifier = NaiveBayesClassifier()
        classifier.train(
            [
                ("price to win aggressive credits", "strategy"),
                ("executive alignment win strategy pricing", "strategy"),
                ("offshore delivery mix cost case win", "strategy"),
                ("meeting minutes action items schedule", "other"),
                ("travel arrangements booking rooms", "other"),
                ("status report weekly call", "other"),
            ]
        )
        return classifier

    def test_predicts_trained_classes(self):
        classifier = self.make_trained()
        assert classifier.predict("win strategy is aggressive pricing") == (
            "strategy"
        )
        assert classifier.predict("weekly minutes and action items") == (
            "other"
        )

    def test_priors(self):
        classifier = self.make_trained()
        assert classifier.prior("strategy") == 0.5

    def test_untrained_raises(self):
        with pytest.raises(AnnotatorError):
            NaiveBayesClassifier().predict("anything")

    def test_incremental_training(self):
        classifier = self.make_trained()
        before = classifier.log_scores("novel vocabulary terms")
        classifier.train([("novel vocabulary terms", "other")])
        after = classifier.log_scores("novel vocabulary terms")
        # The new terms now count as evidence for the label they came in.
        assert after["other"] - after["strategy"] > (
            before["other"] - before["strategy"]
        )
        assert classifier.predict("novel vocabulary terms") == "other"

    def test_unseen_words_handled(self):
        classifier = self.make_trained()
        # Smoothing must keep unseen vocabulary from crashing or zeroing.
        assert classifier.predict("zzz qqq xxx") in ("strategy", "other")


class TestCompositePipeline:
    def test_pipeline_builds_and_runs(self):
        taxonomy = build_default_taxonomy()
        pipeline = build_eil_pipeline(taxonomy)
        ts = TypeSystem()
        pipeline.initialize_types(ts)
        parser = DocumentParser(ts)
        doc = TextDocument(
            doc_id="t", title="Notes", deal_id="d",
            sections=(("Notes",
                       "Sam White is the CSE. Scope covers Storage "
                       "Management Services with data replication. "
                       "Contact sam.white@abc.com."),),
        )
        cas = parser.to_cas(doc)
        pipeline.run(cas)
        assert cas.select("eil.Person")
        assert cas.select("eil.Service")
        assert cas.select("eil.Technology")
        assert cas.select("eil.Email")
