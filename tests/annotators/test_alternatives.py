"""Tests for the co-occurrence alternative and the learned candidate
selector (the paper's Section 3.2.1 alternative + future work)."""

import pytest

from repro.annotators import (
    CooccurrenceSocialAnnotator,
    LearnedCandidateSelector,
    register_eil_types,
)
from repro.annotators.social import candidate_document
from repro.corpus import CorpusConfig, CorpusGenerator
from repro.docmodel import DocumentParser, register_structure_types
from repro.errors import AnnotatorError
from repro.uima import Cas, TypeSystem


def make_cas(text, metadata=None):
    type_system = register_eil_types(TypeSystem())
    return Cas(text, type_system, metadata=metadata or {})


class TestCooccurrenceAnnotator:
    def test_links_nearby_email_and_role(self):
        cas = make_cas(
            "Please contact Sam White, CSE, at sam.white@abc.com today."
        )
        CooccurrenceSocialAnnotator().run(cas)
        people = cas.select("eil.Person")
        assert len(people) == 1
        assert people[0]["name"] == "Sam White"
        assert people[0]["email"] == "sam.white@abc.com"
        assert people[0]["role"] == "Client Solution Executive"

    def test_window_limits_linking(self):
        filler = "x " * 200
        cas = make_cas(f"Sam White. {filler} sam.white@abc.com")
        CooccurrenceSocialAnnotator(window=50).run(cas)
        person = cas.select("eil.Person")[0]
        assert person.get("email") is None

    def test_blob_approach_misattributes(self):
        # Two names, one email between them: co-occurrence links the
        # email to the nearer name even when it belongs to the other —
        # the precision failure mode structure-aware parsing avoids.
        cas = make_cas(
            "Jane Doe sam.white@abc.com Sam White"
        )
        CooccurrenceSocialAnnotator().run(cas)
        by_name = {p["name"]: p for p in cas.select("eil.Person")}
        assert set(by_name) == {"Jane Doe", "Sam White"}
        # Both got linked to the same email - one of them wrongly.
        assert by_name["Jane Doe"].get("email") == "sam.white@abc.com"

    def test_capitalized_noise_filtered(self):
        cas = make_cas("Standard Service catalog for Storage Management")
        CooccurrenceSocialAnnotator().run(cas)
        assert cas.select("eil.Person") == []

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            CooccurrenceSocialAnnotator(window=0)

    def test_no_names_no_output(self):
        cas = make_cas("no capitalized bigrams here at all")
        CooccurrenceSocialAnnotator().run(cas)
        assert len(cas) == 0


class TestLearnedCandidateSelector:
    @pytest.fixture(scope="class")
    def cases(self):
        corpus = CorpusGenerator(
            CorpusConfig(n_deals=4, docs_per_deal=20)
        ).generate()
        type_system = TypeSystem()
        register_structure_types(type_system)
        register_eil_types(type_system)
        parser = DocumentParser(type_system)
        return [
            parser.to_cas(document)
            for document in corpus.collection.all_documents()
        ]

    def test_untrained_raises(self, cases):
        with pytest.raises(AnnotatorError):
            LearnedCandidateSelector().is_candidate(cases[0])

    def test_empty_training_rejected(self):
        with pytest.raises(AnnotatorError):
            LearnedCandidateSelector().train([])

    def test_bootstrap_from_rule_agrees(self, cases):
        selector = LearnedCandidateSelector()
        half = len(cases) // 2
        count = selector.train_from_rule(cases[:half], candidate_document)
        assert count == half
        agreement = selector.agreement_with(cases[half:],
                                            candidate_document)
        assert agreement >= 0.85

    def test_predicate_usable_in_aggregate(self, cases):
        from repro.annotators import SocialNetworkingAnnotator
        from repro.uima import AggregateAnalysisEngine

        selector = LearnedCandidateSelector()
        selector.train_from_rule(cases, candidate_document)
        aggregate = AggregateAnalysisEngine(
            "social",
            [(SocialNetworkingAnnotator(), selector.predicate())],
        )
        cas = cases[0]
        before = len(cas)
        result = aggregate.run(cas)
        assert result.engine_name == "social"
        if not selector.is_candidate(cas):  # the delegate was skipped
            assert result.annotations_added == 0 and len(cas) == before

    def test_agreement_on_empty_is_one(self, cases):
        selector = LearnedCandidateSelector()
        selector.train_from_rule(cases, candidate_document)
        assert selector.agreement_with([], candidate_document) == 1.0
