"""Tests for the co-occurrence alternative (the paper's Section 3.2.1
alternative to structure-aware social annotation)."""

import pytest

from repro.annotators import CooccurrenceSocialAnnotator, register_eil_types
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
