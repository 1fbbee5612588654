"""Unit tests for deal, workbook and thread generation."""

import pytest

from repro.corpus import (
    PAPER_THREAD_COUNTS,
    CorpusConfig,
    CorpusGenerator,
    DealGenerator,
    ThreadGenerator,
    WorkbookFactory,
    build_default_taxonomy,
    deal_name_for,
)
from repro.errors import CorpusError


class TestDealNames:
    def test_sequence(self):
        assert deal_name_for(0) == "DEAL A"
        assert deal_name_for(25) == "DEAL Z"
        assert deal_name_for(26) == "DEAL AA"
        assert deal_name_for(51) == "DEAL AZ"
        assert deal_name_for(52) == "DEAL BA"


class TestDealGenerator:
    def test_deterministic(self):
        first = DealGenerator(seed=42).generate(5)
        second = DealGenerator(seed=42).generate(5)
        assert first == second

    def test_different_seeds_differ(self):
        a = DealGenerator(seed=1).generate(5)
        b = DealGenerator(seed=2).generate(5)
        assert a != b

    def test_scope_includes_implied_parents(self):
        taxonomy = build_default_taxonomy()
        for deal in DealGenerator(seed=3).generate(20):
            for tower in deal.towers:
                parent = taxonomy.get(tower).parent
                if parent:
                    assert parent in deal.towers

    def test_incidental_disjoint_from_scope(self):
        for deal in DealGenerator(seed=3).generate(20):
            assert not set(deal.incidental_services) & set(deal.towers)

    def test_team_roles_unique_people(self):
        for deal in DealGenerator(seed=3).generate(10):
            emails = [m.person.email for m in deal.team]
            assert len(emails) == len(set(emails))

    def test_technologies_belong_to_scope(self):
        for deal in DealGenerator(seed=3).generate(10):
            scoped = set(deal.towers)
            assert all(tower in scoped for tower, _ in deal.technologies)

    def test_staff_pool_shared_across_deals(self):
        generator = DealGenerator(seed=3)
        deals = generator.generate(20)
        vendor_people = [
            m.person.email
            for deal in deals
            for m in deal.team
            if m.person.organization == "Vantage Global Services"
        ]
        # Some vendor people must repeat across deals (Meta-query 2).
        assert len(vendor_people) > len(set(vendor_people))

    def test_small_pool_rejected(self):
        with pytest.raises(CorpusError):
            DealGenerator(staff_pool_size=5)


class TestWorkbookFactory:
    def make(self, docs_target=20):
        taxonomy = build_default_taxonomy()
        deal = DealGenerator(seed=5, taxonomy=taxonomy).generate(1)[0]
        factory = WorkbookFactory(taxonomy, seed=5)
        return deal, factory.build_workbook(deal, docs_target)

    def test_docs_target_met(self):
        _, workbook = self.make(30)
        assert len(workbook) == 30

    def test_core_documents_present(self):
        _, workbook = self.make(20)
        types = {d.doc_type for d in workbook.documents()}
        assert {"presentation", "spreadsheet", "form", "text"} <= types

    def test_roster_contains_team(self):
        deal, workbook = self.make(20)
        roster = workbook.documents("spreadsheet")[0]
        rendered = "\n".join(
            "\t".join(row) for row in roster.sheets[0].rows
        )
        # Every team member appears in some form (normal or reversed).
        for member in deal.team:
            person = member.person
            assert (
                person.full_name in rendered
                or person.reversed_name in rendered
                or person.full_name.upper() in rendered
            )

    def test_forms_have_cross_tower_tsa_schema(self):
        _, workbook = self.make(20)
        forms = [
            d for d in workbook.documents("form")
            if d.form_name == "Service Delivery Record"
        ]
        assert forms
        assert all("Cross Tower TSA" in dict(form.fields) for form in forms)

    def test_minimum_enforced(self):
        taxonomy = build_default_taxonomy()
        deal = DealGenerator(seed=5, taxonomy=taxonomy).generate(1)[0]
        with pytest.raises(CorpusError):
            WorkbookFactory(taxonomy, seed=5).build_workbook(deal, 3)


class TestThreadGenerator:
    def make_threads(self, total=120):
        taxonomy = build_default_taxonomy()
        deals = DealGenerator(seed=7, taxonomy=taxonomy).generate(4)
        return ThreadGenerator(taxonomy, deals, seed=7).generate(total)

    def test_exact_paper_counts_at_120(self):
        threads = self.make_threads(120)
        counts = {}
        for thread in threads:
            for meta_query in thread.true_types:
                counts[meta_query] = counts.get(meta_query, 0) + 1
        assert counts == PAPER_THREAD_COUNTS

    def test_social_is_mq2_union_mq3(self):
        threads = self.make_threads(120)
        social = sum(1 for t in threads if t.asks_social)
        assert social == 63
        for thread in threads:
            assert thread.asks_social == bool(
                thread.true_types & {"mq2", "mq3"}
            )

    def test_scaling_to_other_sizes(self):
        threads = self.make_threads(60)
        assert len(threads) == 60

    def test_threads_have_messages(self):
        for thread in self.make_threads(20):
            assert thread.messages
            assert thread.messages[0].subject.endswith("?")

    def test_needs_deals(self):
        with pytest.raises(CorpusError):
            ThreadGenerator(build_default_taxonomy(), [], seed=1)


class TestCorpusGenerator:
    def test_full_generation_consistent(self):
        corpus = CorpusGenerator(
            CorpusConfig(n_deals=3, docs_per_deal=15, n_threads=24)
        ).generate()
        assert len(corpus.deals) == 3
        assert corpus.document_count == 45
        assert len(corpus.threads) == 24
        assert len(corpus.directory) > 0

    def test_directory_covers_team_members(self):
        corpus = CorpusGenerator(
            CorpusConfig(n_deals=3, docs_per_deal=15)
        ).generate()
        for deal in corpus.deals:
            for member in deal.team:
                assert corpus.directory.lookup_email(
                    member.person.email
                ) is not None

    def test_deal_lookup_helpers(self):
        corpus = CorpusGenerator(
            CorpusConfig(n_deals=3, docs_per_deal=15)
        ).generate()
        deal = corpus.deals[1]
        assert corpus.deal_by_id(deal.deal_id) == deal
        with pytest.raises(CorpusError):
            corpus.deal_by_id("nope")

    def test_deals_with_service_matches_has_service(self):
        corpus = CorpusGenerator(
            CorpusConfig(n_deals=5, docs_per_deal=15)
        ).generate()
        via_helper = {
            d.deal_id for d in corpus.deals_with_service("End User Services")
        }
        direct = {
            d.deal_id
            for d in corpus.deals
            if d.has_service(corpus.taxonomy, "End User Services")
        }
        assert via_helper == direct

    def test_config_validation(self):
        with pytest.raises(CorpusError):
            CorpusConfig(n_deals=0)
        with pytest.raises(CorpusError):
            CorpusConfig(docs_per_deal=2)

    def test_paper_scale_configuration(self):
        config = CorpusConfig.paper_scale()
        assert config.n_deals == 23
        # ~15,000 documents as in Section 4.
        assert 14500 <= config.n_deals * config.docs_per_deal <= 15500

    def test_streaming_matches_full_generation(self):
        """iter_workbooks() yields exactly generate().collection."""
        config = CorpusConfig(n_deals=4, docs_per_deal=14)
        full = list(CorpusGenerator(config).generate().collection)
        streamed = list(CorpusGenerator(config).iter_workbooks())
        assert len(streamed) == len(full)
        for built, lazy in zip(full, streamed):
            assert lazy.deal_id == built.deal_id
            assert lazy.name == built.name
            full_docs = list(built.documents())
            lazy_docs = list(lazy.documents())
            assert len(lazy_docs) == len(full_docs)
            for a, b in zip(full_docs, lazy_docs):
                assert (a.doc_id, a.title) == (b.doc_id, b.title)
                assert type(a) is type(b)
                assert a.__dict__ == b.__dict__

    def test_streaming_is_lazy(self):
        """The generator yields without building the whole corpus."""
        iterator = CorpusGenerator(
            CorpusConfig(n_deals=50, docs_per_deal=12)
        ).iter_workbooks()
        first = next(iterator)
        assert first.deal_id
        iterator.close()
