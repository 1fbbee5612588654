"""Integration tests for incremental deal onboarding/offboarding."""

import pytest

from repro import CorpusConfig, CorpusGenerator, EILSystem, User
from repro.core import scope_query
from repro.corpus import DealGenerator, WorkbookFactory

SALES = User("u", frozenset({"sales"}))


@pytest.fixture
def world():
    corpus = CorpusGenerator(
        CorpusConfig(n_deals=4, docs_per_deal=16)
    ).generate()
    eil = EILSystem.build(corpus)
    # A fifth deal, generated consistently with the same taxonomy.
    generator = DealGenerator(seed=999, taxonomy=corpus.taxonomy)
    new_deal = generator.generate(5)[4]
    workbook = WorkbookFactory(corpus.taxonomy, seed=999).build_workbook(
        new_deal, 16
    )
    return corpus, eil, new_deal, workbook


class TestAddWorkbook:
    def test_new_deal_becomes_searchable(self, world):
        corpus, eil, new_deal, workbook = world
        before_docs = len(eil.engine)
        eil.add_workbook(workbook)
        assert len(eil.engine) == before_docs + len(workbook)
        assert new_deal.deal_id in eil.deal_ids()
        synopsis = eil.synopsis(new_deal.deal_id, SALES)
        assert synopsis.name == new_deal.name
        assert synopsis.contacts()

    def test_new_deal_appears_in_concept_search(self, world):
        corpus, eil, new_deal, workbook = world
        eil.add_workbook(workbook)
        # Pick a service truly in the new deal's scope.
        service = new_deal.towers[0]
        results = eil.search(scope_query(service), SALES)
        assert new_deal.deal_id in results.deal_ids

    def test_existing_deals_untouched(self, world):
        corpus, eil, _, workbook = world
        before = {
            deal_id: eil.synopsis(deal_id, SALES).towers
            for deal_id in eil.deal_ids()
        }
        eil.add_workbook(workbook)
        for deal_id, towers in before.items():
            assert eil.synopsis(deal_id, SALES).towers == towers

    def test_build_report_updated(self, world):
        corpus, eil, _, workbook = world
        deals_before = eil.build_report.deals_populated
        eil.add_workbook(workbook)
        assert eil.build_report.deals_populated == deals_before + 1

    def test_add_before_build_rejected(self, world):
        corpus, _, _, workbook = world
        fresh = EILSystem(corpus.taxonomy, corpus.collection)
        with pytest.raises(RuntimeError):
            fresh.add_workbook(workbook)


class TestRemoveDeal:
    def test_removal_clears_index_and_synopsis(self, world):
        corpus, eil, _, _ = world
        victim = corpus.deals[0].deal_id
        victim_docs = eil.engine.docs_with_metadata("deal_id", [victim])
        removed = eil.remove_deal(victim)
        assert removed == len(victim_docs) > 0
        assert victim not in eil.deal_ids()
        assert all(
            h.doc_id not in victim_docs
            for h in eil.keyword_search("services")
        )

    def test_removed_deal_absent_from_search(self, world):
        corpus, eil, _, _ = world
        victim = corpus.deals[0]
        eil.remove_deal(victim.deal_id)
        for service in victim.towers[:2]:
            results = eil.search(scope_query(service), SALES)
            assert victim.deal_id not in results.deal_ids

    def test_roundtrip_add_after_remove(self, world):
        corpus, eil, new_deal, workbook = world
        eil.add_workbook(workbook)
        eil.remove_deal(new_deal.deal_id)
        assert new_deal.deal_id not in eil.deal_ids()

    def test_remove_unknown_deal_is_noop(self, world):
        _, eil, _, _ = world
        assert eil.remove_deal("ghost") == 0

    def test_remove_updates_build_report(self, world):
        """Regression: offboarding must not let stats drift."""
        corpus, eil, _, _ = world
        victim = corpus.deals[0].deal_id
        docs_before = eil.build_report.documents_indexed
        deals_before = eil.build_report.deals_populated
        removed = eil.remove_deal(victim)
        assert removed > 0
        assert eil.build_report.documents_indexed == docs_before - removed
        assert eil.build_report.deals_populated == deals_before - 1

    def test_remove_updates_gauge(self, world):
        from repro import obs

        corpus, eil, _, _ = world
        with obs.use_registry() as registry:
            eil.remove_deal(corpus.deals[0].deal_id)
            assert (registry.gauges["eil.deals_populated"].value
                    == eil.build_report.deals_populated)

    def test_remove_unknown_deal_keeps_stats(self, world):
        _, eil, _, _ = world
        deals_before = eil.build_report.deals_populated
        docs_before = eil.build_report.documents_indexed
        eil.remove_deal("ghost")
        assert eil.build_report.deals_populated == deals_before
        assert eil.build_report.documents_indexed == docs_before


def _synopsis_row_counts(eil, deal_id):
    counts = {}
    for table in ("deals", "deal_scopes", "contacts", "win_strategies",
                  "technologies", "client_references"):
        rows = eil.organized.db.execute(
            f"SELECT * FROM {table} WHERE deal_id = ?", [deal_id]
        ).to_dicts()
        counts[table] = len(rows)
    return counts


class TestIdempotentOnboarding:
    def test_double_add_does_not_duplicate(self, world):
        """Regression: re-onboarding must upsert, not append."""
        corpus, eil, new_deal, workbook = world
        eil.add_workbook(workbook)
        docs_after_first = len(eil.engine)
        rows_after_first = _synopsis_row_counts(eil, new_deal.deal_id)
        report_after_first = (
            eil.build_report.documents_indexed,
            eil.build_report.deals_populated,
        )
        eil.add_workbook(workbook)
        assert len(eil.engine) == docs_after_first
        assert _synopsis_row_counts(eil, new_deal.deal_id) == rows_after_first
        assert (eil.build_report.documents_indexed,
                eil.build_report.deals_populated) == report_after_first

    def test_re_add_existing_corpus_deal(self, world):
        """Onboarding a deal already present in the collection upserts."""
        corpus, eil, _, _ = world
        deal_id = corpus.deals[0].deal_id
        workbook = next(w for w in corpus.collection if w.deal_id == deal_id)
        docs_before = len(eil.engine)
        rows_before = _synopsis_row_counts(eil, deal_id)
        deals_before = eil.build_report.deals_populated
        eil.add_workbook(workbook)
        assert len(eil.engine) == docs_before
        assert _synopsis_row_counts(eil, deal_id) == rows_before
        assert eil.build_report.deals_populated == deals_before

    def test_add_after_remove_leaves_single_copy(self, world):
        corpus, eil, new_deal, workbook = world
        eil.add_workbook(workbook)
        eil.remove_deal(new_deal.deal_id)
        # The workbook is still in the collection (system of record);
        # re-adding it must come back as exactly one copy.
        eil.add_workbook(workbook)
        rows = _synopsis_row_counts(eil, new_deal.deal_id)
        assert rows["deals"] == 1
        indexed = [
            doc_id for doc_id in eil.engine.index.doc_ids
            if (eil.engine.index.document(doc_id).metadata.get("deal_id")
                == new_deal.deal_id)
        ]
        assert len(indexed) == len(workbook)


class TestOneHoldOffboarding:
    """A deal leaves the index in one write-side hold of the engine."""

    def test_each_remove_deal_moves_the_epoch_by_one(self):
        corpus = CorpusGenerator(
            CorpusConfig(n_deals=4, docs_per_deal=12)
        ).generate()
        eil = EILSystem.build(corpus)
        for deal in corpus.deals:
            before = eil.engine.epoch
            assert eil.remove_deal(deal.deal_id) > 0
            assert eil.engine.epoch == before + 1
        assert len(eil.engine) == 0

    def test_a_reader_sees_the_whole_deal_or_none_of_it(self, world):
        import threading
        import time

        corpus, eil, _, _ = world
        victim = corpus.deals[0].deal_id
        engine, index = eil.engine, eil.engine.index
        whole = len(engine.docs_with_metadata("deal_id", [victim]))
        assert whole > 1
        remove_from_index, remove_from_engine = index.remove, engine.remove

        def slow_index_remove(doc_id):
            # Inside the write hold: the reader waits on the lock.
            time.sleep(0.002)
            return remove_from_index(doc_id)

        def slow_engine_remove(*doc_ids):
            # After the hold: the reader runs before any later removal.
            remove_from_engine(*doc_ids)
            time.sleep(0.002)

        index.remove = slow_index_remove
        engine.remove = slow_engine_remove
        seen = []
        done = threading.Event()

        def reader():
            while not done.is_set():
                seen.append(len(
                    engine.docs_with_metadata("deal_id", [victim])
                ))
                time.sleep(0.0005)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            time.sleep(0.01)
            eil.remove_deal(victim)
            time.sleep(0.01)
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert set(seen) <= {whole, 0}, sorted(set(seen))
        assert seen[0] == whole and seen[-1] == 0
