"""Equivalence tests: the sharded layout must rank bit-identically.

The whole point of :class:`~repro.serving.ShardedIndex` is that
partitioning is invisible to relevance: every (doc_id, score) pair —
including tie-breaks — must equal the unsharded engine's, at any shard
count, for every query shape, before and after mutations.
"""

import random

import pytest

from repro import CorpusConfig, CorpusGenerator, EILSystem, User
from repro.core.metaqueries import (
    role_capacity_query,
    scope_query,
    service_keyword_query,
    worked_with_query,
)
from repro.errors import InjectedFaultError, SearchError
from repro.faults import FaultInjector, FaultProfile, use_injector
from repro.obs import use_registry
from repro.search import IndexableDocument, SearchEngine
from repro.serving import ShardedIndex, shard_for
from tests.reference.index import DictOfDocs, assert_conforms

SALES = User("u", frozenset({"sales"}))

WORDS = [
    "storage", "network", "migration", "replication", "services",
    "desktop", "server", "cloud", "backup", "security", "transition",
    "helpdesk",
]

QUERIES = [
    "storage",
    "storage network",
    "storage OR backup OR cloud",
    "services NOT cloud",
    "(storage OR network) migration",
    "title:storage",
]


def _make_docs(n=24, deals=5):
    rng = random.Random(7)
    docs = []
    for i in range(n):
        docs.append(
            IndexableDocument(
                f"doc{i:02d}",
                {
                    "title": " ".join(
                        rng.choice(WORDS) for _ in range(3)
                    ),
                    "body": " ".join(
                        rng.choice(WORDS) for _ in range(30)
                    ),
                },
                {"deal_id": f"d{i % deals}", "doc_type": "scope"},
            )
        )
    return docs


def _sharded(shards):
    return SearchEngine(index=ShardedIndex(shards))


def _pairs(hits):
    return [(hit.doc_id, hit.score) for hit in hits]


def _assert_equivalent(reference, sharded, limit=None, scope=None):
    for query in QUERIES:
        assert _pairs(
            sharded.search(query, limit, scope)
        ) == _pairs(
            reference.search(query, limit, scope)
        ), query
        assert sharded.count(query, scope) == reference.count(
            query, scope
        ), query


class TestShardFor:
    def test_stable_and_in_range(self):
        for key in ("d1", "deal-xyz", 42):
            assert shard_for(key, 4) == shard_for(key, 4)
            assert 0 <= shard_for(key, 4) < 4

    def test_validates_shard_count(self):
        with pytest.raises(ValueError):
            shard_for("d1", 0)
        with pytest.raises(ValueError):
            ShardedIndex(shards=0)


class TestEngineEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 3, 5])
    def test_rankings_bit_identical(self, shards):
        docs = _make_docs()
        reference = SearchEngine()
        sharded = _sharded(shards)
        for document in docs:
            reference.add(document)
            sharded.add(document)
        _assert_equivalent(reference, sharded)
        for limit in (1, 3, 10, 100):
            _assert_equivalent(reference, sharded, limit=limit)

    def test_doc_filter_equivalence(self):
        docs = _make_docs()
        reference = SearchEngine()
        sharded = _sharded(3)
        for document in docs:
            reference.add(document)
            sharded.add(document)
        for deals in ({"d0", "d2"}, {"d1"}, {"ghost"}, set()):
            scope = ("deal_id", frozenset(deals))
            _assert_equivalent(reference, sharded, scope=scope)
            _assert_equivalent(reference, sharded, limit=3, scope=scope)

    def test_equivalence_survives_removals(self):
        docs = _make_docs()
        reference = SearchEngine()
        sharded = _sharded(3)
        for document in docs:
            reference.add(document)
            sharded.add(document)
        for doc in docs[::3]:
            reference.remove(doc.doc_id)
            sharded.remove(doc.doc_id)
            _assert_equivalent(reference, sharded, limit=5)

    def test_deal_documents_share_a_shard(self):
        sharded = _sharded(4)
        for document in _make_docs():
            sharded.add(document)
        owners = {}
        for position, part in enumerate(sharded.index.parts):
            for doc_id in part.doc_ids:
                deal = part.metadata_column("deal_id").values[doc_id]
                assert owners.setdefault(deal, position) == position
        assert len(set(owners.values())) > 1  # the corpus did spread

    def test_remove_unknown_doc_raises(self):
        sharded = _sharded(2)
        with pytest.raises(SearchError):
            sharded.remove("ghost")

    def test_an_id_is_indexed_once_whichever_shard_it_routes_to(self):
        sharded = _sharded(4)
        first, *rest = _make_docs()
        sharded.add(first)
        moved = next(
            doc for doc in rest
            if shard_for(doc.metadata["deal_id"], 4)
            != shard_for(first.metadata["deal_id"], 4)
        )
        with pytest.raises(SearchError):
            sharded.add(IndexableDocument(
                first.doc_id, moved.fields, moved.metadata
            ))
        assert len(sharded) == 1


class TestOneLogicalQuery:
    """A query is one fault draw and one set of engine metrics, however
    many shards evaluate it."""

    @staticmethod
    def _engine(shards):
        engine = SearchEngine() if shards is None else _sharded(shards)
        for document in _make_docs(n=20):
            engine.add(document)
        return engine

    def test_index_faults_hit_the_same_queries_at_any_shard_count(self):
        def failing_positions(engine):
            injector = FaultInjector(FaultProfile.parse("index:0.2"), seed=7)
            failed = []
            with use_injector(injector):
                for position in range(200):
                    call = engine.count if position % 5 == 4 else engine.search
                    try:
                        call(QUERIES[position % len(QUERIES)])
                    except InjectedFaultError:
                        failed.append(position)
            return failed

        expected = failing_positions(self._engine(None))
        assert 20 <= len(expected) <= 60  # about a fifth of 200
        for shards in (1, 2, 4):
            assert failing_positions(self._engine(shards)) == expected

    def test_engine_metrics_match_the_unsharded_engine(self):
        def counters(engine):
            with use_registry() as registry:
                engine.search("storage OR backup", limit=3)  # miss
                engine.search("storage OR backup", limit=2)  # hit, sliced
                engine.count("storage OR backup")  # partial ranking: miss
                engine.search("storage network")  # miss
                engine.count("storage network")  # from the cached ranking
                return {
                    name: registry.counter(name).value
                    for name in (
                        "engine.searches",
                        "engine.counts",
                        "engine.cache.hits",
                        "engine.cache.misses",
                        "engine.cache.sliced",
                        "engine.counts_from_cache",
                    )
                }

        expected = counters(self._engine(None))
        assert expected["engine.searches"] == 3
        assert expected["engine.counts"] == 2
        for shards in (1, 2, 4):
            assert counters(self._engine(shards)) == expected, shards


class TestIndexView:
    @pytest.fixture
    def pair(self):
        docs = _make_docs()
        reference = SearchEngine()
        sharded = _sharded(3)
        for document in docs:
            reference.add(document)
            sharded.add(document)
        return reference, sharded

    def test_global_statistics_match(self, pair):
        """The view's answers are the conformance suite's business
        (``tests/search/test_index_reader.py`` builds its own sharded
        views); this file's corpus is one more input to it."""
        reference, sharded = pair
        assert_conforms(
            sharded.index,
            DictOfDocs(
                reference.index.document(doc_id)
                for doc_id in reference.index.doc_ids
            ),
        )

    def test_structure_walks_match(self, pair):
        reference, sharded = pair
        assert sharded.index.doc_ids == reference.index.doc_ids
        assert sharded.index.fields == sorted(reference.index.fields)
        assert sharded.index.docs_with_metadata(
            "deal_id", ["d1", "d2"]
        ) == reference.index.docs_with_metadata("deal_id", ["d1", "d2"])
        assert sharded.index.has_document("doc00")
        assert not sharded.index.has_document("ghost")
        doc = sharded.index.document("doc03")
        assert doc.doc_id == "doc03"

    def test_epoch_bumps_on_every_mutation(self, pair):
        _, sharded = pair
        before = sharded.epoch
        sharded.remove("doc00")
        assert sharded.epoch == before + 1


class TestSystemEquivalence:
    @pytest.fixture(scope="class")
    def world(self):
        corpus = CorpusGenerator(
            CorpusConfig(n_deals=4, docs_per_deal=14)
        ).generate()
        # shards=1 pinned explicitly: the baseline must stay unsharded
        # even when $REPRO_SHARDS defaults the rest of the suite.
        unsharded = EILSystem.build(corpus, shards=1)
        sharded = EILSystem.build(corpus, shards=3)
        return corpus, unsharded, sharded

    def _forms(self, corpus):
        member = corpus.deals[0].team[0]
        return [
            scope_query("End User Services"),
            worked_with_query(member.person.full_name),
            role_capacity_query("cross tower TSA"),
            service_keyword_query(
                "Storage Management Services", "data replication"
            ),
        ]

    def test_sharded_system_is_one_engine_over_shards(self, world):
        _, unsharded, sharded = world
        assert type(sharded.engine) is type(unsharded.engine) is SearchEngine
        assert isinstance(sharded.engine.index, ShardedIndex)
        assert len(sharded.engine.index.parts) == 3
        assert not isinstance(unsharded.engine.index, ShardedIndex)

    def test_form_queries_identical(self, world):
        corpus, unsharded, sharded = world
        for form in self._forms(corpus):
            left = unsharded.search(form, SALES)
            right = sharded.search(form, SALES)
            assert [a.deal_id for a in left.activities] == [
                a.deal_id for a in right.activities
            ]
            assert [a.score for a in left.activities] == [
                a.score for a in right.activities
            ]

    def test_keyword_search_identical(self, world):
        _, unsharded, sharded = world
        for query in ("end user services", "storage migration",
                      "replication"):
            assert _pairs(
                sharded.keyword_search(query, limit=10)
            ) == _pairs(unsharded.keyword_search(query, limit=10))

    def test_offboard_then_identical(self, world):
        corpus, _, _ = world
        # Fresh systems: this test mutates, the class fixture is shared.
        unsharded = EILSystem.build(corpus, shards=1)
        sharded = EILSystem.build(corpus, shards=3)
        victim = sorted(unsharded.deal_ids())[0]
        removed_left = unsharded.remove_deal(victim)
        removed_right = sharded.remove_deal(victim)
        assert removed_left == removed_right
        for query in ("end user services", "storage migration"):
            assert _pairs(
                sharded.keyword_search(query, limit=10)
            ) == _pairs(unsharded.keyword_search(query, limit=10))
        for form in self._forms(corpus):
            assert [
                a.deal_id
                for a in unsharded.search(form, SALES).activities
            ] == [
                a.deal_id
                for a in sharded.search(form, SALES).activities
            ]
