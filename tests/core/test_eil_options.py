"""Tests for EILSystem configuration options and error paths."""

import inspect

import pytest

from repro import CorpusConfig, CorpusGenerator, EILSystem, User
from repro.core import scope_query
from repro.errors import ProgrammingError
from repro.faults import RetryPolicy
from repro.security import AccessController

SALES = User("u", frozenset({"sales"}))


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(
        CorpusConfig(n_deals=4, docs_per_deal=16)
    ).generate()


class TestBuildOptions:
    def test_search_before_build_rejected(self, corpus):
        system = EILSystem(corpus.taxonomy, corpus.collection)
        with pytest.raises(RuntimeError):
            system.search(scope_query("WAN"), SALES)

    def test_scope_threshold_tightens_extraction(self, corpus):
        lenient = EILSystem.build(corpus, scope_min_weight=2.0)
        strict = EILSystem.build(corpus, scope_min_weight=12.0)
        lenient_towers = sum(
            len(lenient.synopsis(d, SALES).towers)
            for d in lenient.deal_ids()
        )
        strict_towers = sum(
            len(strict.synopsis(d, SALES).towers)
            for d in strict.deal_ids()
        )
        assert strict_towers < lenient_towers

    def test_unknown_synopsis_rejected(self, corpus):
        system = EILSystem.build(corpus)
        with pytest.raises(ProgrammingError):
            system.synopsis("ghost-deal", SALES)

    def test_build_and_load_take_every_constructor_option(
        self, corpus, tmp_path
    ):
        # The constructor declares the options; build and load hand
        # them on, so each takes all of them, to the same effect.
        options = {
            "access": AccessController(),
            "scope_min_weight": 4.0,
            "workers": 1,
            "executor": "serial",
            "query_cache_size": 3,
            "engine_cache_size": 5,
            "deadline_seconds": None,
            "max_failure_ratio": 1.0,
            "retry": RetryPolicy(),
        }
        built = EILSystem.build(corpus, **options)
        built.save_index(str(tmp_path))
        loaded = EILSystem.load(str(tmp_path), corpus, **options)
        for system in (built, loaded):
            assert system._search._cache.max_entries == 3
            assert system.engine._cache.max_entries == 5
            assert system.engine.field_boosts == {"title": 2.0}
            assert (system.workers, system.executor) == (1, "serial")
        declared = inspect.signature(EILSystem.__init__).parameters
        assert set(options) == set(declared) - {
            "self", "taxonomy", "collection", "directory"
        }
