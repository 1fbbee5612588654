"""The operation lists are pure, distinct where a miss is meant, and fit
the caches where a hit is meant."""

import inspect

import pytest

from repro.core.eil import EILSystem

from benchmarks.harness import workloads
from benchmarks.harness.corpora import BENCH, SMOKE, build_corpus

SCALE = BENCH
_DEFAULTS = inspect.signature(EILSystem.__init__).parameters
QUERY_CACHE = _DEFAULTS["query_cache_size"].default
ENGINE_CACHE = _DEFAULTS["engine_cache_size"].default

GENERATORS = (workloads.form_cold, workloads.form_hot, workloads.analytics,
              workloads.reader_forms)


@pytest.fixture(scope="module")
def deep():
    return build_corpus(SCALE.deep)


@pytest.fixture(scope="module")
def wide():
    return build_corpus(SCALE.wide)


def _corpus_for(generator, deep, wide):
    return wide if generator is workloads.analytics else deep


@pytest.mark.parametrize("generator", GENERATORS)
def test_same_seed_same_bytes(generator, deep, wide):
    corpus = _corpus_for(generator, deep, wide)
    first = workloads.encode(generator(7, corpus, SCALE))
    again = workloads.encode(generator(7, corpus, SCALE))
    assert first == again


@pytest.mark.parametrize("generator", GENERATORS)
def test_other_seed_other_list(generator, deep, wide):
    corpus = _corpus_for(generator, deep, wide)
    assert workloads.encode(generator(7, corpus, SCALE)) != \
        workloads.encode(generator(8, corpus, SCALE))


@pytest.mark.parametrize("generator", (workloads.form_cold,
                                       workloads.analytics,
                                       workloads.reader_forms))
def test_the_seed_only_decides_where_the_cycle_starts(generator, deep, wide):
    """Same operations, same neighbours, whatever the seed: what an
    operation finds in the program's LRU caches does not depend on it."""
    corpus = _corpus_for(generator, deep, wide)
    first = generator(7, corpus, SCALE)
    other = generator(8, corpus, SCALE)
    start = other.index(first[0])
    assert start and other[start:] + other[:start] == first


def test_corpus_is_a_constant():
    """--seed chooses operations, never documents."""
    first = build_corpus(SCALE.deep)
    again = build_corpus(SCALE.deep)
    assert [d.doc_id for d in first.collection.all_documents()] == \
        [d.doc_id for d in again.collection.all_documents()]
    assert first.deals == again.deals


def _engine_texts(ops):
    """The text criterion of every operation that reaches the engine."""
    texts = []
    for op in ops:
        fields = dict(op.payload)
        text = (fields.get("query") or fields.get("all_words")
                or fields.get("any_words"))
        if text:
            texts.append(text)
    return texts


def test_form_cold_holds_more_keys_than_either_cache(deep):
    ops = workloads.form_cold(3, deep, SCALE)
    assert len(ops) == SCALE.cold_ops
    assert len({op.key for op in ops}) == len(ops) > QUERY_CACHE
    texts = _engine_texts(ops)
    assert len(set(texts)) == len(texts) > ENGINE_CACHE


def test_form_cold_mix_is_the_stated_one(deep):
    ops = workloads.form_cold(3, deep, SCALE)
    for kind, share in workloads.FORM_COLD_MIX:
        count = sum(1 for op in ops if op.kind == kind)
        assert count == round(SCALE.cold_ops * share)


def test_reader_list_is_cold_too(deep):
    ops = workloads.reader_forms(3, deep, SCALE)
    assert len({op.key for op in ops}) == len(ops) > QUERY_CACHE


def test_analytics_forms_exceed_the_query_cache_and_skip_the_engine(wide):
    ops = workloads.analytics(3, wide, SCALE)
    forms = [op for op in ops if op.target == "search"]
    assert len({op.key for op in forms}) == len(forms) > QUERY_CACHE
    assert not _engine_texts(ops)
    kinds = {op.kind for op in ops}
    assert {"graph.worked-with", "graph.role-capacity", "graph.expertise",
            "graph.team-overlap", "synopsis_view", "sql.rollup",
            "sql.role_topk", "sql.point_join"} <= kinds


def test_hot_pool_fits_the_query_cache(deep):
    ops = workloads.form_hot(3, deep, SCALE)
    assert len(ops) == SCALE.hot_ops
    pool = {op.key for op in ops}
    assert len(pool) <= SCALE.hot_pool < QUERY_CACHE
    assert all(op.target == "search" for op in ops)
    # Zipf(1.0): the first form is drawn about twice as often as the
    # second, far more often than the last.
    counts = {}
    for op in ops:
        counts[op.key] = counts.get(op.key, 0) + 1
    ranked = sorted(counts.values(), reverse=True)
    assert ranked[0] > 1.5 * ranked[1] > 0
    assert ranked[0] > 10 * ranked[-1]


def test_hot_forms_and_ranks_are_the_same_for_every_seed(deep):
    def ranked(seed):
        counts = {}
        for op in workloads.form_hot(seed, deep, SCALE):
            counts[op.key] = counts.get(op.key, 0) + 1
        return sorted(counts, key=counts.get, reverse=True)

    assert set(ranked(3)) == set(ranked(4))
    assert ranked(3)[:3] == ranked(4)[:3]


def test_rotation_is_seeded():
    cycle = list(range(6))
    assert workloads.rotated(1, cycle) == workloads.rotated(1, cycle)
    assert sorted(workloads.rotated(1, cycle)) == cycle
    assert len({tuple(workloads.rotated(seed, cycle))
                for seed in range(10)}) > 1


def test_too_small_a_corpus_is_refused():
    tiny = build_corpus(SMOKE.deep)
    with pytest.raises(workloads.WorkloadError):
        workloads.form_cold(1, tiny, SCALE)
