"""Ranking-equivalence suite: the engine against the exhaustive oracle.

The execution engine promises that everything it does to go fast —
bulk scoring, df-ordered AND, filter pushdown, heap top-k, MaxScore
pruning — is invisible in the results: same documents, bit-identical
scores, same tie-breaks as the exhaustive interpreter kept as the
oracle in :mod:`tests.reference.search`.  This suite drives both over
seeded random corpora, a query zoo covering term/phrase/AND/OR/NOT,
field restrictions, field boosts, activity scopes (against the
oracle's id set of the scope's documents and against its predicate
over stored documents) and post-``remove`` epochs,
generated query trees, every segment layout the store can be in, and
a store cold-loaded from disk, and asserts exact equality.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import use_registry
from repro.search import (
    AndQuery,
    Bm25Scorer,
    IndexableDocument,
    NotQuery,
    OrQuery,
    PhraseQuery,
    SearchEngine,
    TermQuery,
    parse_query,
)
from tests.reference.search import exhaustive_ranking, exhaustive_search
from tests.storage.test_store import compact

# Realistic-ish vocabulary with skewed frequencies so MaxScore has
# common terms to prune and rare terms to keep: the first words appear
# in most documents, the last in only a few.
COMMON = ["services", "deal", "client", "team", "review"]
MID = ["network", "storage", "finance", "migration", "pricing",
       "contract", "server", "delivery"]
RARE = ["audit", "escrow", "latency", "turbine", "quarantine",
        "helpdesk", "mainframe", "benchmark"]
VOCAB = COMMON * 8 + MID * 3 + RARE

QUERIES = [
    "finance",
    "financing",                       # stems to the same as "finance"
    "network services",                # implicit AND
    "network OR storage OR audit",
    "services OR deal OR client OR review OR escrow OR audit",
    '"storage management"',
    '"network migration" OR finance',
    "finance -audit",
    "-services",                       # pure negation
    "title:network OR body:finance",
    "(finance OR pricing) (network OR storage) -turbine",
    "deal AND NOT escrow OR audit".replace(" AND NOT ", " -"),
]

LIMITS = [None, 1, 3, 10]


def make_corpus(seed, docs=80, deals=8):
    rng = random.Random(seed)
    corpus = []
    for i in range(docs):
        title = " ".join(rng.choices(VOCAB, k=rng.randint(2, 5)))
        body_words = rng.choices(VOCAB, k=rng.randint(10, 40))
        if rng.random() < 0.3:
            body_words[rng.randrange(len(body_words) - 1):][:2] = [
                "storage", "management"
            ]
        if rng.random() < 0.2:
            body_words.extend(["network", "migration"])
        corpus.append(
            IndexableDocument(
                f"doc{i:03d}",
                {"title": title, "body": " ".join(body_words)},
                # "ref" names one document, so a scope on it picks any
                # subset of the corpus, not just whole deals.
                {"deal_id": f"deal{i % deals}", "ref": f"doc{i:03d}"},
            )
        )
    return corpus


def ref_scope(doc_ids):
    """The scope that admits exactly ``doc_ids`` of a corpus whose
    documents carry their own id as metadata ``ref``."""
    return ("ref", frozenset(doc_ids))


def make_engine(corpus, **kwargs):
    kwargs.setdefault("cache_size", 0)
    engine = SearchEngine(**kwargs)
    for document in corpus:
        engine.add(document)
    return engine


def ranking(engine, query, limit=None, scope=None):
    hits = engine.search(query, limit=limit, scope=scope)
    return [(hit.doc_id, hit.score) for hit in hits]


def assert_equivalent(engine, query, limit=None, scope=None):
    """The engine ranks as the oracle, which resolves ``scope`` to the
    id set of its documents and filters after scoring; ``count``
    agrees."""
    parsed = parse_query(query) if isinstance(query, str) else query
    reference = exhaustive_ranking(engine, parsed, limit, scope)
    planned = ranking(engine, parsed, limit, scope)
    assert planned == reference, (
        f"ranking diverged for query={query!r} limit={limit} scope={scope}"
    )
    if limit is None:
        assert engine.count(parsed, scope) == len(reference)
    else:
        unlimited = ranking(engine, parsed, None, scope)
        assert reference == unlimited[:limit], (
            f"top-{limit} is not the head of the full ranking "
            f"for query={query!r}"
        )


def assert_deal_scope_equivalent(engine, query, limit, deals):
    """A deal scope, as SIAPI passes it to the engine, ranks as the
    oracle's predicate over stored documents."""
    parsed = parse_query(query)

    def predicate(document):
        return document.metadata.get("deal_id") in deals

    scope = ("deal_id", frozenset(deals))
    assert ranking(engine, parsed, limit, scope) == exhaustive_ranking(
        engine, parsed, limit, predicate
    ), f"deal scope diverged for query={query!r} limit={limit}"


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(seed=2008)


@pytest.fixture(scope="module")
def engine(corpus):
    return make_engine(corpus)


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("limit", LIMITS)
def test_query_zoo_equivalence(engine, query, limit):
    assert_equivalent(engine, query, limit)


@pytest.mark.parametrize("limit", [None, 5])
def test_equivalence_with_field_boosts(corpus, limit):
    engine = make_engine(corpus, field_boosts={"title": 2.5, "body": 0.5})
    for query in QUERIES:
        assert_equivalent(engine, query, limit)


@pytest.mark.parametrize("limit", [None, 5])
def test_equivalence_with_custom_scorer(corpus, limit):
    # Non-default parameters, and b=1 so every MaxScore bound is the
    # loose idf-only one.
    engine = make_engine(corpus, scorer=Bm25Scorer(k1=2.0, b=1.0))
    for query in QUERIES:
        assert_equivalent(engine, query, limit)


@pytest.mark.parametrize("limit", [None, 4])
def test_equivalence_with_id_set_filter(engine, corpus, limit):
    """A scope admitting an arbitrary 40 % of the documents ranks as
    the oracle's filter by their id set; so does the empty scope."""
    rng = random.Random(99)
    scope = ref_scope(doc.doc_id for doc in corpus if rng.random() < 0.4)
    for query in QUERIES:
        assert_equivalent(engine, query, limit, scope)
    assert_equivalent(engine, "finance OR audit", limit, ("ref", frozenset()))


@pytest.mark.parametrize("limit", [None, 4])
def test_equivalence_with_predicate_filter(engine, limit):
    for query in QUERIES:
        assert_deal_scope_equivalent(engine, query, limit, {"deal1", "deal3"})


def test_equivalence_after_removals(corpus):
    engine = make_engine(corpus)
    rng = random.Random(7)
    removed = [d.doc_id for d in corpus if rng.random() < 0.3]
    for doc_id in removed:
        engine.remove(doc_id)
    for query in QUERIES:
        for limit in (None, 5):
            assert_equivalent(engine, query, limit)
    # Re-add a few with new text; compiled postings must follow.
    engine.add(
        IndexableDocument(
            removed[0],
            {"title": "audit escrow turbine",
             "body": "finance network storage audit audit"},
            {"deal_id": "deal0"},
        )
    )
    for query in QUERIES:
        assert_equivalent(engine, query, 5)


def test_equivalence_property_random_corpora_and_queries():
    """Property-style sweep: fresh corpus + random OR/AND queries."""
    for seed in range(8):
        rng = random.Random(1000 + seed)
        engine = make_engine(make_corpus(seed=seed, docs=50))
        for _ in range(6):
            words = rng.sample(COMMON + MID + RARE, rng.randint(2, 6))
            joiner = rng.choice([" OR ", " "])
            query = joiner.join(words)
            if rng.random() < 0.3:
                query += f" -{rng.choice(MID)}"
            assert_equivalent(
                engine, query, limit=rng.choice([None, 1, 3, 7])
            )


def test_tie_breaks_by_doc_id_match_reference():
    engine = SearchEngine(cache_size=0)
    # Identical documents => identical scores => ties broken by doc id.
    for doc_id in ["z9", "a1", "m5", "b2"]:
        engine.add(
            IndexableDocument(
                doc_id, {"body": "finance network finance"}, {}
            )
        )
    assert_equivalent(engine, "finance OR network", limit=2)
    hits = engine.search("finance OR network", limit=2)
    assert [h.doc_id for h in hits] == ["a1", "b2"]


def test_maxscore_touches_strictly_fewer_postings(engine):
    """Acceptance criterion: pruning does strictly less posting work."""
    query = parse_query(
        "escrow OR turbine OR services OR deal OR client OR review"
    )
    _, exhaustive = exhaustive_search(engine, query, limit=3)
    with use_registry() as registry:
        engine.search(query, limit=3)
        pruned = registry.counter("engine.postings_touched").value
        assert registry.counter("engine.maxscore.clauses_pruned").value > 0
    assert pruned < exhaustive


# -- cold-loaded --------------------------------------------------------------
#
# The oracle reads a store loaded from disk as the corpus it is, so
# "loaded == oracle" is the same assertion as above, over segments read
# through their files.


def test_cold_loaded_engine_matches_oracle(corpus, tmp_path):
    engine = make_loaded_engine(corpus, tmp_path)
    rng = random.Random(99)
    scope = ref_scope(doc.doc_id for doc in corpus if rng.random() < 0.4)
    for query in QUERIES:
        for limit in (None, 3):
            assert_equivalent(engine, query, limit)
        assert_equivalent(engine, query, 4, scope)
        assert_deal_scope_equivalent(engine, query, None, {"deal1", "deal3"})
    engine.remove("doc004")
    engine.remove("doc017")
    for query in QUERIES:
        assert_equivalent(engine, query, 5)


# -- generated query trees ----------------------------------------------------

WORDS = COMMON + MID + RARE + ["financing", "management", "unindexed"]
FIELDS = [None, None, "title", "body"]

_leaves = st.one_of(
    st.builds(TermQuery, st.sampled_from(WORDS), st.sampled_from(FIELDS)),
    st.builds(
        PhraseQuery,
        st.sampled_from(
            ["storage management", "network migration", "deal client",
             "services services", "audit escrow"]
        ),
        st.sampled_from(FIELDS),
    ),
)


def _branches(children):
    clauses = st.lists(children, min_size=1, max_size=4).map(tuple)
    negatable = st.one_of(children, st.builds(NotQuery, children))
    return st.one_of(
        st.builds(OrQuery, clauses),
        st.builds(
            AndQuery,
            st.lists(negatable, min_size=1, max_size=3).map(tuple),
        ),
        st.builds(NotQuery, children),
    )


query_trees = st.recursive(_leaves, _branches, max_leaves=8)


@pytest.fixture(scope="module")
def engines(corpus, tmp_path_factory):
    """One engine per shape the index can be served in."""
    return {
        "memory": make_engine(corpus),
        "tiered": make_segmented_engine(corpus, "tiered"),
        "loaded": make_loaded_engine(
            corpus, tmp_path_factory.mktemp("loaded")
        ),
    }


@given(
    shape=st.sampled_from(["memory", "tiered", "loaded"]),
    query=query_trees,
    limit=st.sampled_from(LIMITS),
    scope=st.one_of(
        st.none(),
        st.frozensets(
            st.sampled_from([f"doc{i:03d}" for i in range(80)]),
            max_size=40,
        ).map(ref_scope),
    ),
)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_generated_queries_match_oracle(engines, shape, query, limit, scope):
    assert_equivalent(engines[shape], query, limit, scope)


# -- segment-backed layouts ---------------------------------------------------
#
# The persistent store promises the same invisibility as the execution
# optimizations: whatever LSM shape the index is in — pure memtable,
# freshly flushed, many tiered segments, tombstoned, compacted, or
# reloaded from disk — rankings are bit-identical to the in-memory
# engine over the same live documents.

SEGMENT_LAYOUTS = ["memtable", "flushed", "tiered", "tombstoned",
                   "compacted"]


def make_segmented_engine(corpus, layout, removed=(), **kwargs):
    from repro.storage import SegmentBackedIndex

    kwargs.setdefault("cache_size", 0)
    memtable_limit = 4096 if layout == "memtable" else 16
    index = SegmentBackedIndex(memtable_limit=memtable_limit,
                               merge_fanout=3)
    engine = SearchEngine(index=index, **kwargs)
    for document in corpus:
        engine.add(document)
    if layout == "flushed":
        index.flush()
    for doc_id in removed:
        engine.remove(doc_id)
    if layout == "compacted":
        compact(index)
    return engine


def make_loaded_engine(corpus, directory, **kwargs):
    """A fresh engine cold-loaded from a tiered store saved under
    ``directory``: every segment is read through its file."""
    kwargs.setdefault("cache_size", 0)
    make_segmented_engine(corpus, "tiered").save_index(str(directory))
    engine = SearchEngine(**kwargs)
    engine.load_index(str(directory))
    assert engine.index.segments and all(
        segment.path for segment in engine.index.segments
    )
    return engine


def segment_reference_engine(corpus, removed=(), **kwargs):
    engine = make_engine(corpus, **kwargs)
    for doc_id in removed:
        engine.remove(doc_id)
    return engine


@pytest.mark.parametrize("layout", SEGMENT_LAYOUTS)
def test_segment_layouts_match_in_memory_rankings(corpus, layout):
    removed = ()
    if layout in ("tombstoned", "compacted"):
        rng = random.Random(17)
        removed = tuple(
            doc.doc_id for doc in corpus if rng.random() < 0.3
        )
    reference = segment_reference_engine(corpus, removed)
    segmented = make_segmented_engine(corpus, layout, removed)
    if layout == "tiered":
        assert len(segmented.index.segments) > 1
    for query in QUERIES:
        parsed = parse_query(query)
        for limit in (None, 1, 5):
            assert_equivalent(segmented, parsed, limit)
            assert ranking(segmented, parsed, limit) == (
                ranking(reference, parsed, limit)
            ), f"layout={layout} query={query!r} limit={limit}"


def test_segment_layout_matches_after_readds(corpus):
    rng = random.Random(23)
    removed = [doc.doc_id for doc in corpus if rng.random() < 0.4]
    reference = segment_reference_engine(corpus, removed)
    segmented = make_segmented_engine(corpus, "tiered", removed)
    for doc_id in removed[:10]:
        replacement = IndexableDocument(
            doc_id,
            {"title": "audit escrow", "body": "finance network storage"},
            {"deal_id": "deal0"},
        )
        reference.add(replacement)
        segmented.add(replacement)
    for query in QUERIES:
        for limit in (None, 4):
            assert_equivalent(segmented, query, limit)
            parsed = parse_query(query)
            assert ranking(segmented, parsed, limit) == ranking(
                reference, parsed, limit
            )


def test_cold_started_engine_matches_in_memory_rankings(corpus, tmp_path):
    reference = segment_reference_engine(corpus)
    cold = make_loaded_engine(corpus, tmp_path)
    for query in QUERIES:
        parsed = parse_query(query)
        for limit in (None, 3):
            assert_equivalent(cold, parsed, limit)
            assert ranking(cold, parsed, limit) == ranking(
                reference, parsed, limit
            ), f"query={query!r} limit={limit}"


@pytest.mark.parametrize("layout", ["tiered", "tombstoned"])
def test_segment_layouts_full_variant_zoo(corpus, layout):
    """The whole zoo stays equivalent to the oracle over segment layouts."""
    removed = ("doc004", "doc017", "doc033") if layout == "tombstoned" else ()
    segmented = make_segmented_engine(corpus, layout, removed)
    for query in QUERIES:
        assert_equivalent(segmented, query, limit=5)
