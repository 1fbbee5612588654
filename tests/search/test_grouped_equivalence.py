"""Grouped-search equivalence: rank, choose, build against the oracle
that builds everything first.

``SiapiService.search_grouped`` groups, normalizes, averages and trims
on ``(doc_id, score)`` pairs and only then decodes and snippets the
hits a kept activity shows; ``engine.search`` builds the head of the
ranking.  Both must be invisible in the answer: the oracle
(``tests/reference/siapi.py`` over ``tests/reference/search.py``'s
built hits) materialises every matching document, reads the activity
off the hit, and trims last.  The suite holds the two equal — activity
ids and order, bit-identical activity scores, hit ids, hit scores,
stored documents and snippets — for scoped and unscoped searches,
every ``activity_limit`` / ``per_activity_limit`` shape, every segment
layout the store can be in, a cold-loaded index, and an in-memory and
a tiered index behind a result cache; and for generated scopes — empty, one
deal, all deals, unknown deal ids, a deal whose documents are all
removed — ``search`` and ``count`` as well, against the scope applied
as a predicate after scoring.  The corpus plants documents without an activity,
identical documents in several activities (ties on the normalized
score and on the activity average) and, on hand-made pairs, distinct
scores that normalize to one float.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search import (
    IndexableDocument,
    SearchEngine,
    SearchHit,
    SiapiQuery,
    SiapiService,
)
from repro.search.engine import Ranking
from tests.reference.search import exhaustive_hits
from tests.reference.siapi import (
    group_hits,
    grouped_by_materialising,
    scope_predicate,
)
from tests.search.test_execution_equivalence import (
    COMMON,
    MID,
    RARE,
    make_corpus,
    make_engine,
    make_segmented_engine,
    query_trees,
    ref_scope,
)

DEALS = [f"deal{i}" for i in range(8)]
TWINS = ("deal1", "deal5", "deal6")
#: A deal every shape removes whole: flushed into a segment and
#: tombstoned there, where the layout has segments.
GONE = "deal-gone"
GONE_DOCS = ("gone0", "gone1", "gone2")


def grouped_corpus():
    """The ranking suite's corpus, plus what grouping has to get right."""
    # First, so a segmented layout flushes them before they go.
    corpus = [
        IndexableDocument(
            doc_id,
            {"title": "finance audit", "body": "services network storage"},
            {"deal_id": GONE, "ref": doc_id},
        )
        for doc_id in GONE_DOCS
    ]
    corpus.extend(make_corpus(seed=2008))
    # No activity at all, an explicit None, and one the metadata index
    # cannot hold: the first two are dropped, none may break a search
    # that does not reach them.
    corpus.append(IndexableDocument(
        "orphan0", {"title": "audit escrow", "body": "finance network audit"},
        {"doc_type": "memo", "ref": "orphan0"}))
    corpus.append(IndexableDocument(
        "orphan1", {"title": "finance", "body": "storage management audit"},
        {"deal_id": None, "ref": "orphan1"}))
    # Word-for-word the same document in three activities: equal
    # scores, so equal normalized scores (ties by doc id) and, for the
    # two activities holding nothing else that matches "quarantine
    # turbine", equal averages (ties by activity id).
    for position, deal_id in enumerate(TWINS):
        for copy in range(2):
            corpus.append(IndexableDocument(
                f"twin{position}{copy}",
                {"title": "quarantine turbine",
                 "body": "quarantine turbine mainframe benchmark latency"},
                {"deal_id": deal_id, "ref": f"twin{position}{copy}"}))
    return corpus


REMOVED = ("doc004", "doc017", "doc033", "twin00")


@pytest.fixture(scope="module")
def engines(tmp_path_factory):
    """One engine per shape the index can be served in."""
    corpus = grouped_corpus()
    shapes = {
        "memory": make_engine(corpus),
        "memtable": make_segmented_engine(corpus, "memtable"),
        "flushed": make_segmented_engine(corpus, "flushed"),
        "tiered": make_segmented_engine(corpus, "tiered"),
        "tombstoned": make_segmented_engine(corpus, "tombstoned", REMOVED),
        "compacted": make_segmented_engine(corpus, "compacted", REMOVED),
    }
    directory = tmp_path_factory.mktemp("grouped-cold")
    make_segmented_engine(corpus, "tiered", REMOVED).save_index(
        str(directory)
    )
    cold = SearchEngine(cache_size=0)
    cold.load_index(str(directory))
    shapes["cold"] = cold
    # The same again behind a result cache: a second ask is served
    # from the cached pairs and the hits built the first time.
    shapes["memory-cached"] = make_engine(corpus, cache_size=64)
    shapes["tiered-cached"] = make_segmented_engine(
        corpus, "tiered", cache_size=64
    )
    for engine in shapes.values():
        for doc_id in GONE_DOCS:
            engine.remove(doc_id)
    assert any(
        segment.tombstones for segment in shapes["tiered"].index.segments
    )
    return shapes


SHAPES = ["memory", "memtable", "flushed", "tiered", "tombstoned",
          "compacted", "cold", "memory-cached", "tiered-cached"]


def flat_hit(hit: SearchHit):
    return (hit.doc_id, hit.score, hit.snippet, list(hit.fields.items()))


def flat_groups(groups):
    return [
        (group.activity_id, group.score, [flat_hit(h) for h in group.hits])
        for group in groups
    ]


def assert_grouped_equivalent(engine, query, scope=None,
                              per_activity_limit=None, activity_limit=None):
    expected = flat_groups(grouped_by_materialising(
        engine, query, scope, per_activity_limit, activity_limit
    ))
    found = flat_groups(SiapiService(engine).search_grouped(
        query, scope=scope, per_activity_limit=per_activity_limit,
        activity_limit=activity_limit,
    ))
    assert found == expected, (
        f"grouped answer diverged for {query} scope={scope} "
        f"per_activity_limit={per_activity_limit} "
        f"activity_limit={activity_limit}"
    )
    return found


WORDS = COMMON + MID + RARE + ["financing", "management", "unindexed"]
_words = st.lists(st.sampled_from(WORDS), max_size=3).map(" ".join)


def _has_text(query: SiapiQuery) -> bool:
    """True when some text criterion was entered (else no query)."""
    return any(
        part.strip()
        for part in (query.all_words, query.exact_phrase, query.any_words,
                     query.none_words, query.raw)
    )


siapi_queries = st.builds(
    SiapiQuery,
    all_words=_words,
    exact_phrase=st.sampled_from(
        ["", "", "storage management", "network migration",
         "quarantine turbine", "audit escrow"]
    ),
    any_words=_words,
    none_words=st.sampled_from(["", "", "", "turbine", "audit services"]),
    search_field=st.sampled_from([None, None, "title", "body"]),
    raw=st.sampled_from(["", "", "", "finance OR audit", "-escrow"]),
).filter(_has_text)

scopes = st.one_of(
    st.none(),
    st.sets(st.sampled_from(DEALS + ["no-such-deal"]), max_size=5),
)


@given(
    shape=st.sampled_from(SHAPES),
    query=siapi_queries,
    scope=scopes,
    per_activity_limit=st.sampled_from([None, 1, 5]),
    activity_limit=st.sampled_from([None, None, 1, 3, 100]),
)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_generated_grouped_searches_match_oracle(
    engines, shape, query, scope, per_activity_limit, activity_limit
):
    assert_grouped_equivalent(
        engines[shape], query, scope, per_activity_limit, activity_limit
    )


@given(
    shape=st.sampled_from(SHAPES),
    query=query_trees,
    limit=st.sampled_from([None, 1, 3, 10]),
    scope=st.one_of(
        st.none(),
        st.frozensets(
            st.sampled_from([f"doc{i:03d}" for i in range(80)]
                            + ["orphan0", "twin10", "twin21", "gone1"]),
            max_size=40,
        ).map(ref_scope),
    ),
)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_generated_searches_build_the_oracles_hits(
    engines, shape, query, limit, scope
):
    engine = engines[shape]
    expected = [flat_hit(h) for h in
                exhaustive_hits(engine, query, limit, scope)]
    found = [flat_hit(h) for h in engine.search(query, limit, scope)]
    assert found == expected


@pytest.mark.parametrize("shape", SHAPES)
def test_planted_ties_and_orphans(engines, shape):
    engine = engines[shape]
    twins = SiapiQuery(exact_phrase="quarantine turbine")
    groups = assert_grouped_equivalent(engine, twins)
    by_id = {activity: (score, hits) for activity, score, hits in groups}
    # deal5 and deal6 hold the phrase in their two twins only: every
    # normalized score is equal, so are the averages, and the ids
    # decide — documents within an activity, then the activities.
    assert by_id["deal5"][0] == by_id["deal6"][0]
    assert [hit[0] for hit in by_id["deal5"][1]][:2] == ["twin10", "twin11"]
    order = [activity for activity, _, _ in groups]
    assert order.index("deal5") + 1 == order.index("deal6")
    for per_activity_limit in (None, 1, 5):
        for activity_limit in (None, 1, 2):
            assert_grouped_equivalent(
                engine, twins, None, per_activity_limit, activity_limit
            )
            assert_grouped_equivalent(
                engine, twins, set(TWINS), per_activity_limit,
                activity_limit,
            )
    # Both orphans match "audit"; neither is in any group, and the
    # count of what was ranked still includes them.
    audit = SiapiQuery(all_words="audit")
    groups = assert_grouped_equivalent(engine, audit)
    shown = {hit[0] for _, _, hits in groups for hit in hits}
    assert not shown & {"orphan0", "orphan1"}
    ranked = {hit.doc_id for hit in engine.search(audit.to_query())}
    assert {"orphan0", "orphan1"} <= ranked


def _collapsing_scores():
    """Three scores under ``best`` of which two adjacent floats divide
    to the same normalized score."""
    best = 2.5
    high = math.nextafter(2.0, 0.0)
    while True:
        low = math.nextafter(high, 0.0)
        if high / best == low / best:
            return best, high, low
        high = low


def test_distinct_scores_that_normalize_to_one_float():
    """The ranking puts the higher score first; once both normalize to
    one float the doc id decides, which may be the other way round."""
    best, high, low = _collapsing_scores()
    assert high > low and high / best == low / best
    engine = make_engine(grouped_corpus())
    # Ranking order: by score, so doc060 (higher) before doc012.
    pairs = [("doc007", best), ("doc060", high), ("doc012", low),
             ("doc020", low / 2), ("orphan0", low / 4)]
    hits = [
        SearchHit(doc_id, score, engine.index.stored_fields(doc_id), "")
        for doc_id, score in pairs
    ]
    service = SiapiService(engine)
    query = SiapiQuery(raw="-zzz").to_query()

    def flat(groups):
        return [
            (g.activity_id, g.score, [(h.doc_id, h.score) for h in g.hits])
            for g in groups
        ]

    for per_activity_limit in (None, 1, 5):
        for activity_limit in (None, 1, 2):
            found = service._group(
                Ranking(engine, query, pairs, None),
                per_activity_limit, activity_limit,
            )
            assert flat(found) == flat(
                group_hits(hits, engine.index, per_activity_limit,
                           activity_limit)
            )
    # doc060, doc012 and doc020 share deal4 (i % 8): the doc id, not
    # the ranking, orders the first two.
    groups = service._group(Ranking(engine, query, pairs, None), None, None)
    deal4 = next(g for g in groups if g.activity_id == "deal4")
    assert [h.doc_id for h in deal4.hits] == ["doc012", "doc060", "doc020"]


generated_scopes = st.one_of(
    st.just(set()),
    st.sampled_from(DEALS).map(lambda deal: {deal}),
    st.just(set(DEALS)),
    st.sets(st.sampled_from(["no-such-deal", "deal99", ""]), min_size=1),
    st.just({GONE}),
    st.sets(st.sampled_from(DEALS + ["no-such-deal", GONE])),
)


@given(
    shape=st.sampled_from(SHAPES),
    query=siapi_queries,
    scope=generated_scopes,
    limit=st.sampled_from([None, 1, 3, 10]),
    per_activity_limit=st.sampled_from([None, 1, 5]),
    activity_limit=st.sampled_from([None, None, 1, 3]),
)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_generated_scopes_match_oracle(
    engines, shape, query, scope, limit, per_activity_limit, activity_limit
):
    """A deal scope checked on the postings answers as the scope applied
    as a predicate over stored documents after scoring, for
    ``search_grouped``, the engine's ``search`` and its ``count``."""
    engine = engines[shape]
    assert_grouped_equivalent(
        engine, query, scope, per_activity_limit, activity_limit
    )
    service = SiapiService(engine)
    predicate = scope_predicate(scope)
    expected = exhaustive_hits(engine, query.to_query(), limit, predicate)
    deals = ("deal_id", frozenset(scope))
    found = engine.search(query.to_query(), limit, deals)
    assert [flat_hit(h) for h in found] == [flat_hit(h) for h in expected]
    everything = exhaustive_hits(engine, query.to_query(), None, predicate)
    assert engine.count(query.to_query(), deals) == len(everything)
    if scope & {GONE}:
        assert not {hit.doc_id for hit in found} & set(GONE_DOCS)
