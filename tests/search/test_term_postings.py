"""``TermPostings.position`` and the engine's tiny-filter probe.

When the documents a conjunction's running intersection (or a phrase)
still admits are far fewer than a term's posting list holds, the engine
looks them up in the compiled posting array instead of scanning it.
The lookup goes through the array's own doc id -> entry map, never
through ``term_frequency``: on a segment that walks the term's varint
postings from the start, once per probed id.  A scope is never resolved
to ids: it is checked on the postings, against the metadata column.
"""

import pytest

from repro.obs import use_registry
from repro.search import IndexableDocument, SearchEngine, TermPostings
from repro.search.inverted_index import InvertedIndex
from repro.serving.sharding import ShardedIndex
from repro.storage import SegmentBackedIndex
from repro.storage.segment import Segment
from tests.reference.search import exhaustive_ranking
from tests.search.test_execution_equivalence import (
    make_corpus,
    ranking,
    ref_scope,
)


def _postings(entries):
    postings = TermPostings()
    for doc_id, tf, length in entries:
        postings.append(doc_id, tf, length)
    return postings


class TestPosition:
    def test_finds_every_entry_and_nothing_else(self):
        postings = _postings([("a", 1, 5), ("b", 3, 7), ("c", 2, 4)])
        for i, doc_id in enumerate(postings.doc_ids):
            assert postings.position(doc_id) == i
        assert postings.position("z") is None

    def test_follows_appends_after_the_map_exists(self):
        postings = _postings([("a", 1, 5)])
        assert postings.position("b") is None  # builds the map
        postings.append("b", 4, 9)
        i = postings.position("b")
        assert (postings.tfs[i], postings.lengths[i]) == (4, 9)

    def test_follows_extends_after_the_map_exists(self):
        postings = _postings([("a", 1, 5)])
        assert postings.position("a") == 0
        postings.extend(_postings([("b", 2, 3), ("c", 5, 8)]))
        assert [postings.position(d) for d in "abc"] == [0, 1, 2]


def _no_term_frequency(self, term, doc_id, field=None):
    raise AssertionError("the tiny-filter branch read term_frequency")


LAYOUTS = {
    "memory": lambda: None,
    "segments": lambda: SegmentBackedIndex(memtable_limit=16,
                                           merge_fanout=3),
    "shards2": lambda: ShardedIndex(2),
}


def _services_corpus():
    """60 documents with "services" in each and "zebra" in two."""
    return [
        IndexableDocument(
            f"d{i}",
            {"body": "services " * (i % 3 + 1)
             + ("zebra" if i in (5, 41) else "")},
            {"deal_id": f"deal{i % 4}", "ref": f"d{i}"},
        )
        for i in range(60)
    ]


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_tiny_filter_probes_the_array(layout, monkeypatch):
    engine = SearchEngine(index=LAYOUTS[layout](), cache_size=0)
    for document in _services_corpus():
        engine.add(document)
    # "zebra" goes first and leaves two documents, far below 1/8 of
    # "services"' posting list, which is then probed for them.
    term = engine.analyzer.analyze("services")[0].term
    assert engine.index.df(term, "body") > 16
    scopes = (None, ("deal_id", frozenset({"deal1", "deal2"})),
              ref_scope({"d5", "no-such-doc"}))
    references = [
        exhaustive_ranking(engine, "zebra services", None, scope)
        for scope in scopes
    ]
    monkeypatch.setattr(Segment, "term_frequency", _no_term_frequency)
    monkeypatch.setattr(InvertedIndex, "term_frequency", _no_term_frequency)
    probed = []
    position = TermPostings.position

    def counted(postings, doc_id):
        probed.append(doc_id)
        return position(postings, doc_id)

    monkeypatch.setattr(TermPostings, "position", counted)
    for scope, reference in zip(scopes, references):
        assert reference  # the admitted documents do carry the term
        del probed[:]
        with use_registry() as registry:
            assert ranking(engine, "zebra services", None, scope) == reference
        # Two "zebra" postings, then "services" probed for what is left.
        assert 1 <= len(probed) <= 2
        assert registry.counters["engine.postings_touched"].value <= 4


def _refuse_to_resolve(self, key, values):
    raise AssertionError("a scope of many documents was resolved to ids")


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_a_large_scope_is_checked_on_the_postings(layout, monkeypatch):
    corpus = make_corpus(seed=2008)
    engine = SearchEngine(index=LAYOUTS[layout](), cache_size=0)
    for document in corpus:
        engine.add(document)
    scope = ("deal_id", frozenset({"deal1", "deal2", "deal3"}))
    reference = exhaustive_ranking(engine, "services", None, scope)
    assert reference
    for reader in (InvertedIndex, Segment, SegmentBackedIndex, ShardedIndex):
        monkeypatch.setattr(reader, "docs_with_metadata", _refuse_to_resolve)
    assert ranking(engine, "services", None, scope) == reference
    assert engine.count("services", scope) == len(reference)


def test_a_removal_drops_the_map_with_the_array():
    engine = SearchEngine(cache_size=0)
    for i in range(40):
        engine.add(
            IndexableDocument(f"d{i}", {"body": "services " * (i % 3 + 1)},
                              {"ref": f"d{i}"})
        )
    scope = ref_scope({"d1", "d2"})
    before = ranking(engine, "services", None, scope)
    engine.remove("d1")
    engine.add(IndexableDocument("d1", {"body": "services services "
                                        "services services"},
                                 {"ref": "d1"}))
    after = ranking(engine, "services", None, scope)
    assert after == exhaustive_ranking(engine, "services", None, scope)
    assert after != before
