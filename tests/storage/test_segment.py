"""Segment codec tests: encode/decode parity, tombstones, merge, errors.

The contract under test: a :class:`Segment` encoded from an
``InvertedIndex`` must report exactly the statistics the index reports
(document frequencies, term frequencies, field lengths, positions,
metadata lookups), because the BM25 bit-identity of segment-backed
search rests on those numbers.
"""

import random

import pytest

from repro.errors import SearchError, StorageError
from repro.search import IndexableDocument
from repro.search.inverted_index import InvertedIndex
from repro.storage.segment import (
    MAGIC,
    Segment,
    encode_from_index,
    merge_segments,
)

WORDS = ["network", "storage", "deal", "services", "migration",
         "finance", "audit", "client", "review", "escrow"]


def make_index(seed=11, docs=30):
    rng = random.Random(seed)
    index = InvertedIndex()
    for i in range(docs):
        index.add(
            IndexableDocument(
                f"doc{i:03d}",
                {
                    "title": " ".join(rng.choices(WORDS, k=3)),
                    "body": " ".join(rng.choices(WORDS, k=rng.randint(5, 25))),
                },
                {"deal_id": f"deal{i % 4}", "rank": i % 3},
            )
        )
    return index


@pytest.fixture(scope="module")
def index():
    return make_index()


@pytest.fixture(scope="module")
def segment(index):
    return Segment.from_bytes(encode_from_index(index))


def test_doc_round_trip(index, segment):
    assert segment.doc_count == len(index)
    for doc_id in index.doc_ids:
        original = index.document(doc_id)
        loaded = segment.document(doc_id)
        assert loaded.doc_id == original.doc_id
        assert dict(loaded.fields) == dict(original.fields)
        assert dict(loaded.metadata) == dict(original.metadata)


def test_statistics_match_index(index, segment):
    assert segment.fields == index.fields
    for field in index.fields:
        assert segment.field_document_count(field) == (
            index.field_document_count(field)
        )
        assert segment.field_token_total(field) == (
            index.field_token_total(field)
        )
        for term in index.vocabulary(field):
            assert segment.df(term, field) == index.df(term, field)
            stored = segment.max_tf(term, field)
            assert stored == index.max_tf(term, field) or stored >= max(
                tf for _, tf, _ in segment.iter_term(term, field)
            )
    for doc_id in index.doc_ids:
        for field in ("title", "body"):
            assert segment.field_length(field, doc_id) == (
                index.field_length(field, doc_id)
            )
        assert segment.total_length(doc_id) == index.total_length(doc_id)


def test_postings_and_positions_match(index, segment):
    for field in index.fields:
        for term in index.vocabulary(field):
            decoded = {
                doc_id: tf for doc_id, tf, _ in segment.iter_term(term, field)
            }
            expected = {
                doc_id: index.term_frequency(term, doc_id, field)
                for doc_id in index.matching_docs(term, field)
            }
            assert decoded == expected
            assert segment.positions(term, field) == (
                index.positions(term, field)
            )


def test_metadata_lookup(index, segment):
    for value in ("deal0", "deal3"):
        assert segment.docs_with_metadata("deal_id", [value]) == (
            index.docs_with_metadata("deal_id", [value])
        )
    assert segment.docs_with_metadata("deal_id", ["nope"]) == set()
    assert segment.docs_with_metadata("rank", [1]) == (
        index.docs_with_metadata("rank", [1])
    )
    for key in ("deal_id", "rank", "nope"):
        column = segment.metadata_column(key)
        assert column.values == index.metadata_column(key).values


def test_a_tuple_value_stays_in_its_scope_once_saved(tmp_path):
    """JSON gives a tuple back as a list; the column gives it back as
    the tuple the document was indexed under, so a scope holding it
    finds the document in memory and after a save and load alike."""
    from repro.search import SearchEngine

    engine = SearchEngine(cache_size=0)
    engine.add(IndexableDocument(
        "t", {"body": "storage"}, {"deal_id": ("d1", ("x", 2))}))
    engine.add(IndexableDocument("u", {"body": "storage"},
                                 {"deal_id": "d2"}))
    scope = ("deal_id", frozenset({("d1", ("x", 2))}))
    assert [hit.doc_id for hit in engine.search("storage", None, scope)
            ] == ["t"]
    engine.save_index(str(tmp_path))
    loaded = SearchEngine(cache_size=0)
    store = loaded.load_index(str(tmp_path))
    assert store.segments[0].metadata_column("deal_id").values == {
        "t": ("d1", ("x", 2)), "u": "d2"}
    assert [hit.doc_id for hit in loaded.search("storage", None, scope)
            ] == ["t"]


def test_tombstone_adjusts_live_statistics(index):
    segment = Segment.from_bytes(encode_from_index(index))
    victim = "doc001"
    body_len = segment.field_length("body", victim)
    live_docs = segment.field_document_count("body")
    live_tokens = segment.field_token_total("body")
    assert victim in segment.metadata_column("deal_id").values
    assert segment.tombstone(victim)
    assert victim not in segment.metadata_column("deal_id").values
    assert not segment.tombstone(victim)  # second call is a no-op
    with pytest.raises(SearchError):
        segment.document(victim)
    assert not segment.has_document(victim)
    assert len(segment) == segment.doc_count - 1
    assert segment.field_document_count("body") == live_docs - 1
    assert segment.field_token_total("body") == live_tokens - body_len
    # df over a tombstoned segment must count live docs only — for
    # every term the segment stores, the now-dead ones included.
    for field in index.fields:
        for term in index.vocabulary(field):
            live = sum(1 for _ in segment.iter_term(term, field))
            assert segment.df(term, field) == live
    assert victim not in segment.docs_with_metadata("deal_id", ["deal1"])


def test_merge_equals_single_segment_encode():
    left, right = make_index(seed=1, docs=12), InvertedIndex()
    combined = make_index(seed=1, docs=12)
    rng = random.Random(3)
    for i in range(12, 24):
        document = IndexableDocument(
            f"doc{i:03d}",
            {"body": " ".join(rng.choices(WORDS, k=10))},
            {"deal_id": f"deal{i % 4}"},
        )
        right.add(document)
        combined.add(document)
    merged = Segment.from_bytes(
        merge_segments(
            [
                Segment.from_bytes(encode_from_index(left)),
                Segment.from_bytes(encode_from_index(right)),
            ]
        )
    )
    reference = Segment.from_bytes(encode_from_index(combined))
    assert merged.raw_bytes() == reference.raw_bytes()


def test_merge_drops_tombstoned_docs():
    index = make_index(seed=5, docs=10)
    segment = Segment.from_bytes(encode_from_index(index))
    segment.tombstone("doc002")
    segment.tombstone("doc007")
    merged = Segment.from_bytes(merge_segments([segment]))
    assert merged.doc_count == 8
    assert not merged.has_document("doc002")
    assert not merged.tombstones
    # Nothing dead is carried along, not even a term: the bytes are what
    # encoding the surviving documents alone gives.
    index.remove("doc002")
    index.remove("doc007")
    assert merged.raw_bytes() == encode_from_index(index)


def test_merge_rejects_duplicate_live_doc():
    index = make_index(seed=5, docs=4)
    segment_a = Segment.from_bytes(encode_from_index(index))
    segment_b = Segment.from_bytes(encode_from_index(index))
    with pytest.raises(StorageError):
        merge_segments([segment_a, segment_b])


def test_file_backed_segment_reads_docs_lazily(tmp_path, index):
    data = encode_from_index(index)
    path = tmp_path / "seg-000001.rsg"
    path.write_bytes(data)
    segment = Segment.from_bytes(data)
    segment.attach_file(str(path))  # the RAM copy goes; reads pread
    try:
        assert segment.doc_count == len(index)
        for doc_id in list(index.doc_ids)[:5]:
            assert segment.document(doc_id).fields == (
                index.document(doc_id).fields
            )
        # Statistics never touch the docstore file.
        assert segment.df("network", "body") == index.df("network", "body")
    finally:
        segment.close()


def test_bad_magic_rejected():
    with pytest.raises(StorageError):
        Segment.from_bytes(b"XXXX" + b"\x00" * 32)


def test_truncated_segment_rejected(index):
    data = encode_from_index(index)
    assert data.startswith(MAGIC)
    with pytest.raises(StorageError):
        Segment.from_bytes(data[: len(data) // 4])


def test_unserializable_metadata_is_rejected():
    index = InvertedIndex()
    index.add(
        IndexableDocument(
            "d1", {"body": "hello"}, {"when": object()}
        )
    )
    with pytest.raises(StorageError):
        encode_from_index(index)
