"""SegmentBackedIndex lifecycle tests: LSM flow, save/load, corruption.

Two contracts:

* the store is a conforming ``IndexReader``: everything it answers
  (df, tf, lengths, averages, phrases, metadata lookups) must equal the
  dict-of-docs model over the same documents, through any sequence of
  adds, flushes, removals and merges;
* ``save``/``load`` round-trips the exact same state, and every
  corruption mode — foreign files, flipped bytes, version skew,
  truncation — is rejected with a typed :class:`StorageError`.
"""

import json
import random
import sys
import threading

import pytest

from repro.errors import SearchError, StorageError
from repro.obs import use_registry
from repro.search import IndexableDocument, SearchEngine
from repro.search.inverted_index import InvertedIndex
from repro.storage import MANIFEST_NAME, SegmentBackedIndex
from repro.storage.atomic import checksum, encode_document, read_manifest
from repro.storage.segment import FORMAT_VERSION, MAGIC
from repro.storage.store import MANIFEST_FORMAT, MANIFEST_VERSION
from tests.reference.index import DictOfDocs, assert_conforms
from tests.reference.segment_v1 import version_one

WORDS = ["network", "storage", "deal", "services", "migration",
         "finance", "audit", "client", "review", "escrow", "latency"]


def make_docs(seed=21, docs=60):
    rng = random.Random(seed)
    return [
        IndexableDocument(
            f"doc{i:03d}",
            {
                "title": " ".join(rng.choices(WORDS, k=3)),
                "body": " ".join(rng.choices(WORDS, k=rng.randint(5, 20))),
            },
            {"deal_id": f"deal{i % 5}"},
        )
        for i in range(docs)
    ]


def assert_index_equivalent(store, reference):
    """The protocol conformance check (``tests/reference/index.py``) with
    this file's layouts as its input; on top of it, the merged posting
    arrays list documents in the plain index's order (segments
    oldest-first, then the memtable)."""
    assert_conforms(
        store,
        DictOfDocs(
            reference.document(doc_id) for doc_id in reference.doc_ids
        ),
    )
    for field in reference.fields:
        for term in reference.vocabulary(field):
            assert store.term_postings(term, field).doc_ids == (
                reference.term_postings(term, field).doc_ids
            )


def compact(store):
    """Flush, then merge every segment into one tombstone-free segment:
    the whole store taken as one merge tier (and dropped if empty)."""
    store.flush()
    if len(store.segments) > 1 or any(s.tombstones for s in store.segments):
        store._merge_positions(list(range(len(store.segments))))
    store.maybe_merge()


def build_pair(docs, memtable_limit=16, merge_fanout=3):
    store = SegmentBackedIndex(
        memtable_limit=memtable_limit, merge_fanout=merge_fanout
    )
    reference = InvertedIndex()
    for document in docs:
        store.add(document)
        reference.add(document)
    return store, reference


def test_pure_memtable_matches_reference():
    store, reference = build_pair(make_docs(docs=10), memtable_limit=4096)
    assert not store.segments
    assert_index_equivalent(store, reference)


def test_flush_and_tiered_merge_match_reference():
    store, reference = build_pair(make_docs(docs=60), memtable_limit=8)
    assert store.segments, "memtable limit should have forced flushes"
    assert_index_equivalent(store, reference)


def test_removals_across_memtable_and_segments():
    docs = make_docs(docs=60)
    store, reference = build_pair(docs, memtable_limit=10)
    rng = random.Random(4)
    for document in docs:
        if rng.random() < 0.4:
            store.remove(document.doc_id)
            reference.remove(document.doc_id)
    assert_index_equivalent(store, reference)
    # Re-add under new content; compiled caches must follow.
    replacement = IndexableDocument(
        docs[0].doc_id, {"body": "latency escrow latency"}, {"deal_id": "d"}
    )
    store.add(replacement)
    reference.add(replacement)
    assert_index_equivalent(store, reference)


def test_compact_collapses_to_one_clean_segment():
    docs = make_docs(docs=40)
    store, reference = build_pair(docs, memtable_limit=6)
    for doc_id in ("doc000", "doc013", "doc027"):
        store.remove(doc_id)
        reference.remove(doc_id)
    compact(store)
    assert len(store.segments) == 1
    assert not store.segments[0].tombstones
    assert len(store.memtable) == 0
    assert_index_equivalent(store, reference)


def test_duplicate_add_rejected():
    store, _ = build_pair(make_docs(docs=5), memtable_limit=2)
    with pytest.raises(SearchError):
        store.add(make_docs(docs=1)[0])


def test_remove_unknown_doc_rejected():
    store, _ = build_pair(make_docs(docs=5))
    with pytest.raises(SearchError):
        store.remove("doc999")


def test_save_load_round_trip(tmp_path):
    docs = make_docs(docs=50)
    store, reference = build_pair(docs, memtable_limit=12)
    store.remove("doc003")
    reference.remove("doc003")
    stats = store.save(str(tmp_path))
    assert stats["docs"] == len(reference)
    assert stats["bytes_per_doc"] > 0
    loaded = SegmentBackedIndex.load(str(tmp_path))
    assert_index_equivalent(loaded, reference)
    # The loaded store keeps working as a live index.
    loaded.add(
        IndexableDocument("fresh", {"body": "escrow audit"}, {})
    )
    reference.add(
        IndexableDocument("fresh", {"body": "escrow audit"}, {})
    )
    loaded.remove("doc010")
    reference.remove("doc010")
    assert_index_equivalent(loaded, reference)


def test_save_is_rerunnable_and_sweeps_orphans(tmp_path):
    store, reference = build_pair(make_docs(docs=40), memtable_limit=8)
    store.save(str(tmp_path))
    (tmp_path / "seg-999999.rsg").write_bytes(b"orphaned junk")
    for doc_id in ("doc001", "doc002"):
        store.remove(doc_id)
        reference.remove(doc_id)
    compact(store)
    store.save(str(tmp_path))
    assert not (tmp_path / "seg-999999.rsg").exists()
    manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())["payload"]
    referenced = {entry["file"] for entry in manifest["segments"]}
    on_disk = {p.name for p in tmp_path.glob("seg-*.rsg")}
    assert on_disk == referenced
    assert_index_equivalent(
        SegmentBackedIndex.load(str(tmp_path)), reference
    )


def test_load_missing_directory_raises(tmp_path):
    with pytest.raises(StorageError, match="cannot read .*MANIFEST.json"):
        SegmentBackedIndex.load(str(tmp_path / "nope"))


def test_load_foreign_manifest_raises(tmp_path):
    (tmp_path / MANIFEST_NAME).write_text('{"something": "else"}')
    with pytest.raises(StorageError, match="not a repro-segment-index"):
        SegmentBackedIndex.load(str(tmp_path))


def test_load_unparseable_manifest_raises(tmp_path):
    (tmp_path / MANIFEST_NAME).write_text("{truncated")
    with pytest.raises(StorageError, match="JSON"):
        SegmentBackedIndex.load(str(tmp_path))


def test_load_version_mismatch_raises(tmp_path):
    store, _ = build_pair(make_docs(docs=5))
    store.save(str(tmp_path))
    manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
    manifest["version"] = 99
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(StorageError, match="version"):
        SegmentBackedIndex.load(str(tmp_path))


def test_load_tampered_manifest_raises(tmp_path):
    store, _ = build_pair(make_docs(docs=5))
    store.save(str(tmp_path))
    manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
    manifest["payload"]["next_segment"] = 12345
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(StorageError, match="checksum"):
        SegmentBackedIndex.load(str(tmp_path))


def test_load_corrupt_segment_raises(tmp_path):
    store, _ = build_pair(make_docs(docs=30), memtable_limit=8)
    store.save(str(tmp_path))
    victim = next(iter(tmp_path.glob("seg-*.rsg")))
    data = bytearray(victim.read_bytes())
    data[len(data) // 2] ^= 0xFF
    victim.write_bytes(bytes(data))
    with pytest.raises(StorageError, match="checksum"):
        SegmentBackedIndex.load(str(tmp_path))


def test_load_truncated_segment_raises(tmp_path):
    store, _ = build_pair(make_docs(docs=30), memtable_limit=8)
    store.save(str(tmp_path))
    victim = next(iter(tmp_path.glob("seg-*.rsg")))
    victim.write_bytes(victim.read_bytes()[:-20])
    with pytest.raises(StorageError):
        SegmentBackedIndex.load(str(tmp_path))


def test_load_names_a_segment_that_does_not_decode(tmp_path):
    # A segment from another format version, with the manifest's
    # checksum and byte count rewritten to match it: only decoding can
    # tell, and the error must say which file.
    store, _ = build_pair(make_docs(docs=30), memtable_limit=8)
    store.save(str(tmp_path))
    manifest_path = tmp_path / MANIFEST_NAME
    manifest = read_manifest(
        str(manifest_path), MANIFEST_FORMAT, MANIFEST_VERSION
    )
    entry = manifest["segments"][0]
    victim = tmp_path / entry["file"]
    data = bytearray(victim.read_bytes())
    assert data[:4] == MAGIC and data[4] == FORMAT_VERSION
    data[4] = FORMAT_VERSION + 1
    victim.write_bytes(bytes(data))
    entry["checksum"] = checksum(bytes(data))
    entry["bytes"] = len(data)
    manifest_path.write_text(
        encode_document(MANIFEST_FORMAT, MANIFEST_VERSION, manifest)
    )
    with pytest.raises(StorageError, match="format version") as raised:
        SegmentBackedIndex.load(str(tmp_path))
    assert str(victim) in str(raised.value)


def test_load_refuses_a_version_one_segment_naming_the_file(tmp_path):
    # A well-formed segment in the old record layout, the manifest
    # rewritten to vouch for it: the loader must refuse it, not misread
    # its records.
    store, _ = build_pair(make_docs(docs=30), memtable_limit=8)
    store.save(str(tmp_path))
    manifest_path = tmp_path / MANIFEST_NAME
    manifest = read_manifest(
        str(manifest_path), MANIFEST_FORMAT, MANIFEST_VERSION
    )
    entry = manifest["segments"][0]
    victim = tmp_path / entry["file"]
    data = version_one(victim.read_bytes())
    victim.write_bytes(data)
    entry["checksum"] = checksum(data)
    entry["bytes"] = len(data)
    manifest_path.write_text(
        encode_document(MANIFEST_FORMAT, MANIFEST_VERSION, manifest)
    )
    with pytest.raises(StorageError, match="format version 1") as raised:
        SegmentBackedIndex.load(str(tmp_path))
    assert str(victim) in str(raised.value)


def test_the_docstore_cache_holds_field_maps_a_hit_cannot_write(tmp_path):
    store, _ = build_pair(make_docs(docs=30), memtable_limit=8)
    store.save(str(tmp_path))
    store = SegmentBackedIndex.load(str(tmp_path))
    engine = SearchEngine(index=store)
    hits = engine.search("network")
    assert hits and not len(store.memtable)
    for hit in hits:
        cached = store._doc_cache[hit.doc_id]
        kept = list(cached.items())
        assert kept == list(store.document(hit.doc_id).fields.items())
        with pytest.raises(TypeError):
            hit.fields["title"] = "changed"  # type: ignore[index]
        with pytest.raises(TypeError):
            del hit.fields["title"]  # type: ignore[attr-defined]
        assert store._doc_cache[hit.doc_id] is cached
        assert list(cached.items()) == kept == list(hit.fields.items())


def test_concurrent_readers_share_the_field_cache():
    # Searches read the store side by side under the engine's read
    # hold, and each read reorders or evicts cache entries: one
    # reader's eviction must not fail another reader's lookup.
    store = SegmentBackedIndex(memtable_limit=64)
    for document in make_docs(docs=600):
        store.add(document)
    store.flush()
    doc_ids = sorted(store.doc_ids)[:300]  # more than the cache holds
    errors = []

    def reader(seed):
        rng = random.Random(seed)
        try:
            for _ in range(10000):
                store.stored_fields(doc_ids[rng.randrange(len(doc_ids))])
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=reader, args=(seed,))
            for seed in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[:3]
    assert len(store._doc_cache) <= 256


def test_load_missing_segment_raises(tmp_path):
    store, _ = build_pair(make_docs(docs=30), memtable_limit=8)
    store.save(str(tmp_path))
    next(iter(tmp_path.glob("seg-*.rsg"))).unlink()
    with pytest.raises(StorageError, match="missing segment"):
        SegmentBackedIndex.load(str(tmp_path))


def test_directory_attached_store_spills_during_build(tmp_path):
    """Attached mode writes segments at flush time, not only at save."""
    store = SegmentBackedIndex(memtable_limit=8)
    store.directory = str(tmp_path)
    for document in make_docs(docs=30):
        store.add(document)
    assert list(tmp_path.glob("seg-*.rsg")), "flushes should hit disk"
    # No manifest until save(); a crash here must leave nothing loadable.
    assert not (tmp_path / MANIFEST_NAME).exists()
    store.save(str(tmp_path))
    assert (tmp_path / MANIFEST_NAME).exists()


def test_storage_gauges_flow_through_registry(tmp_path):
    with use_registry() as registry:
        store, _ = build_pair(make_docs(docs=40), memtable_limit=8)
        store.save(str(tmp_path))
        gauges = {
            name: value["value"]
            for name, value in registry.snapshot().items()
            if name.startswith("storage.") and value.get("type") == "gauge"
        }
        assert gauges["storage.segments"] == len(store.segments)
        assert gauges["storage.memtable_docs"] == 0
        assert gauges["storage.bytes_per_doc"] > 0
        assert registry.counter("storage.flushes").value > 0
