"""One conformance suite for the ``IndexReader`` protocol.

Every reader the tree has — the in-memory ``InvertedIndex``, a lone
``Segment`` and a ``SegmentBackedIndex`` in each layout the LSM store
can be in, cold-loaded included — is driven through
the same add/remove script and must then answer every protocol member
and every derived operation exactly as the dict-of-docs model does
(``tests/reference/index.py``): first after a fixed script that plants
the awkward cases, then after hypothesis-drawn interleavings.
"""

import shutil
import tempfile
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SearchError
from repro.obs import use_registry
from repro.search import IndexableDocument, IndexReader, InvertedIndex
from repro.storage import SegmentBackedIndex
from repro.storage.segment import Segment, encode_from_index
from tests.reference.index import DictOfDocs, assert_conforms
from tests.storage.test_store import compact

Op = Tuple[str, Any]  # ("add", IndexableDocument) | ("remove", doc_id)


def _doc(doc_id: str, fields: Dict[str, str], **metadata) -> Op:
    return ("add", IndexableDocument(doc_id, fields, metadata))


#: Plants, in order: repeated terms ("wan wan wan" makes the phrases
#: (wan, wan) and (wan, wan, wan) true, "wan lan wan" only via a gap),
#: a stopword gap inside a would-be phrase, a field that is present but
#: empty, one that is present and all stopwords, documents missing a
#: field, a term in two fields of one document, unhashable and integer
#: metadata, removals of old (flushed) and recent documents, and an id
#: re-added under new content.
FIXED_SCRIPT: List[Op] = [
    _doc("a", {"title": "wan migration", "body": "wan wan wan lan"},
         deal_id="d1", rank=1),
    _doc("b", {"title": "storage network",
               "body": "wan lan wan storage of network"},
         deal_id="d1", rank=2, tags=["x", "y"]),
    _doc("c", {"title": "", "body": "storage storage migration services"},
         deal_id="d2", rank=1),
    _doc("d", {"title": "the of and", "body": "network storage"},
         deal_id="d2"),
    _doc("e", {"body": "migration services wan"}, deal_id="d3", rank=2),
    _doc("f", {"title": "lan wan", "notes": "escrow audit"},
         deal_id="d3", tags=["x"]),
    ("remove", "a"),
    _doc("g", {"title": "wan wan", "body": "services migration wan lan"},
         deal_id="d1", rank=3),
    _doc("h", {"body": "network network lan wan wan"}, deal_id="d2"),
    ("remove", "f"),
    _doc("a", {"title": "escrow", "body": "lan wan lan"},
         deal_id="d3", rank=1),
    _doc("i", {"title": "storage migration", "body": ""}, deal_id="d1"),
    ("remove", "h"),
    _doc("j", {"title": "audit", "body": "wan storage wan"},
         deal_id="d2", rank=2),
]


def _replay(ops: List[Op], add: Callable, remove: Callable) -> None:
    for kind, argument in ops:
        (add if kind == "add" else remove)(argument)


def _model(ops: List[Op]) -> DictOfDocs:
    model = DictOfDocs()
    _replay(ops, model.add, model.remove)
    return model


# -- the readers ---------------------------------------------------------------


@contextmanager
def _inverted(ops: List[Op]) -> Iterator[IndexReader]:
    index = InvertedIndex()
    _replay(ops, index.add, index.remove)
    yield index


@contextmanager
def _lone_segment(ops: List[Op]) -> Iterator[IndexReader]:
    """A segment is written once: it holds the last version of every id
    the script ever added, and the ones the script leaves removed are
    tombstoned in it."""
    latest: Dict[str, IndexableDocument] = {}
    live = set()
    for kind, argument in ops:
        if kind == "add":
            latest[argument.doc_id] = argument
            live.add(argument.doc_id)
        else:
            live.discard(argument)
    index = InvertedIndex()
    for document in latest.values():
        index.add(document)
    segment = Segment.from_bytes(encode_from_index(index))
    for doc_id in sorted(set(latest) - live):
        assert segment.tombstone(doc_id)
    yield segment


def _store(memtable_limit: int, merge_fanout: int, then: str = ""):
    @contextmanager
    def build(ops: List[Op]) -> Iterator[IndexReader]:
        store = SegmentBackedIndex(
            memtable_limit=memtable_limit, merge_fanout=merge_fanout
        )
        _replay(ops, store.add, store.remove)
        if then == "compact":
            compact(store)
        if then != "save+load":
            yield store
            return
        directory = tempfile.mkdtemp(prefix="index-reader-")
        try:
            store.save(directory)
            store.close()
            loaded = SegmentBackedIndex.load(directory)
            try:
                yield loaded
            finally:
                loaded.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    return build


READERS = {
    "inverted": _inverted,
    "segment": _lone_segment,
    "store-memtable": _store(4096, 4),
    # Fan-out 64 never merges: what is flushed stays as flushed.
    "store-flushed": _store(3, 64),
    "store-tiered": _store(2, 2),
    # Two documents per segment and no merge to drop a tombstone: only
    # a segment with both of its documents dead is ever discarded.
    "store-tombstoned": _store(2, 64),
    "store-compacted": _store(3, 3, then="compact"),
    "store-loaded": _store(3, 3, then="save+load"),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_fixed_script_conforms(name):
    with use_registry() as registry, READERS[name](FIXED_SCRIPT) as reader:
        assert isinstance(reader, IndexReader)
        assert_conforms(reader, _model(FIXED_SCRIPT))
        # Each layout is the layout its name says.
        if name == "segment":
            assert reader.tombstones
        elif name == "store-memtable":
            assert not reader.segments and len(reader.memtable)
        elif name == "store-flushed":
            assert len(reader.segments) >= 3 and len(reader.memtable)
            assert registry.counter("storage.merges").value == 0
        elif name == "store-tiered":
            assert registry.counter("storage.merges").value >= 2
            # A composite of three or more parts: segments of several
            # merge tiers, then the memtable.
            assert len(reader.parts) >= 3
        elif name == "store-tombstoned":
            assert any(segment.tombstones for segment in reader.segments)
        elif name == "store-compacted":
            assert len(reader.segments) == 1 and not len(reader.memtable)
            assert not reader.segments[0].tombstones
        elif name == "store-loaded":
            assert reader.segments and all(
                segment.path for segment in reader.segments
            )


@pytest.mark.parametrize("name", sorted(READERS))
def test_metadata_value_of_a_removed_document_raises(name):
    """"f" and "h" stay removed: dropped from a dict, tombstoned in a
    segment, or merged away — in no column, and their documents not
    answered for, on any layout."""
    with READERS[name](FIXED_SCRIPT) as reader:
        deals = reader.metadata_column("deal_id").values
        for doc_id in ("f", "h", "never-added"):
            assert doc_id not in deals
            with pytest.raises(SearchError):
                reader.document(doc_id)
        # "a" was removed and re-added under another deal.
        assert deals["a"] == "d3"
        # A list is in no column; the stored document has it.
        assert "b" not in reader.metadata_column("tags").values
        assert reader.document("b").metadata["tags"] == ["x", "y"]
        assert reader.metadata_column("rank").values["b"] == 2
        assert "d" not in reader.metadata_column("rank").values


@pytest.mark.parametrize("name", ["inverted", "store-memtable"])
def test_metadata_value_the_index_never_holds(name):
    """Readers that keep the document object itself also keep values no
    segment could encode: a set (unhashable), a frozenset (hashable,
    not JSON).  Neither ``docs_with_metadata`` nor the column holds the
    first; the column holds the second; the document has both."""
    ops = [
        _doc("s", {"body": "wan"}, deal_id={"x", "y"}),
        _doc("t", {"body": "lan"}, deal_id=frozenset({"x"})),
    ]
    with READERS[name](ops) as reader:
        column = reader.metadata_column("deal_id")
        assert column.values == {"t": frozenset({"x"})}
        assert reader.document("s").metadata["deal_id"] == {"x", "y"}
        assert reader.docs_with_metadata("deal_id", [{"x", "y"}]) == set()


@pytest.mark.parametrize("name", sorted(set(READERS) - {"segment"}))
def test_columns_made_before_the_writes_stay_current(name):
    """A column is made once and then kept by the reader's own writes —
    adds, removals, flushes, merges, tombstones — never rebuilt."""
    keys = ("deal_id", "rank", "tags", "ghost_key")
    head, tail = FIXED_SCRIPT[:2], FIXED_SCRIPT[2:]
    with READERS[name](head) as reader:
        columns = [reader.metadata_column(key) for key in keys]
        _replay(tail, reader.add, reader.remove)
        assert [reader.metadata_column(key) for key in keys] == columns
        assert all(
            reader.metadata_column(key) is column
            for key, column in zip(keys, columns)
        )
        assert_conforms(reader, _model(FIXED_SCRIPT))


def _kept_columns(reader):
    """Every column a reader below the top of ``reader``'s tree keeps."""
    kept = []
    for part in getattr(reader, "parts", ()):
        kept += list(getattr(part, "_columns", {}).values())
        kept += _kept_columns(part)
    return kept


@pytest.mark.parametrize(
    "name", sorted(set(READERS) - {"inverted", "segment"})
)
def test_only_the_top_reader_keeps_a_column(name):
    """A composite builds its union from parts that keep no column of
    their own, so each document's value is held once however deep the
    tree (a store: segments and a memtable)."""
    head, tail = FIXED_SCRIPT[:2], FIXED_SCRIPT[2:]
    with READERS[name](head) as reader:
        for key in ("deal_id", "rank"):
            reader.metadata_column(key)
        _replay(tail, reader.add, reader.remove)
        assert_conforms(reader, _model(FIXED_SCRIPT))
        assert _kept_columns(reader) == []


def test_loaded_store_keeps_conforming_as_it_is_written_to():
    head, tail = FIXED_SCRIPT[:9], FIXED_SCRIPT[9:]
    with READERS["store-loaded"](head) as store:
        _replay(tail, store.add, store.remove)
        assert_conforms(store, _model(FIXED_SCRIPT))


def test_average_length_divides_the_summed_integers_once():
    """29 tokens over 7 documents is the smallest part whose own average
    does not multiply back (29 / 7 * 7 != 29): a composite that combines
    per-part averages, however carefully weighted, lands one ulp away
    from the single index's 30 / 8."""
    lengths = [5, 4, 4, 4, 4, 4, 4, 1]
    ops = [
        _doc(f"doc{i}", {"body": " ".join(["wan"] * n)}, deal_id="d1")
        for i, n in enumerate(lengths)
    ]
    with _store(7, 64)(ops) as store, _inverted(ops) as single:
        assert [len(part) for part in store.parts] == [7, 1]
        assert store.average_length("body") == 30 / 8
        assert single.average_length("body") == 30 / 8


# -- generated interleavings ---------------------------------------------------

_WORDS = ["wan", "lan", "storage", "network", "migration", "the", "of"]
_TEXTS = st.lists(st.sampled_from(_WORDS), max_size=6).map(" ".join)
_FIELDS = st.fixed_dictionaries(
    {}, optional={"title": _TEXTS, "body": _TEXTS}
).filter(bool)
_METADATA = st.fixed_dictionaries(
    {"deal_id": st.sampled_from(["d1", "d2", "d3"])},
    optional={
        "rank": st.integers(0, 2),
        "tags": st.lists(st.sampled_from("xy"), max_size=2),
    },
)
_STEPS = st.lists(
    st.tuples(
        st.sampled_from([f"doc{i}" for i in range(6)]),
        st.one_of(st.none(), st.tuples(_FIELDS, _METADATA)),
    ),
    max_size=14,
)


def _script(steps) -> List[Op]:
    """A live id is removed (and re-added when the step carries
    content); a dead one is added when the step carries content."""
    ops: List[Op] = []
    live = set()
    for doc_id, content in steps:
        if doc_id in live:
            ops.append(("remove", doc_id))
            live.discard(doc_id)
        if content is not None:
            fields, metadata = content
            ops.append(("add", IndexableDocument(doc_id, fields, metadata)))
            live.add(doc_id)
    return ops


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(steps=_STEPS)
def test_generated_interleavings_conform(name, steps):
    ops = _script(steps)
    with READERS[name](ops) as reader:
        assert_conforms(reader, _model(ops))
