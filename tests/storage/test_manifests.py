"""The five JSON files of a saved system share one checksummed envelope.

``eil-manifest.json``, ``SHARDS.json``, a segment store's
``MANIFEST.json``, ``synopsis.json`` and ``graph.json`` are each an
:func:`repro.storage.atomic.encode_document` document: canonical JSON
``{"checksum", "format", "payload", "version"}`` with the checksum over
the payload.  Whatever is wrong with a file, its loader raises a typed
error naming the file — :class:`StorageError`, or
:class:`DatabaseError` for ``synopsis.json`` — and damage anywhere in a
saved system, segments included, never loads as a quietly different
system.
"""

import dataclasses
import json
import os
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CorpusConfig, CorpusGenerator, EILSystem
from repro.core.metaqueries import (
    role_capacity_query,
    scope_query,
    service_keyword_query,
    worked_with_query,
)
from repro.db.persistence import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    dumps_database,
)
from repro.errors import DatabaseError, StorageError
from repro.graph import EntityGraph
from repro.graph.graph import _GRAPH_FORMAT, _GRAPH_VERSION
from repro.security.access import User
from repro.serving.sharding import ShardedIndex
from repro.storage import MANIFEST_NAME, SegmentBackedIndex
from repro.storage.atomic import decode_document, encode_document
from repro.storage.store import MANIFEST_FORMAT, MANIFEST_VERSION

SHARDS = 2
_USER = User("tester", frozenset({"sales"}))


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(
        CorpusConfig(n_deals=2, docs_per_deal=12, n_threads=0)
    ).generate()


@pytest.fixture(scope="module")
def saved(corpus, tmp_path_factory):
    directory = tmp_path_factory.mktemp("saved-system")
    EILSystem.build(corpus, shards=SHARDS).save_index(str(directory))
    return directory


#: file (relative to the saved directory) -> what loads it, given the
#: saved directory and the corpus.
LOADERS = {
    EILSystem.EIL_MANIFEST: lambda root, corpus: EILSystem.load(root, corpus),
    os.path.join("index", ShardedIndex.SHARDS_MANIFEST): (
        lambda root, corpus: ShardedIndex.load(os.path.join(root, "index"))
    ),
    os.path.join("index", "shard-00", MANIFEST_NAME): (
        lambda root, corpus: SegmentBackedIndex.load(
            os.path.join(root, "index", "shard-00")
        )
    ),
    "graph.json": lambda root, corpus: EntityGraph.load(
        os.path.join(root, "graph.json")
    ),
}

#: every JSON file of a saved 2-shard system -> its (format, version)
#: as the code declares them.
FORMATS = {
    EILSystem.EIL_MANIFEST: (EILSystem._EIL_FORMAT, EILSystem._EIL_VERSION),
    os.path.join("index", ShardedIndex.SHARDS_MANIFEST): (
        ShardedIndex._SHARDS_FORMAT, ShardedIndex._SHARDS_VERSION
    ),
    **{
        os.path.join("index", f"shard-{n:02d}", MANIFEST_NAME): (
            MANIFEST_FORMAT, MANIFEST_VERSION
        )
        for n in range(SHARDS)
    },
    "synopsis.json": (SNAPSHOT_FORMAT, SNAPSHOT_VERSION),
    "graph.json": (_GRAPH_FORMAT, _GRAPH_VERSION),
}


def _edited(**fields):
    def damage(text):
        return json.dumps({**json.loads(text), **fields})
    return damage


def _without(key):
    def damage(text):
        document = json.loads(text)
        del document[key]
        return json.dumps(document)
    return damage


def _payload_edited(text):
    """One payload value changed, the stored checksum left as it was."""
    document = json.loads(text)
    key = sorted(document["payload"])[0]
    document["payload"][key] = ["edited"]
    return json.dumps(document)


DAMAGE = {
    "truncated": lambda text: text[: len(text) // 2],
    "non-json": lambda text: "not json {",
    "non-object": lambda text: "[1, 2]",
    "wrong-format": _edited(format="someone-elses-file"),
    "wrong-version": _edited(version=99),
    "wrong-checksum": _edited(checksum="0" * 32),
    "no-checksum": _without("checksum"),
    "no-payload": _without("payload"),
    "payload-edited": _payload_edited,
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize("relative", sorted(LOADERS))
def test_damaged_manifest_raises_storage_error_naming_the_file(
    saved, corpus, tmp_path, relative, damage
):
    root = tmp_path / "copy"
    shutil.copytree(saved, root)
    LOADERS[relative](str(root), corpus)  # the copy loads before the damage
    path = root / relative
    path.write_text(DAMAGE[damage](path.read_text()))
    with pytest.raises(StorageError) as raised:
        LOADERS[relative](str(root), corpus)
    assert str(path) in str(raised.value)


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_synopsis_raises_database_error_naming_the_file(
    saved, corpus, tmp_path, damage
):
    root = tmp_path / "copy"
    shutil.copytree(saved, root)
    path = root / "synopsis.json"
    path.write_text(DAMAGE[damage](path.read_text()))
    with pytest.raises(DatabaseError) as raised:
        EILSystem.load(str(root), corpus)
    assert str(path) in str(raised.value)


# -- one codec, five kinds ------------------------------------------------------


def test_every_json_file_decodes_through_the_one_codec(saved):
    found = {
        os.path.relpath(os.path.join(directory, name), saved)
        for directory, _, names in os.walk(saved)
        for name in names
        if name.endswith(".json")
    }
    assert found == set(FORMATS)
    assert len(set(FORMATS.values())) == 5
    for relative, (kind, version) in FORMATS.items():
        text = (saved / relative).read_text()
        payload = decode_document(text, kind, version, relative)
        # Canonical: re-encoding the payload gives back the file.
        assert encode_document(kind, version, payload) == text, relative
        assert text == json.dumps(
            json.loads(text), sort_keys=True, separators=(",", ":")
        ), relative


def _previous_layout(relative, text):
    """``text`` as the code before the shared envelope wrote it."""
    document = json.loads(text)
    payload = document["payload"]
    if relative == "synopsis.json":
        return json.dumps({"version": 2, "checksum": document["checksum"],
                           **payload})
    if relative == "graph.json":
        return json.dumps({"format": document["format"], "version": 1,
                           "checksum": document["checksum"],
                           "graph": payload})
    return json.dumps({"format": document["format"], "version": 1,
                       **payload})


@pytest.mark.parametrize("relative", sorted(FORMATS))
def test_a_snapshot_saved_before_the_envelope_is_rejected(
    saved, corpus, tmp_path, relative
):
    root = tmp_path / "copy"
    shutil.copytree(saved, root)
    path = root / relative
    path.write_text(_previous_layout(relative, path.read_text()))
    with pytest.raises((StorageError, DatabaseError)) as raised:
        EILSystem.load(str(root), corpus)
    assert str(path) in str(raised.value)
    expected = DatabaseError if relative == "synopsis.json" else StorageError
    assert isinstance(raised.value, expected)


# -- the shard count has one source: SHARDS.json -------------------------------


def _forge(path, **fields):
    """Rewrite ``path``'s payload with ``fields``, checksum included: what
    a loader sees past an envelope that checks out."""
    document = json.loads(path.read_text())
    path.write_text(encode_document(
        document["format"], document["version"],
        {**document["payload"], **fields},
    ))


def test_loaded_index_takes_its_shard_count_from_shards_json(saved):
    index = ShardedIndex.load(os.path.join(saved, "index"))
    assert len(index.parts) == SHARDS
    assert len(index) == sum(len(part) for part in index.parts) > 0


@pytest.mark.parametrize("recorded", [0, "2", None])
def test_shards_json_with_an_unusable_count_is_rejected(
    saved, tmp_path, recorded
):
    root = tmp_path / "copy"
    shutil.copytree(saved, root)
    path = root / "index" / ShardedIndex.SHARDS_MANIFEST
    _forge(path, shards=recorded)
    with pytest.raises(StorageError) as raised:
        ShardedIndex.load(str(root / "index"))
    assert str(path) in str(raised.value)


def test_mixed_generation_snapshot_is_rejected_naming_both_files(
    saved, corpus, tmp_path
):
    """``eil-manifest.json`` from one save beside an ``index/`` from
    another: whichever of the two counts is off, both files are named."""
    unsharded = tmp_path / "unsharded"
    EILSystem.build(corpus, shards=1).save_index(str(unsharded))
    for name, source, recorded in [
        ("manifest-says-3", saved, 3),
        ("manifest-says-1", saved, 1),
        ("index-is-unsharded", unsharded, SHARDS),
    ]:
        root = tmp_path / name
        shutil.copytree(source, root)
        _forge(root / EILSystem.EIL_MANIFEST, shards=recorded)
        with pytest.raises(StorageError) as raised:
            EILSystem.load(str(root), corpus)
        message = str(raised.value)
        assert str(root / EILSystem.EIL_MANIFEST) in message, name
        assert str(
            root / "index" / ShardedIndex.SHARDS_MANIFEST
        ) in message, name


@pytest.mark.parametrize("requested", [1, 4])
def test_explicit_shards_that_disagree_with_the_saved_count(
    saved, corpus, requested
):
    with pytest.raises(StorageError) as raised:
        EILSystem.load(str(saved), corpus, shards=requested)
    message = str(raised.value)
    assert f"saved with {SHARDS} shard(s) but {requested} requested" in message
    # EILSystem.load ignores the environment on purpose: no advice to set it.
    assert "REPRO_SHARDS" not in message and "--shards" not in message
    assert EILSystem.load(str(saved), corpus, shards=SHARDS).shards == SHARDS


# -- damage anywhere: a typed error naming the file, or no change at all -------


def fingerprint(eil, corpus):
    """What a loaded system answers: keyword rankings, four form
    searches and the synopsis tables."""
    person = corpus.deals[0].team[0].person.full_name
    forms = [
        scope_query("End User Services"),
        service_keyword_query("Storage Management Services",
                              "data replication"),
        worked_with_query(person),
        role_capacity_query("cross tower TSA"),
    ]
    return (
        [
            [(hit.doc_id, hit.score) for hit in eil.keyword_search(q, 10)]
            for q in ("network migration", "security", "services OR storage")
        ],
        [dataclasses.asdict(eil.search(form, _USER)) for form in forms],
        dumps_database(eil.organized.db),
    )


def load_outcome(root, corpus):
    """The loaded system's fingerprint, or the typed error load raised."""
    try:
        eil = EILSystem.load(str(root), corpus)
    except (StorageError, DatabaseError) as exc:
        return exc
    return fingerprint(eil, corpus)


@pytest.fixture(scope="module")
def systems(corpus, tmp_path_factory):
    """shard count -> (saved directory, its undamaged fingerprint, the
    files of the save)."""
    found = {}
    for shards in (1, SHARDS):
        root = tmp_path_factory.mktemp(f"damage-{shards}")
        EILSystem.build(corpus, shards=shards).save_index(str(root))
        files = sorted(
            os.path.relpath(os.path.join(directory, name), root)
            for directory, _, names in os.walk(root)
            for name in names
        )
        found[shards] = (root, load_outcome(root, corpus), files)
    return found


def _leaves(value, path=()):
    """Every (path, scalar) inside a decoded JSON value."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], path + (key,))
    elif isinstance(value, list):
        for position, item in enumerate(value):
            yield from _leaves(item, path + (position,))
    else:
        yield path, value


def _one_value_changed(original, data):
    """``original`` JSON with one payload scalar replaced, re-serialized
    as valid JSON; the checksum is left alone."""
    document = json.loads(original)
    leaves = list(_leaves(document["payload"], ("payload",)))
    path, old = data.draw(st.sampled_from(leaves), label="value")
    new = data.draw(
        st.one_of(st.none(), st.booleans(), st.integers(-3, 99),
                  st.text(max_size=4)).filter(lambda v: v != old
                                              or type(v) is not type(old)),
        label="replacement",
    )
    parent = document
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = new
    return json.dumps(document).encode("utf-8")


#: What a forged top-level payload field becomes (one of another type).
FORGED_VALUES = [None, True, 7, "x", [], {}]


def _forged(original, data):
    """``original`` with one top-level payload field deleted or given a
    value of another type, re-encoded so the envelope checks out: what
    a loader sees past the checksum."""
    document = json.loads(original)
    payload = document["payload"]
    field = data.draw(st.sampled_from(sorted(payload)), label="field")
    if data.draw(st.booleans(), label="delete"):
        del payload[field]
    else:
        payload[field] = data.draw(st.sampled_from([
            value for value in FORGED_VALUES
            if type(value) is not type(payload[field])
        ]), label="forged")
    return encode_document(
        document["format"], document["version"], payload
    ).encode("utf-8")


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_damage_is_a_typed_error_naming_the_file_or_changes_nothing(
    systems, corpus, data
):
    shards = data.draw(st.sampled_from(sorted(systems)), label="shards")
    root, undamaged, files = systems[shards]
    relative = data.draw(st.sampled_from(files), label="file")
    path = root / relative
    original = path.read_bytes()
    how = data.draw(st.sampled_from(
        ["byte", "truncate", "value", "forged"] if relative.endswith(".json")
        else ["byte", "truncate"]
    ), label="damage")
    if how == "byte":
        at = data.draw(st.integers(0, len(original) - 1), label="at")
        byte = data.draw(
            st.integers(0, 255).filter(lambda b: b != original[at]),
            label="byte",
        )
        damaged = original[:at] + bytes([byte]) + original[at + 1:]
    elif how == "truncate":
        damaged = original[:data.draw(
            st.integers(0, len(original) - 1), label="length"
        )]
    elif how == "value":
        damaged = _one_value_changed(original, data)
    else:
        damaged = _forged(original, data)
    path.write_bytes(damaged)
    try:
        outcome = load_outcome(root, corpus)
    finally:
        path.write_bytes(original)
    if isinstance(outcome, Exception):
        assert str(path) in str(outcome), (relative, how, outcome)
    else:
        assert outcome == undamaged, (relative, how)


#: (file, top-level payload field, forged value or None to delete it):
#: each used to load past its envelope into a bare TypeError,
#: ValueError, KeyError or AttributeError.
FORGED = [
    (EILSystem.EIL_MANIFEST, "build_report", 12345),
    (EILSystem.EIL_MANIFEST, "build_report", {"documents_indexed": 1}),
    (EILSystem.EIL_MANIFEST, "repositories", "ab"),
    (EILSystem.EIL_MANIFEST, "repositories", 7),
    (EILSystem.EIL_MANIFEST, "repositories", None),
    ("graph.json", "deals", 7),
    ("graph.json", "edges", 7),
    ("graph.json", "edges", ["x"]),
    ("graph.json", "deals", None),
    (os.path.join("index", "shard-00", MANIFEST_NAME), "segments", 7),
    (os.path.join("index", "shard-00", MANIFEST_NAME), "segments", ["x"]),
    (os.path.join("index", "shard-00", MANIFEST_NAME), "segments", None),
    (os.path.join("index", "shard-01", MANIFEST_NAME), "next_segment", "x"),
    (os.path.join("index", "shard-01", MANIFEST_NAME), "next_segment", None),
]


@pytest.mark.parametrize("relative,field,value", FORGED)
def test_a_forged_payload_field_raises_storage_error_naming_the_file(
    saved, corpus, tmp_path, relative, field, value
):
    root = tmp_path / "copy"
    shutil.copytree(saved, root)
    path = root / relative
    document = json.loads(path.read_text())
    payload = document["payload"]
    if value is None:
        del payload[field]
    else:
        payload[field] = value
    path.write_text(
        encode_document(document["format"], document["version"], payload)
    )
    with pytest.raises(StorageError) as raised:
        EILSystem.load(str(root), corpus)
    assert str(path) in str(raised.value)


@pytest.mark.parametrize("field,value", [
    ("repositories", "another-repository"),
    ("build_report", 12345),
])
def test_an_edited_eil_manifest_does_not_load(
    saved, corpus, tmp_path, field, value
):
    """The edit that used to load silently: one deal's repository (whose
    ACL guards that deal's documents), or the build report's document
    count, changed in valid JSON."""
    root = tmp_path / "copy"
    shutil.copytree(saved, root)
    path = root / EILSystem.EIL_MANIFEST
    document = json.loads(path.read_text())
    payload = document["payload"]
    if field == "repositories":
        deal = sorted(payload["repositories"])[0]
        payload["repositories"][deal] = value
    else:
        payload["build_report"]["documents_indexed"] = value
    path.write_text(json.dumps(document))
    with pytest.raises(StorageError, match="checksum") as raised:
        EILSystem.load(str(root), corpus)
    assert str(path) in str(raised.value)
