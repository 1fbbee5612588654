"""The four JSON files of a saved system share one checksummed envelope.

``eil-manifest.json``, the segment store's ``MANIFEST.json``,
``synopsis.json`` and ``graph.json`` are each an
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
from repro.storage import MANIFEST_NAME, SegmentBackedIndex
from repro.storage.atomic import decode_document, encode_document
from repro.storage.store import MANIFEST_FORMAT, MANIFEST_VERSION

_USER = User("tester", frozenset({"sales"}))


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(
        CorpusConfig(n_deals=2, docs_per_deal=12, n_threads=0)
    ).generate()


@pytest.fixture(scope="module")
def saved(corpus, tmp_path_factory):
    directory = tmp_path_factory.mktemp("saved-system")
    EILSystem.build(corpus).save_index(str(directory))
    return directory


#: file (relative to the saved directory) -> what loads it, given the
#: saved directory and the corpus.
LOADERS = {
    EILSystem.EIL_MANIFEST: lambda root, corpus: EILSystem.load(root, corpus),
    os.path.join("index", MANIFEST_NAME): (
        lambda root, corpus: SegmentBackedIndex.load(
            os.path.join(root, "index")
        )
    ),
    "graph.json": lambda root, corpus: EntityGraph.load(
        os.path.join(root, "graph.json")
    ),
}

#: every JSON file of a saved system -> its (format, version) as the
#: code declares them.
FORMATS = {
    EILSystem.EIL_MANIFEST: (EILSystem._EIL_FORMAT, EILSystem._EIL_VERSION),
    os.path.join("index", MANIFEST_NAME): (MANIFEST_FORMAT, MANIFEST_VERSION),
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


# -- one codec, four kinds ------------------------------------------------------


def test_every_json_file_decodes_through_the_one_codec(saved):
    found = {
        os.path.relpath(os.path.join(directory, name), saved)
        for directory, _, names in os.walk(saved)
        for name in names
        if name.endswith(".json")
    }
    assert found == set(FORMATS)
    assert len(set(FORMATS.values())) == 4
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
def system(corpus, tmp_path_factory):
    """(saved directory, its undamaged fingerprint, the files of the
    save)."""
    root = tmp_path_factory.mktemp("damage")
    EILSystem.build(corpus).save_index(str(root))
    files = sorted(
        os.path.relpath(os.path.join(directory, name), root)
        for directory, _, names in os.walk(root)
        for name in names
    )
    return root, load_outcome(root, corpus), files


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
    system, corpus, data
):
    root, undamaged, files = system
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
    (os.path.join("index", MANIFEST_NAME), "segments", 7),
    (os.path.join("index", MANIFEST_NAME), "segments", ["x"]),
    (os.path.join("index", MANIFEST_NAME), "segments", None),
    (os.path.join("index", MANIFEST_NAME), "next_segment", "x"),
    (os.path.join("index", MANIFEST_NAME), "next_segment", None),
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
