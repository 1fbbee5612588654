"""The four JSON manifests of a saved system reject damage the same way.

``eil-manifest.json``, ``SHARDS.json``, a segment store's
``MANIFEST.json`` and ``graph.json`` are each one JSON object with a
``format`` marker and a ``version``, read through
:func:`repro.storage.atomic.read_manifest`.  Whatever is wrong with the
file, its loader raises :class:`StorageError` naming the file.
"""

import json
import os
import shutil

import pytest

from repro import CorpusConfig, CorpusGenerator, EILSystem
from repro.errors import StorageError
from repro.graph import EntityGraph
from repro.serving.sharding import ShardedIndex
from repro.storage import MANIFEST_NAME, SegmentBackedIndex

SHARDS = 2


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


def _edited(**fields):
    def damage(text):
        return json.dumps({**json.loads(text), **fields})
    return damage


DAMAGE = {
    "truncated": lambda text: text[: len(text) // 2],
    "non-json": lambda text: "not json {",
    "non-object": lambda text: "[1, 2]",
    "wrong-format": _edited(format="someone-elses-file"),
    "wrong-version": _edited(version=99),
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


# -- the shard count has one source: SHARDS.json -------------------------------


def _edit_json(path, **fields):
    path.write_text(_edited(**fields)(path.read_text()))


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
    _edit_json(path, shards=recorded)
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
        _edit_json(root / EILSystem.EIL_MANIFEST, shards=recorded)
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
