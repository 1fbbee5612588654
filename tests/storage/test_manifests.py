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
from repro.serving.sharding import ShardedSearchEngine
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
    os.path.join("index", ShardedSearchEngine.SHARDS_MANIFEST): (
        lambda root, corpus: ShardedSearchEngine(shards=SHARDS).load_index(
            os.path.join(root, "index")
        )
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
