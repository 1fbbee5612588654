"""Entity-graph persistence: bit-identity, damage detection, rebuilds.

The storage contract mirrors the segment store's: canonical
serialization (save → load → save is byte-identical), checksum
verification on load, and a snapshot directory without graph.json
still cold-starts, rebuilding the graph from the synopsis database.
"""

import json
import os

import pytest

from repro import CorpusConfig, CorpusGenerator, EILSystem
from repro.errors import StorageError
from repro.graph import EntityGraph


@pytest.fixture(scope="module")
def world():
    corpus = CorpusGenerator(
        CorpusConfig(seed=2008, n_deals=4, docs_per_deal=12)
    ).generate()
    return corpus, EILSystem.build(corpus)


class TestBitIdentity:
    def test_save_load_save_is_byte_identical(self, world, tmp_path):
        _, eil = world
        first = tmp_path / "g1.json"
        second = tmp_path / "g2.json"
        eil.graph.save(str(first))
        EntityGraph.load(str(first)).save(str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_graph_answers_identically(self, world, tmp_path):
        corpus, eil = world
        path = tmp_path / "g.json"
        eil.graph.save(str(path))
        loaded = EntityGraph.load(str(path))
        person = corpus.deals[0].team[0].person.full_name
        import dataclasses

        assert dataclasses.asdict(loaded.worked_with(person)) == (
            dataclasses.asdict(eil.graph.worked_with(person))
        )
        assert loaded.stats()["edges"] == eil.graph.stats()["edges"]

    def test_document_shape(self, world, tmp_path):
        _, eil = world
        path = tmp_path / "g.json"
        eil.graph.save(str(path))
        text = path.read_text()
        document = json.loads(text)
        assert set(document) == {"checksum", "format", "payload", "version"}
        assert document["format"] == "repro-entity-graph"
        assert document["version"] == 2
        assert set(document["payload"]) == {"deals", "edges"}
        assert text == json.dumps(
            document, sort_keys=True, separators=(",", ":")
        )


class TestDamageDetection:
    def _saved(self, world, tmp_path):
        _, eil = world
        path = tmp_path / "g.json"
        eil.graph.save(str(path))
        return path

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(StorageError, match="cannot read"):
            EntityGraph.load(str(tmp_path / "absent.json"))

    def test_garbage_raises(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text("not json {")
        with pytest.raises(StorageError, match="invalid"):
            EntityGraph.load(str(path))

    def test_foreign_format_raises(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"format": "other", "graph": {}}')
        with pytest.raises(StorageError, match="not a repro-entity-graph"):
            EntityGraph.load(str(path))

    def test_future_version_raises(self, world, tmp_path):
        path = self._saved(world, tmp_path)
        document = json.loads(path.read_text())
        document["version"] = 99
        path.write_text(json.dumps(document))
        with pytest.raises(StorageError, match="version"):
            EntityGraph.load(str(path))

    def test_corrupted_payload_fails_checksum(self, world, tmp_path):
        path = self._saved(world, tmp_path)
        document = json.loads(path.read_text())
        document["payload"]["edges"][0]["deal_id"] = "tampered"
        path.write_text(json.dumps(document))
        with pytest.raises(StorageError, match="checksum"):
            EntityGraph.load(str(path))


class TestSystemColdStart:
    def test_save_index_writes_the_graph(self, world, tmp_path):
        _, eil = world
        eil.save_index(str(tmp_path))
        assert EntityGraph.load(str(tmp_path / "graph.json")).dumps() == (
            eil.graph.dumps()
        )
        # The system manifest does not name the file: load looks for it.
        manifest = json.loads(
            (tmp_path / EILSystem.EIL_MANIFEST).read_text()
        )
        assert "graph" not in manifest["payload"]

    def test_cold_start_graph_is_bit_identical(self, world, tmp_path):
        corpus, eil = world
        eil.save_index(str(tmp_path))
        cold = EILSystem.load(str(tmp_path), corpus)
        assert cold.graph.dumps() == eil.graph.dumps()
        # And a second save round-trips the same bytes.
        again = tmp_path / "again.json"
        cold.graph.save(str(again))
        assert again.read_bytes() == (tmp_path / "graph.json").read_bytes()

    def test_legacy_directory_without_graph_rebuilds(self, world,
                                                     tmp_path):
        """A snapshot without graph.json loads: the graph is rebuilt."""
        corpus, eil = world
        eil.save_index(str(tmp_path))
        os.remove(tmp_path / "graph.json")
        cold = EILSystem.load(str(tmp_path), corpus)
        # Rebuilt from the synopsis DB: same graph, byte for byte.
        assert cold.graph.dumps() == eil.graph.dumps()

    def test_corrupt_graph_file_fails_the_cold_start(self, world,
                                                     tmp_path):
        corpus, eil = world
        eil.save_index(str(tmp_path))
        graph_path = tmp_path / "graph.json"
        document = json.loads(graph_path.read_text())
        document["payload"]["edges"] = []
        graph_path.write_text(json.dumps(document))
        with pytest.raises(StorageError, match="checksum"):
            EILSystem.load(str(tmp_path), corpus)

    def test_mutations_after_cold_start_keep_the_graph(self, world,
                                                       tmp_path):
        corpus, eil = world
        eil.save_index(str(tmp_path))
        cold = EILSystem.load(str(tmp_path), corpus)
        victim = corpus.deals[0].deal_id
        workbook = next(w for w in corpus.collection if w.deal_id == victim)
        cold.remove_deal(victim)
        assert victim not in cold.graph.deal_ids()
        cold.add_workbook(workbook)
        assert victim in cold.graph.deal_ids()
