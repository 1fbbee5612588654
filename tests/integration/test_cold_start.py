"""Cold-start equivalence: build → persist → load → identical answers.

The acceptance contract for persistent storage: a system loaded from
disk is indistinguishable from the freshly built one — same rankings
and counts bit-for-bit, same synopses, and the loaded system keeps
supporting incremental maintenance (``add_workbook`` / ``remove_deal``)
— including when the index was built sharded.  One test loads in a
genuinely fresh process to prove nothing leaks through interpreter
state.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.core.eil import EILSystem
from repro.core.metaqueries import (
    role_capacity_query,
    scope_query,
    service_keyword_query,
    worked_with_query,
)
from repro.corpus import DealGenerator, WorkbookFactory
from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.db.persistence import SNAPSHOT_VERSION, dumps_database
from repro.errors import StorageError
from repro.faults import FaultInjector, FaultRule, use_injector
from repro.eval import run_table2
from repro.security.access import User
from repro.storage.atomic import encode_document

_USER = User("tester", frozenset({"sales"}))
_CONFIG = dict(seed=2008, n_deals=6, docs_per_deal=14)
_KEYWORDS = ["network migration", "help desk outsourcing", "security",
             "storage OR network OR services"]
_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(CorpusConfig(**_CONFIG)).generate()


@pytest.fixture(scope="module")
def built(corpus):
    return EILSystem.build(corpus)


def keyword_fingerprint(eil):
    return [
        [
            [(hit.doc_id, hit.score) for hit in eil.keyword_search(q, 10)],
            eil.keyword_count(q),
        ]
        for q in _KEYWORDS
    ]


def form_fingerprint(eil, corpus):
    member = corpus.deals[0].team[0]
    results = []
    for form in (
        scope_query("End User Services"),
        service_keyword_query("Storage Management Services",
                              "data replication"),
    ):
        outcome = eil.search(form, _USER)
        results.append(
            [
                [(a.deal_id, a.score) for a in outcome.activities],
                outcome.scoped,
            ]
        )
    return results


def test_cold_start_same_process(built, corpus, tmp_path):
    built.save_index(str(tmp_path))
    cold = EILSystem.load(str(tmp_path), corpus)
    assert keyword_fingerprint(cold) == keyword_fingerprint(built)
    assert form_fingerprint(cold, corpus) == form_fingerprint(built, corpus)
    assert cold.deal_ids() == built.deal_ids()
    for deal_id in built.deal_ids():
        assert dataclasses.asdict(cold.synopsis(deal_id, _USER)) == (
            dataclasses.asdict(built.synopsis(deal_id, _USER))
        )
    assert cold.build_report == built.build_report


def test_a_snapshot_whose_indexes_were_sorted_loads(built, corpus, tmp_path):
    # Before the range access path went, every index of synopsis.json
    # was written with "sorted": true.  The snapshot version did not
    # move: such a file still loads, the flag ignored, and the synopsis
    # views and meta-queries 1-4 answer as the system it came from.
    built.save_index(str(tmp_path))
    path = tmp_path / "synopsis.json"
    document = json.loads(path.read_text())
    assert document["version"] == SNAPSHOT_VERSION
    payload = document["payload"]
    specs = [spec for table in payload["tables"] for spec in table["indexes"]]
    assert specs
    for spec in specs:
        spec["sorted"] = True
    path.write_text(
        encode_document(document["format"], document["version"], payload)
    )
    cold = EILSystem.load(str(tmp_path), corpus)
    member = corpus.deals[0].team[0]
    forms = [
        scope_query("End User Services"),
        worked_with_query(member.person.full_name,
                          member.person.organization),
        role_capacity_query(member.role),
        service_keyword_query("Storage Management Services",
                              "data replication"),
        service_keyword_query("Storage Management Services",
                              "data replication", in_synopsis=True),
    ]
    for form in forms:
        expected = built.search(form, _USER)
        answered = cold.search(form, _USER)
        assert [(a.deal_id, a.score) for a in answered.activities] == [
            (a.deal_id, a.score) for a in expected.activities
        ], form
    for deal_id in built.deal_ids():
        assert dataclasses.asdict(cold.synopsis(deal_id, _USER)) == (
            dataclasses.asdict(built.synopsis(deal_id, _USER))
        )


def test_cold_start_supports_mutations(built, corpus, tmp_path):
    built.save_index(str(tmp_path))
    cold = EILSystem.load(str(tmp_path), corpus)
    workbook = next(iter(corpus.collection))
    removed = cold.remove_deal(workbook.deal_id)
    assert removed > 0
    assert workbook.deal_id not in cold.deal_ids()
    cold.add_workbook(workbook)
    assert workbook.deal_id in cold.deal_ids()
    # After remove + re-add the system answers like the original.
    mutated = keyword_fingerprint(cold)
    assert [counts for _, counts in mutated] == [
        counts for _, counts in keyword_fingerprint(built)
    ]


def test_cold_start_fresh_process(built, corpus, tmp_path):
    built.save_index(str(tmp_path))
    script = (
        "import json, sys\n"
        "from repro.core.eil import EILSystem\n"
        "from repro.corpus.generator import CorpusConfig, CorpusGenerator\n"
        f"corpus = CorpusGenerator(CorpusConfig(**{_CONFIG!r})).generate()\n"
        f"eil = EILSystem.load({str(tmp_path)!r}, corpus)\n"
        f"queries = {_KEYWORDS!r}\n"
        "out = [[[ [h.doc_id, h.score] for h in eil.keyword_search(q, 10)],\n"
        "        eil.keyword_count(q)] for q in queries]\n"
        "print(json.dumps(out))\n"
    )
    env = dict(os.environ, PYTHONPATH=_SRC)
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    fresh = json.loads(result.stdout)
    local = json.loads(json.dumps([
        [[[d, s] for d, s in hits], count]
        for hits, count in keyword_fingerprint(built)
    ]))
    assert fresh == local


def test_cold_start_sharded(corpus, tmp_path):
    built = EILSystem.build(corpus, shards=2)
    built.save_index(str(tmp_path))
    # REPRO_SHARDS must NOT override the persisted partitioning.
    os.environ["REPRO_SHARDS"] = "3"
    try:
        cold = EILSystem.load(str(tmp_path), corpus)
    finally:
        del os.environ["REPRO_SHARDS"]
    assert cold.shards == 2
    assert keyword_fingerprint(cold) == keyword_fingerprint(built)
    workbook = next(iter(corpus.collection))
    assert cold.remove_deal(workbook.deal_id) > 0
    cold.add_workbook(workbook)


def test_shard_mismatch_rejected(corpus, tmp_path):
    EILSystem.build(corpus, shards=2).save_index(str(tmp_path))
    with pytest.raises(StorageError, match="shard"):
        EILSystem.load(str(tmp_path), corpus, shards=4)


def test_missing_or_foreign_directory_rejected(corpus, tmp_path):
    with pytest.raises(StorageError):
        EILSystem.load(str(tmp_path / "absent"), corpus)
    (tmp_path / EILSystem.EIL_MANIFEST).write_text('{"format": "other"}')
    with pytest.raises(StorageError, match="manifest"):
        EILSystem.load(str(tmp_path), corpus)


def test_cold_start_onboards_unseen_deal(corpus, tmp_path):
    """``OrganizedInformation`` over a loaded database goes on from the
    ids it holds: onboarding a deal the saved system never saw used to
    raise ``IntegrityError: PRIMARY KEY violated in table 'contacts'``.
    """
    new_deal = DealGenerator(seed=999, taxonomy=corpus.taxonomy).generate(
        len(corpus.deals) + 1
    )[-1]
    workbook = WorkbookFactory(corpus.taxonomy, seed=999).build_workbook(
        new_deal, 14
    )
    assert new_deal.deal_id not in {d.deal_id for d in corpus.deals}

    warm = EILSystem.build(corpus)
    warm.save_index(str(tmp_path))
    # The ids are read off the tables, not through the ``db`` fault
    # point: a store that fails every SELECT still loads.
    with use_injector(FaultInjector({"db": FaultRule(error_rate=1.0)})):
        cold = EILSystem.load(str(tmp_path), corpus)

    def state(eil):
        return (
            json.loads(dumps_database(eil.organized.db))["payload"],
            eil.graph.dumps(),
            keyword_fingerprint(eil),
            dataclasses.asdict(run_table2(corpus, eil)),
        )

    for eil in (warm, cold):
        eil.add_workbook(workbook)
    assert new_deal.deal_id in cold.deal_ids()
    assert state(cold) == state(warm)
    assert dataclasses.asdict(cold.synopsis(new_deal.deal_id, _USER)) == (
        dataclasses.asdict(warm.synopsis(new_deal.deal_id, _USER))
    )

    removed = [eil.remove_deal(new_deal.deal_id) for eil in (warm, cold)]
    assert removed == [len(workbook), len(workbook)]
    assert state(cold) == state(warm)
