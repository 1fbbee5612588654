"""Thread stress: many readers share the cached answers of hot forms.

A query-cache hit hands out the very answer the miss stored, to every
thread that asks, with no copy.  Eight readers ask the same hot forms
through ``EILServer.search`` (hits answered inline on their own
threads, misses admitted) while a writer onboards and offboards a deal
over and over.  No reader may raise, and every answer must be one a
quiesced system gives: the corpus before the onboarding or after it.

The hot forms are ones a half-applied onboarding cannot change (see
``tests/serving/test_mutation_races.py::TestInlineHitsUnderChurn``):
synopsis-only forms, one of them the churned deal's own tower, and a
scoped form the churned deal is outside of.
"""

import sys
import threading

from repro import CorpusConfig, CorpusGenerator, EILSystem, User, obs
from repro.core.metaqueries import scope_query, service_keyword_query
from repro.corpus import DealGenerator, WorkbookFactory
from repro.docmodel.repository import EngagementWorkbook
from repro.serving import EILServer

SALES = User("u", frozenset({"sales"}))
READERS = 8
CYCLES = 6


def _digest(results):
    """An answer in hashable form: every field, the hits by id."""
    return (
        tuple(
            (a.deal_id, a.name, a.score, a.synopsis_score, a.siapi_score,
             a.reasons, tuple(hit.doc_id for hit in a.documents),
             a.documents_withheld, a.contacts)
            for a in results.activities
        ),
        results.scoped, results.plan, results.degraded,
    )


def test_readers_see_quiesced_answers_beside_a_churning_writer():
    corpus = CorpusGenerator(
        CorpusConfig(n_deals=4, docs_per_deal=14)
    ).generate()
    eil = EILSystem.build(corpus)
    deal = DealGenerator(seed=999, taxonomy=corpus.taxonomy).generate(
        len(corpus.deals) + 1
    )[-1]
    full = WorkbookFactory(corpus.taxonomy, seed=999).build_workbook(
        deal, 12
    )
    workbook = EngagementWorkbook(
        deal.deal_id, name=full.name, documents=full.documents()[:1],
    )
    forms = [
        scope_query("End User Services"),
        scope_query(deal.towers[0]),
        service_keyword_query("Storage Management Services",
                              "data replication"),
    ]

    def answers():
        return [_digest(eil.search(form, SALES)) for form in forms]

    base = answers()
    eil.add_workbook(workbook)
    extra = answers()
    eil.remove_deal(deal.deal_id)
    assert answers() == base
    assert base[1] != extra[1]  # the churn shows in a hot form
    allowed = [{b, e} for b, e in zip(base, extra)]

    stop = threading.Event()
    failures = []
    seen = [set() for _ in forms]
    seen_lock = threading.Lock()

    def reader(first, server):
        local = [set() for _ in forms]
        try:
            turn = first
            while not stop.is_set():
                i = turn % len(forms)
                local[i].add(_digest(server.search(forms[i], SALES)))
                turn += 1
        except BaseException as exc:  # pragma: no cover - fail loud
            failures.append(exc)
            stop.set()
        with seen_lock:
            for i, answers_seen in enumerate(local):
                seen[i] |= answers_seen

    def writer():
        try:
            for _ in range(CYCLES):
                eil.add_workbook(workbook)
                eil.remove_deal(deal.deal_id)
        except BaseException as exc:  # pragma: no cover - fail loud
            failures.append(exc)
        finally:
            stop.set()

    with obs.use_registry() as registry, EILServer(
        eil, max_concurrency=4, queue_depth=READERS
    ) as server:
        threads = [
            threading.Thread(target=reader, args=(first, server))
            for first in range(READERS)
        ]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            stop.set()
    assert not any(thread.is_alive() for thread in threads), (
        "deadlock: a reader or the writer never finished"
    )
    assert not failures, failures[0]
    for i, answers_seen in enumerate(seen):
        assert answers_seen, f"no reader asked {forms[i]}"
        torn = answers_seen - allowed[i]
        assert not torn, f"{forms[i]}: {len(torn)} answers of no epoch"
    counters = registry.counters
    shed = counters.get("serving.shed")
    assert shed is None or shed.value == 0
    assert counters["serving.answered_inline"].value > 0
