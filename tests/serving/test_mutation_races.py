"""Mutation-race tests: queries racing mutations see quiesced epochs.

The serving PR's snapshot promise: a query racing ``add`` / ``remove``
(engine level) or ``add_workbook`` / ``remove_deal`` (system level)
always returns a ranking **bit-identical to some quiesced epoch** —
the corpus as it was before or after a whole mutation, never a torn
index observed mid-write.  Since the engine ranks before it builds
hits, the promise has a second half: an answer's documents are built
under the same hold they were ranked under, so none of them can have
been removed in between (``TestGroupedAnswersAreWhole``).  And a third:
a scoped read is a read under the engine lock, on every index layout —
the scope is checked against the index's metadata column, which a flush
or a merge must never show half-moved (``TestScopeIsLocked``).

The proof technique: replay the mutation script serially first,
recording the ranking at every quiesced state; then race concurrent
readers against a writer replaying the same script and assert every
observed ranking is in the recorded set.
"""

import copy
import dataclasses
import json
import random
import sys
import threading

import pytest

from repro import CorpusConfig, CorpusGenerator, EILSystem, User, obs
from repro.core.metaqueries import scope_query, service_keyword_query
from repro.core.query_analyzer import FormQuery
from repro.docmodel.repository import EngagementWorkbook
from repro.corpus import DealGenerator, WorkbookFactory
from repro.graph import EntityGraph
from repro.search import (
    IndexableDocument,
    SearchEngine,
    SiapiQuery,
    SiapiService,
)
from repro.serving import EILServer, ShardedIndex
from repro.storage import SegmentBackedIndex
from tests.graph.test_traversal_equivalence import (
    assert_indexes_match_rescan,
)
from tests.reference import graph as oracle

SALES = User("u", frozenset({"sales"}))

WORDS = [
    "storage", "network", "migration", "replication", "services",
    "desktop", "server", "cloud", "backup", "security",
]

QUERY = "storage OR network OR services"


def _make_docs(n=20, deals=4):
    rng = random.Random(11)
    return [
        IndexableDocument(
            f"doc{i:02d}",
            {
                "title": " ".join(rng.choice(WORDS) for _ in range(3)),
                "body": " ".join(rng.choice(WORDS) for _ in range(25)),
            },
            {"deal_id": f"d{i % deals}", "doc_type": "scope"},
        )
        for i in range(n)
    ]


def _ranking(engine, limit=10):
    return tuple(
        (hit.doc_id, hit.score)
        for hit in engine.search(QUERY, limit)
    )


class TestEngineSnapshotIsolation:
    """Concurrent readers vs a writer churning five documents."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: SearchEngine(),
            lambda: SearchEngine(index=ShardedIndex(3)),
        ],
        ids=["unsharded", "sharded"],
    )
    def test_rankings_match_some_quiesced_epoch(self, factory):
        docs = _make_docs()
        churned = docs[:5]

        # Serial replay: record the ranking at every quiesced state.
        replay = factory()
        for document in docs:
            replay.add(document)
        allowed = {_ranking(replay)}
        for doc in churned:
            replay.remove(doc.doc_id)
            allowed.add(_ranking(replay))
        for doc in churned:
            replay.add(doc)
            allowed.add(_ranking(replay))

        engine = factory()
        for document in docs:
            engine.add(document)
        stop = threading.Event()
        observed = []
        observed_lock = threading.Lock()
        failures = []

        def reader():
            local = []
            try:
                while not stop.is_set():
                    local.append(_ranking(engine))
            except BaseException as exc:  # pragma: no cover - fail loud
                failures.append(exc)
            with observed_lock:
                observed.extend(local)

        def writer():
            try:
                for _ in range(10):
                    for doc in churned:
                        engine.remove(doc.doc_id)
                    for doc in churned:
                        engine.add(doc)
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)
            finally:
                stop.set()

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not failures
        assert observed  # the race actually exercised readers
        torn = [r for r in set(observed) if r not in allowed]
        assert torn == [], (
            f"{len(torn)} distinct torn rankings observed "
            f"(readers saw an index state that never existed at rest)"
        )


class TestSystemSnapshotIsolation:
    """Queries racing ``add_workbook`` / ``remove_deal`` on the system.

    The churned workbook carries exactly one document, so the whole
    onboarding is a single index mutation and the quiesced-epoch set
    has exactly two members: with and without the extra engagement.
    """

    @pytest.fixture(scope="class")
    def world(self):
        corpus = CorpusGenerator(
            CorpusConfig(n_deals=4, docs_per_deal=14)
        ).generate()
        eil = EILSystem.build(corpus, shards=3)
        generator = DealGenerator(seed=999, taxonomy=corpus.taxonomy)
        deal = generator.generate(len(corpus.deals) + 1)[-1]
        full = WorkbookFactory(corpus.taxonomy, seed=999).build_workbook(
            deal, 12
        )
        workbook = EngagementWorkbook(
            deal.deal_id, name=full.name,
            documents=full.documents()[:1],
        )
        return corpus, eil, deal, workbook

    def test_keyword_rankings_match_a_quiesced_epoch(self, world):
        corpus, eil, deal, workbook = world

        def keyword_ranking():
            return tuple(
                (hit.doc_id, hit.score)
                for hit in eil.keyword_search("services", limit=10)
            )

        base = keyword_ranking()
        eil.add_workbook(workbook)
        with_extra = keyword_ranking()
        eil.remove_deal(deal.deal_id)
        assert keyword_ranking() == base  # churn is restorative
        allowed = {base, with_extra}

        stop = threading.Event()
        observed = []
        observed_lock = threading.Lock()
        failures = []
        form = scope_query("End User Services")
        known_deals = {d.deal_id for d in corpus.deals} | {deal.deal_id}

        def reader():
            local = []
            try:
                while not stop.is_set():
                    local.append(keyword_ranking())
                    results = eil.search(form, SALES)
                    assert set(results.deal_ids) <= known_deals
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)
            with observed_lock:
                observed.extend(local)

        def churn():
            try:
                for _ in range(15):
                    eil.add_workbook(workbook)
                    eil.remove_deal(deal.deal_id)
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)
            finally:
                stop.set()

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=churn))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not failures
        assert observed
        torn = [r for r in set(observed) if r not in allowed]
        assert torn == [], (
            f"{len(torn)} torn keyword rankings under "
            f"add_workbook/remove_deal churn"
        )

    def test_synopsis_reads_survive_churn(self, world):
        corpus, eil, deal, workbook = world
        stop = threading.Event()
        failures = []

        def reader():
            try:
                while not stop.is_set():
                    for deal_id in eil.deal_ids():
                        if deal_id == deal.deal_id:
                            continue  # may vanish mid-iteration
                        synopsis = eil.synopsis(deal_id, SALES)
                        assert synopsis.deal_id == deal_id
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)

        def churn():
            try:
                for _ in range(10):
                    eil.add_workbook(workbook)
                    eil.remove_deal(deal.deal_id)
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)
            finally:
                stop.set()

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=churn))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures


def _answer(results):
    """What a form search answers, in comparable form."""
    return (
        tuple(
            (a.deal_id, a.name, a.score, a.synopsis_score, a.siapi_score,
             tuple(a.reasons), tuple(hit.doc_id for hit in a.documents),
             a.documents_withheld)
            for a in results.activities
        ),
        results.scoped, results.degraded, tuple(results.plan),
    )


class _Probes:
    """The served system, remembering on each thread whether that
    thread's last query-cache probe hit."""

    def __init__(self, eil):
        self.eil = eil
        self.last = threading.local()

    def probe_search(self, *args, **kwargs):
        probe = self.eil.probe_search(*args, **kwargs)
        self.last.hit = probe.cached is not None
        return probe

    def search(self, *args, **kwargs):
        return self.eil.search(*args, **kwargs)


class TestInlineHitsUnderChurn:
    """Cached forms through ``EILServer.search`` beside ``add_workbook``
    / ``remove_deal``.

    A hit is answered on the reader's own thread straight off the query
    cache; what retires it is a mutation moving the epochs in the cache
    key.  So every answer must be one some quiesced epoch gives, and the
    first request after a mutation returns must miss: a hit there would
    be an answer cached before the mutation.

    The readers ask forms whose answer a half-applied onboarding cannot
    change (synopsis-only forms, and a scoped form the churned deal is
    outside of); the writer asks its own form — one the churned deal is
    in, by tower and by keyword — only between mutations, so nobody
    else has looked it up at the new epoch before it does.
    """

    @pytest.mark.parametrize("shards", [1, 2])
    def test_answers_match_a_quiesced_epoch(self, shards):
        corpus = CorpusGenerator(
            CorpusConfig(n_deals=4, docs_per_deal=14)
        ).generate()
        eil = EILSystem.build(corpus, shards=shards)
        generator = DealGenerator(seed=999, taxonomy=corpus.taxonomy)
        deal = generator.generate(len(corpus.deals) + 1)[-1]
        full = WorkbookFactory(corpus.taxonomy, seed=999).build_workbook(
            deal, 12
        )
        workbook = EngagementWorkbook(
            deal.deal_id, name=full.name,
            documents=full.documents()[:1],
        )
        tower = deal.towers[0]
        shared = [
            scope_query("End User Services"),
            scope_query(tower),
            service_keyword_query("Storage Management Services",
                                  "data replication"),
        ]
        own = service_keyword_query(tower, "services")
        forms = shared + [own]

        def answers():
            return {i: _answer(eil.search(form, SALES))
                    for i, form in enumerate(forms)}

        base = answers()
        eil.add_workbook(workbook)
        extra = answers()
        eil.remove_deal(deal.deal_id)
        assert answers() == base  # churn is restorative
        # The two quiesced answers differ where the churned deal shows.
        assert base[1] != extra[1] and base[3] != extra[3]
        allowed = {i: {base[i], extra[i]} for i in base}

        probes = _Probes(eil)
        stop = threading.Event()
        failures = []
        observed = {i: set() for i in range(len(shared))}
        observed_lock = threading.Lock()

        def reader(first, server):
            local = {i: set() for i in observed}
            try:
                turn = first
                while not stop.is_set():
                    i = turn % len(shared)
                    local[i].add(_answer(server.search(shared[i], SALES)))
                    turn += 1
            except BaseException as exc:  # pragma: no cover - fail loud
                failures.append(exc)
                stop.set()
            with observed_lock:
                for i, seen in local.items():
                    observed[i] |= seen

        def writer(server):
            try:
                for _ in range(8):
                    for mutate, state in (
                        (lambda: eil.add_workbook(workbook), extra),
                        (lambda: eil.remove_deal(deal.deal_id), base),
                    ):
                        mutate()
                        assert _answer(server.search(own, SALES)) == state[3]
                        assert not probes.last.hit, (
                            "hit across a mutation"
                        )
                        assert _answer(server.search(own, SALES)) == state[3]
                        assert probes.last.hit
            except BaseException as exc:  # pragma: no cover - fail loud
                failures.append(exc)
            finally:
                stop.set()

        with obs.use_registry() as registry, EILServer(probes) as server:
            threads = [
                threading.Thread(target=reader, args=(first, server))
                for first in range(3)
            ]
            threads.append(threading.Thread(target=writer, args=(server,)))
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
        for i, seen in observed.items():
            assert seen  # the race exercised every shared form
            torn = seen - allowed[i]
            assert not torn, f"{shared[i]}: {len(torn)} torn answers"
        # The readers were answered inline, off the cache, mostly.
        inline = registry.counters["serving.answered_inline"].value
        assert inline > registry.counters["serving.admitted"].value


class TestGroupedAnswersAreWhole:
    """``search_grouped`` and the form search racing onboarding.

    The engine ranks to ``(doc_id, score)`` pairs and builds hits only
    for what a result shows, so between the two a document could be
    removed — unless ranking, the choice and the building share one
    read-side hold, which is the promise here.  The churned workbook
    has twelve documents, so an offboarding is twelve index mutations
    with a gap after each; a reader that ranked under one hold and
    built under the next would meet "document not indexed" in one of
    them (raised by ``search_grouped``, a ``no-index`` degradation from
    the form search).  Every answer must be whole: no exception, no
    degradation, every presented document stored, in the activity it
    is shown under, of a deal some quiesced epoch had.
    """

    @pytest.mark.parametrize(
        "shards, engine_cache_size",
        [(1, 256), (1, 0), (3, 256), (3, 0)],
        ids=["unsharded-cached", "unsharded-uncached",
             "sharded-cached", "sharded-uncached"],
    )
    def test_no_answer_is_torn_by_a_removal(self, shards, engine_cache_size):
        corpus = CorpusGenerator(
            CorpusConfig(n_deals=4, docs_per_deal=14)
        ).generate()
        eil = EILSystem(
            taxonomy=corpus.taxonomy, collection=corpus.collection,
            directory=corpus.directory, shards=shards,
            engine_cache_size=engine_cache_size, query_cache_size=0,
        )
        eil.run_offline_pipeline()
        generator = DealGenerator(seed=999, taxonomy=corpus.taxonomy)
        deal = generator.generate(len(corpus.deals) + 1)[-1]
        workbook = WorkbookFactory(corpus.taxonomy, seed=999).build_workbook(
            deal, 12
        )
        eil.add_workbook(workbook)
        tower = eil.organized.scopes_of(deal.deal_id)[0]["canonical"]
        known_docs = {
            doc_id: eil.engine.index.document(doc_id).metadata["deal_id"]
            for doc_id in eil.engine.index.doc_ids
        }
        churned_docs = {
            doc_id for doc_id, deal_id in known_docs.items()
            if deal_id == deal.deal_id
        }
        assert len(churned_docs) == 12

        words = SiapiQuery(any_words="services network storage")
        scoped_form = service_keyword_query(tower, "services")
        unscoped_form = FormQuery(any_words="services network storage")
        everyone = set(known_docs.values())
        # The churned deal's documents must be among what is shown, or
        # the race would be over documents nobody builds.
        assert churned_docs & {
            hit.doc_id
            for group in eil.siapi.search_grouped(words, everyone, 5)
            for hit in group.hits
        }
        assert eil.search(scoped_form, SALES).scoped
        assert not eil.search(unscoped_form, SALES).scoped

        def check_hits(activity_id, hits):
            assert len(hits) <= 5
            for hit in hits:
                assert known_docs[hit.doc_id] == activity_id
                assert hit.document.doc_id == hit.doc_id
                assert hit.document.metadata["deal_id"] == activity_id

        def grouped(scope):
            for group in eil.siapi.search_grouped(
                words, scope=scope, per_activity_limit=5
            ):
                check_hits(group.activity_id, group.hits)

        def form_search(form):
            results = eil.search(form, SALES)
            assert results.degraded is None, results.plan
            for activity in results.activities:
                check_hits(activity.deal_id, activity.documents)

        asks = [
            lambda: grouped(None),
            lambda: grouped(everyone),
            lambda: form_search(scoped_form),
            lambda: form_search(unscoped_form),
        ]
        stop = threading.Event()
        failures = []
        answered = [0] * len(asks)

        def reader(first):
            try:
                turn = first
                while not stop.is_set():
                    asks[turn % len(asks)]()
                    answered[turn % len(asks)] += 1
                    turn += 1
            except BaseException as exc:  # pragma: no cover - fail loud
                failures.append(exc)
                stop.set()

        def churn():
            try:
                for _ in range(12):
                    eil.remove_deal(deal.deal_id)
                    eil.add_workbook(workbook)
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)
            finally:
                stop.set()

        threads = [
            threading.Thread(target=reader, args=(first,))
            for first in range(4)
        ]
        threads.append(threading.Thread(target=churn))
        # An index mutation is tens of microseconds; at the default
        # 5 ms the interpreter would almost never switch inside one.
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
        assert all(answered), answered  # every kind of ask raced
        # The script is restorative: the documents are all back.
        assert eil.engine.index.doc_ids == set(known_docs)


class TestScopeIsLocked:
    """A scoped ``count`` and ``search_grouped`` read under the engine
    lock, whatever the index is.

    A segment store swaps ``segments`` and ``memtable`` in several
    statements when it flushes or merges; a scoped read beside a writer
    that landed between them could miss documents of deals nobody is
    touching.
    """

    LAYOUTS = {
        "inverted": lambda: SearchEngine(),
        "segments": lambda: SearchEngine(
            index=SegmentBackedIndex(memtable_limit=4, merge_fanout=2)
        ),
        "sharded": lambda: SearchEngine(index=ShardedIndex(3)),
    }
    #: Every document holds some of these words, so this matches all.
    EVERYTHING = SiapiQuery(any_words=" ".join(WORDS))

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_scope_queues_behind_a_writer(self, layout):
        engine = self.LAYOUTS[layout]()
        docs = _make_docs()
        for document in docs:
            engine.add(document)
        service = SiapiService(engine)
        answers = []

        def read():
            groups = service.search_grouped(self.EVERYTHING, {"d1"})
            answers.append((
                [group.activity_id for group in groups],
                {hit.doc_id for group in groups for hit in group.hits},
                service.count(self.EVERYTHING, {"d1"}),
            ))

        late = IndexableDocument(
            "late", {"title": "storage", "body": "network services"},
            {"deal_id": "d1"},
        )
        thread = threading.Thread(target=read)
        with engine._rw.write():
            thread.start()
            thread.join(0.2)
            assert thread.is_alive() and not answers
            # The writer's whole mutation lands before the read runs.
            engine.index.add(late)
            engine.epoch += 1
        thread.join(5)
        assert not thread.is_alive()
        expected = {
            doc.doc_id for doc in docs + [late]
            if doc.metadata["deal_id"] == "d1"
        }
        assert answers == [(["d1"], expected, len(expected))]

    def test_scope_never_shrinks_beside_an_adder(self, tmp_path):
        """Nothing is ever removed, so what a scoped read finds can only
        grow, on each layout.  The segment stores spill to a directory:
        the file writes inside a flush or merge release the interpreter
        lock, which is when a reader gets to look."""
        scope = {"d0", "d1", "d2"}
        stores = [
            SegmentBackedIndex(memtable_limit=4, merge_fanout=2)
            for _ in range(4)
        ]
        sharded = ShardedIndex(3)
        sharded.parts = stores[1:]
        layouts = [
            (SearchEngine(cache_size=0), 300),
            (SearchEngine(index=stores[0], cache_size=0), 830),
            (SearchEngine(index=sharded, cache_size=0), 830),
        ]
        for engine, n in layouts:
            docs = _make_docs(n=n, deals=3)
            for document in docs[:30]:
                engine.add(document)
            for position, store in enumerate(stores):
                if store.directory is None and len(store):
                    store.save(str(tmp_path / f"store-{position}"))
            service = SiapiService(engine)
            self._race(engine, service, docs, scope)
            assert service.count(self.EVERYTHING, scope) == len(docs)
            groups = service.search_grouped(self.EVERYTHING, scope)
            assert sorted(group.activity_id for group in groups) == sorted(
                scope
            )
            assert sum(len(group.hits) for group in groups) == len(docs)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_first_scoped_reads_side_by_side_see_whole_columns(
        self, layout
    ):
        """Readers share the read lock, so several can make a column on
        its first ask at once: none may read one still being filled."""
        scope = {"d0", "d1", "d2"}
        for attempt in range(3):
            engine = self.LAYOUTS[layout]()
            docs = _make_docs(n=3000, deals=4)
            for document in docs:
                engine.add(document)
            service = SiapiService(engine)
            expected = sum(doc.metadata["deal_id"] in scope for doc in docs)
            barrier = threading.Barrier(6)
            counts, failures = [], []

            def reader():
                try:
                    barrier.wait(timeout=30)
                    counts.append(service.count(self.EVERYTHING, scope))
                except BaseException as exc:  # pragma: no cover
                    failures.append(exc)

            threads = [threading.Thread(target=reader) for _ in range(6)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures, failures[0]
            assert counts == [expected] * 6, (attempt, counts)

    def _race(self, engine, service, docs, scope):
        stop = threading.Event()
        failures = []
        reads = [0, 0]

        def reader(slot):
            matched, shown = 0, set()
            try:
                while not stop.is_set():
                    now = service.count(self.EVERYTHING, scope)
                    assert now >= matched, f"scope shrank {matched} -> {now}"
                    matched = now
                    activities = {
                        group.activity_id
                        for group in service.search_grouped(
                            self.EVERYTHING, scope, per_activity_limit=1
                        )
                    }
                    assert shown <= activities <= scope, (shown, activities)
                    shown = activities
                    reads[slot] += 1
            except BaseException as exc:  # pragma: no cover - fail loud
                failures.append(exc)
                stop.set()

        def writer():
            try:
                for doc in docs[30:]:
                    if stop.is_set():
                        break
                    engine.add(doc)
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)
            finally:
                stop.set()

        threads = [
            threading.Thread(target=reader, args=(slot,))
            for slot in range(len(reads))
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
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[0]
        assert all(reads), reads  # the race actually exercised readers


def _contact(contact_id, name, email, role):
    return {"contact_id": contact_id, "name": name, "email": email,
            "role": role, "category": "people", "validated": False}


SAM = "sam.white@abc.com"
_GRAPH_BASE = {
    "d1": [_contact(1, "Sam White", SAM, "Client Solution Executive"),
           _contact(2, "Ann Gray", "ann.gray@abc.com", "Pricer")],
    "d2": [_contact(3, "Sam White", SAM, "Client Solution Executive"),
           _contact(4, "Bea Stone", "bea.stone@abc.com", "Pricer")],
    "d3": [_contact(5, "Ann Gray", "ann.gray@abc.com", "Pricer"),
           _contact(6, "Bea Stone", "bea.stone@abc.com", "Pricer")],
}
# Each step is one whole mutation.  Between them Sam's display name
# goes Sam White -> (tie) -> Samuel White and back, his role on d1
# moves from CSE to Pricer, and d2's citations come and go.
_GRAPH_SCRIPT = [
    ("index", "d4", [_contact(7, "Samuel White", SAM, "Pricer"),
                     _contact(8, "Ann Gray", "ann.gray@abc.com", "")]),
    ("index", "d1", [_contact(9, "Samuel White", SAM, "Pricer"),
                     _contact(2, "Ann Gray", "ann.gray@abc.com",
                              "Pricer")]),
    ("remove", "d2", None),
    ("index", "d2", _GRAPH_BASE["d2"]),
    ("index", "d1", _GRAPH_BASE["d1"]),
    ("remove", "d4", None),
]
_GRAPH_QUESTIONS = [
    ("worked_with", "Ann Gray", None),
    ("worked_with", "bea.stone@abc.com", 1),
    ("team_overlap", "Ann Gray", None),
    ("team_overlap", SAM, 2),
    ("role_capacity", "Pricer", None),
    ("role_capacity", "CSE", 1),
    ("expertise", "network", None),
    ("expertise", "vpn", 1),
]


def _graph_at_rest():
    graph = EntityGraph()
    for deal_id, contacts in _GRAPH_BASE.items():
        _graph_step(graph, ("index", deal_id, contacts))
    return graph


def _graph_step(graph, step):
    verb, deal_id, contacts = step
    if verb == "remove":
        graph.remove_deal(deal_id)
        return
    graph.index_deal(
        deal_id, {"name": deal_id.upper()}, contacts,
        scope_rows=[{"tower": "Network Services", "rank": 0}],
        technology_rows=[{"technology_id": f"{deal_id}-t",
                          "term": "VPN" if deal_id != "d3" else "VoIP"}],
    )


def _frozen(answer):
    return json.dumps(answer, sort_keys=True)


class TestGraphSnapshotIsolation:
    """The four traversals racing ``index_deal`` / ``remove_deal``.

    The graph keeps its adjacency and every person's display name up
    to date inside the mutation; a reader that saw a name, a role or a
    citation from a half-applied mutation would produce an answer no
    quiesced graph gives.  The allowed answers come from the scan-based
    oracle (``tests/reference/graph.py``), not from the graph itself.
    """

    def test_answers_match_the_oracle_at_a_quiesced_epoch(self):
        replay = _graph_at_rest()
        allowed = {question: set() for question in _GRAPH_QUESTIONS}

        def record():
            scan = oracle.Scan(replay.to_payload())
            for kind, subject, limit in _GRAPH_QUESTIONS:
                allowed[kind, subject, limit].add(_frozen(
                    oracle.ANSWERS[kind](scan, subject, limit)
                ))

        record()
        for step in _GRAPH_SCRIPT:
            _graph_step(replay, step)
            record()
        names = {
            colleague["name"]
            for answer in allowed["team_overlap", "Ann Gray", None]
            for colleague in json.loads(answer)["colleagues"]
            if colleague["key"] == f"email:{SAM}"
        }
        assert names == {"Sam White", "Samuel White"}  # the name moves

        graph = _graph_at_rest()
        at_rest = graph.dumps()
        stop = threading.Event()
        observed = {question: set() for question in _GRAPH_QUESTIONS}
        observed_lock = threading.Lock()
        failures = []

        def reader():
            local = {question: set() for question in _GRAPH_QUESTIONS}
            try:
                while not stop.is_set():
                    for question in _GRAPH_QUESTIONS:
                        kind, subject, limit = question
                        answer = getattr(graph, kind)(subject, limit)
                        local[question].add(
                            _frozen(dataclasses.asdict(answer))
                        )
            except BaseException as exc:  # pragma: no cover - fail loud
                failures.append(exc)
            with observed_lock:
                for question, answers in local.items():
                    observed[question] |= answers

        def writer():
            try:
                for _ in range(80):
                    for step in _GRAPH_SCRIPT:
                        _graph_step(graph, step)
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)
            finally:
                stop.set()

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        # A mutation is tens of microseconds; at the default 5 ms the
        # interpreter would almost never switch threads inside one.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads), (
            "deadlock: a reader or the writer never finished"
        )

        assert not failures
        for question in _GRAPH_QUESTIONS:
            assert observed[question]  # the race exercised readers
            torn = observed[question] - allowed[question]
            assert not torn, (
                f"{question}: {len(torn)} answers no quiesced graph "
                f"gives, e.g. {sorted(torn)[0]}"
            )
        assert graph.dumps() == at_rest  # the script is restorative
        assert_indexes_match_rescan(graph)

    def test_readers_never_write_graph_state(self):
        graph = _graph_at_rest()
        for step in _GRAPH_SCRIPT[:3]:
            _graph_step(graph, step)

        def state():
            return {
                name: value for name, value in vars(graph).items()
                if name not in ("_lock", "_epoch")
            }

        before = copy.deepcopy(state())
        epoch = graph.epoch
        for kind, subject, _ in _GRAPH_QUESTIONS:
            for limit in (None, 0, 1):
                getattr(graph, kind)(subject, limit)
            getattr(graph, kind)("nobody and nothing", None)
        assert state() == before
        assert graph.epoch == epoch
