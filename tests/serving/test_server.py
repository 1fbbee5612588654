"""Unit tests for the serving front door (repro.serving.server).

Uses a gate-controlled fake system so admission, queueing, shedding,
deadline rejection and breaker integration can be driven
deterministically — no real corpus.  The server runs every request on
the thread that made it, so a request held at the gate holds its
*client* thread: :class:`Client` issues a request from a thread of its
own and keeps what it returned or raised.  A second fake also exposes
``probe_search``, the query-cache lookup the front door answers hits
with before admission; ``TestRealSystem`` drives the same path through
an :class:`~repro.core.eil.EILSystem`.
"""

import os
import sys
import threading
import time

import pytest

from repro import CorpusConfig, CorpusGenerator, EILSystem, User, obs
from repro.core.metaqueries import scope_query
from repro.core.query_analyzer import FormQuery
from repro.core.search import CacheProbe
from repro.errors import (
    AccessDeniedError,
    CircuitOpenError,
    DeadlineExceededError,
    InjectedFaultError,
    QuerySyntaxError,
    ServerOverloadedError,
)
from repro.faults import CircuitBreaker
from repro.security.access import ANONYMOUS
from repro.serving import EILServer

#: Every request lands in exactly one of these.
OUTCOMES = ("serving.answered_inline", "serving.completed",
            "serving.errors", "serving.shed", "serving.rejected.deadline")


def _count(registry, name):
    counter = registry.counters.get(name)
    return counter.value if counter else 0


def _wait_queued(registry, depth):
    """Block until ``depth`` requests hold an admission slot but no
    executing slot."""
    give_up = time.monotonic() + 5
    while registry.gauge("serving.queue_depth").value != depth:
        assert time.monotonic() < give_up, "request never queued"
        time.sleep(0.001)


@pytest.fixture
def registry():
    with obs.use_registry() as fresh:
        yield fresh


class Client(threading.Thread):
    """One caller with a thread of its own: runs ``call(*args,
    **kwargs)`` and keeps what it returned or raised."""

    def __init__(self, call, *args, **kwargs):
        super().__init__(daemon=True)
        self._call = lambda: call(*args, **kwargs)
        self._returned = None
        self._raised = None
        self.start()

    def run(self):
        try:
            self._returned = self._call()
        except BaseException as exc:
            self._raised = exc

    def result(self, timeout=5):
        self.join(timeout)
        assert not self.is_alive(), "request never finished"
        if self._raised is not None:
            raise self._raised
        return self._returned


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self._lock = threading.Lock()

    def __call__(self):
        with self._lock:
            return self.now

    def advance(self, seconds):
        with self._lock:
            self.now += seconds


class GatedSystem:
    """A fake EIL whose requests block until the gate opens."""

    def __init__(self):
        self.gate = threading.Event()
        self.gate.set()  # open by default
        self.started = threading.Semaphore(0)
        self.calls = 0
        self.threads = []  # the thread each request ran on
        self._lock = threading.Lock()

    def _serve(self, kind, value):
        with self._lock:
            self.calls += 1
            self.threads.append(threading.get_ident())
        self.started.release()
        assert self.gate.wait(10), "gate never opened"
        return (kind, value)

    def search(self, form, user=None, limit=None):
        return self._serve("search", form)

    def keyword_search(self, query, limit=None):
        return self._serve("keyword", query)

    def graph_query(self, query):
        return self._serve("graph", query)


class ProbedSystem(GatedSystem):
    """A gated fake with a query cache the front door can probe.

    Forms in ``hot`` are cache hits; ``""`` is an empty form (the probe
    raises, as the real one does); a miss on ``"down"`` raises a
    substrate fault.
    """

    def __init__(self, hot=()):
        super().__init__()
        self.hot = set(hot)
        self.probed = []
        self.carried = []

    def probe_search(self, form, user=None, limit=None):
        self.probed.append(form)
        if form == "":
            raise QuerySyntaxError("the search form is empty")
        cached = ("cached", form) if form in self.hot else None
        return CacheProbe(("key", form), cached)

    def search(self, form, user=None, limit=None, probe=None):
        if probe is not None:
            self.carried.append(probe)
            if probe.cached is not None:
                return probe.cached
        if form == "down":
            raise InjectedFaultError("substrate down")
        return super().search(form, user, limit)


class TestInlineHits:
    """Query-cache hits are answered without admission."""

    def test_hit_is_answered_with_every_slot_taken(self, registry):
        system = ProbedSystem(hot={"hot"})
        system.gate.clear()  # hold every admitted request in flight
        server = EILServer(system, max_concurrency=1, queue_depth=1)
        try:
            first = Client(server.search, "a")
            assert system.started.acquire(timeout=5)  # executing
            second = Client(server.search, "b")
            _wait_queued(registry, 1)
            with pytest.raises(ServerOverloadedError):
                server.search("cold")  # a miss still needs a slot
            assert server.search("hot") == ("cached", "hot")
            assert _count(registry, "serving.admitted") == 2
            assert _count(registry, "serving.answered_inline") == 1
            assert _count(registry, "serving.shed") == 1
            system.gate.set()
            assert first.result() == ("search", "a")
            assert second.result() == ("search", "b")
        finally:
            system.gate.set()
            server.shutdown()
        assert system.calls == 2  # the hit never reached the substrate

    def test_miss_carries_its_probe_to_the_search(self, registry):
        system = ProbedSystem()
        with EILServer(system) as server:
            assert server.search("cold", "user", limit=3) == (
                "search", "cold"
            )
        assert system.probed == ["cold"]  # looked up once
        assert system.carried == [CacheProbe(("key", "cold"), None)]
        assert _count(registry, "serving.admitted") == 1
        assert _count(registry, "serving.completed") == 1
        assert "serving.answered_inline" not in registry.counters

    def test_open_breaker_answers_hits_and_fails_misses(self, registry):
        system = ProbedSystem(hot={"hot"})
        breaker = CircuitBreaker("serving", failure_threshold=1)
        with EILServer(system, breaker=breaker) as server:
            with pytest.raises(InjectedFaultError):
                server.search("down")  # trips the breaker
            assert server.search("hot") == ("cached", "hot")
            with pytest.raises(CircuitOpenError):
                server.search("cold")
        assert _count(registry, "serving.answered_inline") == 1
        assert _count(registry, "serving.errors") == 2

    def test_hit_is_never_rejected_for_its_deadline(self, registry):
        clock = FakeClock()
        system = ProbedSystem(hot={"hot"})
        system.gate.clear()
        server = EILServer(system, max_concurrency=1, queue_depth=1,
                           clock=clock)
        try:
            blocker = Client(server.search, "a")
            assert system.started.acquire(timeout=5)
            queued = Client(server.search, "b", deadline_seconds=5.0)
            _wait_queued(registry, 1)
            clock.advance(10.0)
            assert server.search("hot", deadline_seconds=0.0) == (
                "cached", "hot"
            )
            system.gate.set()
            assert blocker.result() == ("search", "a")
            with pytest.raises(DeadlineExceededError):
                queued.result()
        finally:
            system.gate.set()
            server.shutdown()
        assert _count(registry, "serving.rejected.deadline") == 1
        # A deadline rejection is its own outcome, not also an error.
        assert "serving.errors" not in registry.counters

    def test_shut_down_server_raises_for_a_hit(self, registry):
        system = ProbedSystem(hot={"hot"})
        server = EILServer(system)
        assert server.search("hot") == ("cached", "hot")
        server.shutdown()
        with pytest.raises(RuntimeError):
            server.search("hot")
        assert system.probed == ["hot"]  # not looked up once shut down

    def test_keyword_and_graph_requests_are_admitted_unprobed(
        self, registry
    ):
        system = ProbedSystem(hot={"hot"})
        with EILServer(system) as server:
            assert server.search("hot") == ("cached", "hot")
            assert server.keyword_search("hot") == ("keyword", "hot")
            assert server.graph_query("hot") == ("graph", "hot")
        assert _count(registry, "serving.answered_inline") == 1
        assert _count(registry, "serving.admitted") == 2
        assert system.probed == ["hot"]  # only a form search probes

    def test_probe_errors_raise_on_the_caller_and_count(self, registry):
        system = ProbedSystem()
        with EILServer(system) as server:
            with pytest.raises(QuerySyntaxError):
                server.search("")
        assert _count(registry, "serving.errors") == 1
        assert "serving.admitted" not in registry.counters
        assert system.calls == 0

    def test_every_request_is_timed_and_lands_in_one_outcome(
        self, registry
    ):
        system = ProbedSystem(hot={"hot"})
        requests = ["hot", "cold", "hot", "", "cold", "hot"]
        with EILServer(system) as server:
            for form in requests:
                try:
                    server.search(form)
                except QuerySyntaxError:
                    pass
        assert registry.histograms["serving.latency"].count == len(
            requests
        )
        # Queue wait is what admitted requests spent waiting for an
        # executing slot: misses only.
        assert registry.histograms["serving.queue_wait"].count == 2
        assert sum(_count(registry, name) for name in OUTCOMES) == len(
            requests
        )
        assert _count(registry, "serving.answered_inline") == 3


class TestRealSystem:
    """The inline path through an ``EILSystem``: the same counts, spans
    and answers as a search that never met the front door."""

    @pytest.fixture(scope="class")
    def eil(self):
        corpus = CorpusGenerator(
            CorpusConfig(n_deals=4, docs_per_deal=14)
        ).generate()
        return EILSystem.build(corpus)

    def test_a_miss_then_a_hit(self, eil, registry):
        eil._search._cache.clear()
        user = User("u", frozenset({"sales"}))
        form = scope_query("End User Services")
        with EILServer(eil) as server:
            missed = server.search(form, user, limit=3)
            hit = server.search(form, user, limit=3)
        assert _count(registry, "query.cache.misses") == 1
        assert _count(registry, "query.cache.hits") == 1
        assert _count(registry, "query.executed") == 2
        assert registry.histograms["span.online.search"].count == 2
        assert _count(registry, "serving.admitted") == 1
        assert _count(registry, "serving.answered_inline") == 1
        assert hit is missed  # the stored answer itself, not a copy
        eil._search._cache.clear()
        direct = eil.search(form, user, limit=3)
        assert missed == direct
        assert hit == direct
        assert direct.activities  # the answer is not trivially empty

    @pytest.mark.parametrize("form, user, error", [
        (FormQuery(), User("u", frozenset({"sales"})), QuerySyntaxError),
        (scope_query("End User Services"), ANONYMOUS, AccessDeniedError),
    ], ids=["empty-form", "no-synopsis-access"])
    def test_refusals_raise_what_a_direct_search_raises(
        self, eil, registry, form, user, error
    ):
        with pytest.raises(error):
            eil.search(form, user)
        with EILServer(eil) as server:
            with pytest.raises(error):
                server.search(form, user)
        assert _count(registry, "serving.errors") == 1
        assert _count(registry, "query.executed") == 2


class TestPassThrough:
    def test_search_returns_the_result(self, registry):
        with EILServer(GatedSystem()) as server:
            assert server.search("q") == ("search", "q")
        assert registry.counters["serving.completed"].value == 1
        assert registry.counters["serving.admitted"].value == 1

    def test_keyword_search_returns_the_result(self, registry):
        with EILServer(GatedSystem()) as server:
            assert server.keyword_search("q") == ("keyword", "q")

    def test_graph_query_returns_the_result(self, registry):
        with EILServer(GatedSystem()) as server:
            assert server.graph_query("gq") == ("graph", "gq")
        assert registry.counters["serving.completed"].value == 1

    def test_requests_run_on_the_callers_thread(self, registry):
        system = GatedSystem()
        with EILServer(system) as server:
            server.search("q")
            server.keyword_search("q")
            server.graph_query("gq")
        assert system.threads == [threading.get_ident()] * 3

    def test_admitted_requests_yield_the_interpreter(self, registry,
                                                     monkeypatch):
        """Each admitted request ends by handing the interpreter lock to
        any thread waiting for it; a hit, which reads no substrate, does
        not."""
        yields = []
        monkeypatch.setattr(os, "sched_yield", lambda: yields.append(1))
        with EILServer(ProbedSystem(hot={"hot"})) as server:
            server.search("hot")
            server.search("cold")
            server.keyword_search("q")
            with pytest.raises(InjectedFaultError):
                server.search("down")
        assert len(yields) == 3

    def test_graph_query_passes_admission_control(self, registry):
        """Graph traversals shed exactly like searches under load."""
        system = GatedSystem()
        system.gate.clear()
        with EILServer(system, max_concurrency=1,
                       queue_depth=0) as server:
            first = Client(server.graph_query, "gq1")
            assert system.started.acquire(timeout=10)
            with pytest.raises(ServerOverloadedError):
                server.graph_query("gq2")
            system.gate.set()
            assert first.result(timeout=10) == ("graph", "gq1")
        assert registry.counters["serving.shed"].value == 1

    def test_validates_sizing(self, registry):
        with pytest.raises(ValueError):
            EILServer(GatedSystem(), max_concurrency=0)
        with pytest.raises(ValueError):
            EILServer(GatedSystem(), queue_depth=-1)

    def test_exceptions_propagate_and_count(self, registry):
        class Exploding:
            def search(self, *args, **kwargs):
                raise KeyError("boom")

        with EILServer(Exploding()) as server:
            with pytest.raises(KeyError):
                server.search("q")
        assert registry.counters["serving.errors"].value == 1


class TestAdmissionControl:
    def test_sheds_past_capacity(self, registry):
        system = GatedSystem()
        system.gate.clear()  # hold every admitted request in flight
        server = EILServer(system, max_concurrency=1, queue_depth=1)
        try:
            first = Client(server.search, "a")
            assert system.started.acquire(timeout=5)  # executing
            second = Client(server.search, "b")
            _wait_queued(registry, 1)
            with pytest.raises(ServerOverloadedError):
                server.search("c")  # 1 + 1 slots are taken
            assert registry.counters["serving.shed"].value == 1
            assert registry.counters["serving.admitted"].value == 2
            system.gate.set()
            assert first.result() == ("search", "a")
            assert second.result() == ("search", "b")
        finally:
            system.gate.set()
            server.shutdown()
        assert registry.counters["serving.completed"].value == 2
        assert registry.gauges["serving.inflight"].value == 0
        assert registry.gauges["serving.queue_depth"].value == 0

    def test_slot_frees_after_completion(self, registry):
        system = GatedSystem()
        server = EILServer(system, max_concurrency=1, queue_depth=0)
        try:
            # Sequential requests reuse the single slot freely.
            for i in range(5):
                assert server.search(i) == ("search", i)
        finally:
            server.shutdown()
        assert registry.counters["serving.admitted"].value == 5
        assert "serving.shed" not in registry.counters

    def test_shutdown_rejects_new_requests(self, registry):
        server = EILServer(GatedSystem())
        server.shutdown()
        with pytest.raises(RuntimeError):
            server.search("q")

    def test_concurrent_clients_never_exceed_the_bounds(self, registry):
        """8 clients x 50 requests through 2 executing + 2 queued slots:
        never more than 2 at the substrate, every request in one
        outcome, and both gauges back at 0."""

        class SleepySystem:
            def __init__(self):
                self.active = 0
                self.most_active = 0
                self._lock = threading.Lock()

            def search(self, form, user=None, limit=None):
                with self._lock:
                    self.active += 1
                    self.most_active = max(self.most_active, self.active)
                time.sleep(form % 11 / 10_000)  # 0-1 ms
                with self._lock:
                    self.active -= 1
                return ("search", form)

        system = SleepySystem()
        server = EILServer(system, max_concurrency=2, queue_depth=2)

        def client():
            for i in range(50):
                try:
                    server.search(i, deadline_seconds=0.002 if i % 2
                                  else None)
                except (ServerOverloadedError, DeadlineExceededError):
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [threading.Thread(target=client) for _ in range(8)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            server.shutdown()
        assert system.most_active <= 2
        assert sum(_count(registry, name) for name in OUTCOMES) == 400
        assert _count(registry, "serving.shed") > 0
        assert registry.gauges["serving.inflight"].value == 0
        assert registry.gauges["serving.queue_depth"].value == 0


class TestDeadlines:
    def test_expired_in_queue_is_rejected_unstarted(self, registry):
        clock = FakeClock()
        system = GatedSystem()
        system.gate.clear()
        server = EILServer(
            system, max_concurrency=1, queue_depth=1, clock=clock
        )
        try:
            blocker = Client(server.search, "a")
            assert system.started.acquire(timeout=5)
            queued = Client(server.search, "b", deadline_seconds=5.0)
            _wait_queued(registry, 1)
            clock.advance(10.0)  # the queued request ages out
            system.gate.set()
            assert blocker.result() == ("search", "a")
            with pytest.raises(DeadlineExceededError):
                queued.result()
        finally:
            system.gate.set()
            server.shutdown()
        assert registry.counters["serving.rejected.deadline"].value == 1
        # The aged-out request never reached the system: the executing
        # slot spent zero effort on an unmeetable deadline.
        assert system.calls == 1
        assert "serving.errors" not in registry.counters

    def test_queued_miss_gives_up_at_its_deadline(self, registry):
        """The wait for an executing slot ends at the deadline, not when
        the slot frees."""
        system = GatedSystem()
        system.gate.clear()
        server = EILServer(system, max_concurrency=1, queue_depth=1)
        try:
            blocker = Client(server.search, "a")
            assert system.started.acquire(timeout=5)
            with pytest.raises(DeadlineExceededError):
                server.search("b", deadline_seconds=0.05)
            assert blocker.is_alive()  # still holding the executing slot
            assert system.calls == 1
            system.gate.set()
            assert blocker.result() == ("search", "a")
        finally:
            system.gate.set()
            server.shutdown()
        assert registry.counters["serving.rejected.deadline"].value == 1
        assert registry.gauges["serving.queue_depth"].value == 0

    def test_fresh_deadline_executes(self, registry):
        clock = FakeClock()
        with EILServer(GatedSystem(), clock=clock) as server:
            assert server.search("a", deadline_seconds=5.0) == (
                "search", "a"
            )
        assert "serving.rejected.deadline" not in registry.counters


class TestBreakerIntegration:
    def test_persistent_outage_trips_to_fast_fail(self, registry):
        class Failing:
            calls = 0

            def search(self, *args, **kwargs):
                Failing.calls += 1
                raise InjectedFaultError("substrate down")

        breaker = CircuitBreaker("serving", failure_threshold=2)
        with EILServer(Failing(), breaker=breaker) as server:
            for _ in range(2):
                with pytest.raises(InjectedFaultError):
                    server.search("q")
            with pytest.raises(CircuitOpenError):
                server.search("q")  # open: rejected without a call
        assert Failing.calls == 2
        assert registry.counters["breaker.open.serving"].value == 1
        assert registry.counters["serving.errors"].value == 3

    def test_latency_histogram_observes_every_request(self, registry):
        with EILServer(GatedSystem()) as server:
            for i in range(3):
                server.search(i)
        assert registry.histograms["serving.latency"].count == 3
        assert registry.histograms["serving.queue_wait"].count == 3
