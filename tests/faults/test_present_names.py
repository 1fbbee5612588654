"""Presentation reads the activities' names in one statement, under
the retry and fallback every per-deal row read used to have.

Step 19 shows each ranked activity under its deal's display name.  The
names come from one ``SELECT deal_id, name FROM deals WHERE deal_id IN
(...)`` per result — one ``db`` fault draw per attempt, however many
activities the result presents.  A transient failure is retried; a
persistent one names *every* activity by its bare deal id, counts
``query.present_row_unavailable`` once, and neither raises nor changes
the result's ``degraded`` flag: presentation must not un-degrade (or
degrade) what the ladder already decided.
"""

import pytest

from repro import CorpusConfig, CorpusGenerator, EILSystem, User, obs
from repro.core.metaqueries import scope_query, service_keyword_query
from repro.core.query_analyzer import FormQuery
from repro.errors import InjectedFaultError
from repro.faults import FaultInjector, FaultProfile, use_injector

SALES = User("u", frozenset({"sales"}))
#: Matches documents of every deal: four activities to name.
EVERY_DEAL = FormQuery(any_words="services service")
NAMES_SQL = "SELECT deal_id, name FROM deals WHERE deal_id IN ("


@pytest.fixture
def registry():
    with obs.use_registry() as fresh:
        yield fresh


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(
        CorpusConfig(n_deals=4, docs_per_deal=14)
    ).generate()


@pytest.fixture
def eil(corpus, registry):
    return EILSystem.build(corpus)


@pytest.fixture
def names_statement(eil, monkeypatch):
    """Fail the names statement's first ``failures[0]`` executions;
    ``calls`` lists the parameters of each execution."""
    db = eil.organized.db
    execute = db.execute
    calls = []
    failures = [0]

    def flaky(sql, params=()):
        if sql.startswith(NAMES_SQL):
            calls.append(list(params))
            if len(calls) <= failures[0]:
                raise InjectedFaultError("names statement down")
        return execute(sql, params)

    monkeypatch.setattr(db, "execute", flaky)
    return calls, failures


def _real_names(eil, results):
    return [
        eil.organized.deal_row(deal_id)["name"]
        for deal_id in results.deal_ids
    ]


def test_one_statement_per_result(eil, names_statement, registry):
    calls, _ = names_statement
    results = eil.search(EVERY_DEAL, SALES)
    assert len(results.activities) == 4
    assert calls == [results.deal_ids]  # once, for exactly the presented
    assert [a.name for a in results.activities] == _real_names(eil, results)
    assert all(a.name != a.deal_id for a in results.activities)


def test_nothing_presented_reads_nothing(eil, names_statement, registry):
    calls, _ = names_statement
    results = eil.search(scope_query("no such service at all"), SALES)
    assert results.activities == ()
    assert calls == []


def test_transient_failure_is_retried(eil, names_statement, registry):
    calls, failures = names_statement
    failures[0] = eil._search.retry.max_attempts - 1
    results = eil.search(EVERY_DEAL, SALES)
    assert len(results.activities) == 4
    assert len(calls) == eil._search.retry.max_attempts
    assert [a.name for a in results.activities] == _real_names(eil, results)
    assert results.degraded is None
    assert registry.counters["retry.recovered"].value == 1
    assert "query.present_row_unavailable" not in registry.counters


def test_persistent_failure_names_every_activity_by_its_id(
    eil, names_statement, registry
):
    calls, failures = names_statement
    failures[0] = 10 ** 6
    results = eil.search(EVERY_DEAL, SALES)
    assert len(results.activities) == 4
    assert len(calls) == eil._search.retry.max_attempts
    assert [a.name for a in results.activities] == results.deal_ids
    # Once per result, not once per activity; and the result is what
    # the ladder made it: full fidelity but for the names.
    assert registry.counters["query.present_row_unavailable"].value == 1
    assert results.degraded is None
    assert all(a.documents for a in results.activities)


def test_store_outage_draws_once_per_attempt_and_stays_degraded(
    eil, registry
):
    """The whole store down (the ``db`` fault point): the synopsis query
    degrades the result to keyword-only, and the names statement's own
    failure must leave it exactly that — flagged, with documents."""
    attempts = eil._search.retry.max_attempts
    injector = FaultInjector(FaultProfile.parse("db:error=1.0"))
    with use_injector(injector):
        results = eil.search(
            service_keyword_query("End User Services", "service"), SALES
        )
    assert results.degraded == "no-synopsis"
    assert len(results.activities) > 1
    assert [a.name for a in results.activities] == results.deal_ids
    assert all(a.documents for a in results.activities)
    assert registry.counters["query.present_row_unavailable"].value == 1
    # The synopsis query's attempts plus the names statement's: the
    # number of presented activities does not enter.
    assert registry.counters["faults.injected.db.error"].value == (
        2 * attempts
    )
