"""E9 — production rollout scale (paper Section 4, closing).

The paper reports the production system covering ~1000 engagements and
500k+ documents.  This bench measures the two costs that dominate a
rollout: offline build throughput (index + annotate + populate) and
online query latency — which must stay roughly flat in corpus size for
the synopsis-first architecture to make sense.

Every system is built with ``query_cache_size=0, engine_cache_size=0``
and every timing is a *cold form*: 18 towers × {no words,
``migration``, ``server consolidation``} (54 distinct forms, 36 of them
scoped text forms), each answered from scratch with ``limit=10``, in
:data:`ROUNDS` passes over the forms in shuffled order.  A cached
answer would time the cache, not the query.  Each row reports the cold
form p50 / p95 over all forms and over the scoped text forms alone, and
the scope size of a scoped form (deals the synopsis query returned, and
the documents those deals hold).

The default run sweeps 4, 8 and 16 deals × 40 documents.  The two
corpus rungs are long cases behind the ``rung`` marker, never in the
default run or CI::

    PYTHONPATH=src python -m pytest benchmarks/bench_scale_rollout.py \\
        -m rung -s                      # paper (23 × 652), rollout (1,000 × 100)
    PYTHONPATH=src python -m pytest -m rung -s \\
        "benchmarks/bench_scale_rollout.py::test_rung[paper]"   # one rung

A rollout build takes about a minute and ~1 GB of memory.
"""

import random
import statistics
import time

import pytest

from repro import CorpusConfig, CorpusGenerator, EILSystem
from repro.core import service_keyword_query
from repro.core.query_analyzer import FormQuery, SynopsisSearch
from repro.security import User

USER = User("bench", frozenset({"sales"}))

SCALES = [4, 8, 16]
#: name -> (deals, documents per deal).
RUNGS = {"paper": (23, 652), "rollout": (1000, 100)}
FORM_WORDS = ("", "migration", "server consolidation")
ROUNDS = 3
LIMIT = 10

_RESULTS = {}


def build(n_deals, docs_per_deal):
    """``(corpus, system, build seconds)``, both caches off."""
    corpus = CorpusGenerator(
        CorpusConfig(seed=2008, n_deals=n_deals, docs_per_deal=docs_per_deal)
    ).generate()
    start = time.perf_counter()
    eil = EILSystem.build(corpus, query_cache_size=0, engine_cache_size=0)
    return corpus, eil, time.perf_counter() - start


def cold_forms(taxonomy):
    """``(form, scoped text form?)`` for every tower × word choice."""
    forms = []
    for tower in taxonomy.towers:
        for words in FORM_WORDS:
            if words:
                forms.append((service_keyword_query(tower.name, words), True))
            else:
                forms.append((FormQuery(tower=tower.name), False))
    return forms


def _percentile(values, fraction):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def measure(eil, corpus):
    """Cold-form latencies and scope sizes of one built system."""
    forms = cold_forms(corpus.taxonomy)
    all_ms, scoped_ms = [], []
    rng = random.Random(9)
    for _ in range(ROUNDS):
        order = list(forms)
        rng.shuffle(order)
        for form, scoped in order:
            start = time.perf_counter()
            eil.search(form, USER, limit=LIMIT)
            elapsed = (time.perf_counter() - start) * 1000
            all_ms.append(elapsed)
            if scoped:
                scoped_ms.append(elapsed)
    synopsis = SynopsisSearch(eil.organized, eil.taxonomy)
    scope_deals, scope_docs = [], []
    for form, scoped in forms:
        if scoped:
            deals = list(synopsis.execute(form))
            scope_deals.append(len(deals))
            scope_docs.append(
                len(eil.engine.docs_with_metadata("deal_id", deals))
            )
    return {
        "forms": len(forms),
        "p50_ms": statistics.median(all_ms),
        "p95_ms": _percentile(all_ms, 0.95),
        "scoped_p50_ms": statistics.median(scoped_ms),
        "scoped_p95_ms": _percentile(scoped_ms, 0.95),
        "scope_deals": statistics.median(scope_deals),
        "scope_docs": statistics.median(scope_docs),
        "scope_docs_max": max(scope_docs),
    }


HEADER = (
    f"{'deals':>6s} {'docs':>7s} {'build s':>8s} {'docs/s':>8s} "
    f"{'p50 ms':>7s} {'p95 ms':>7s} {'scoped p50':>10s} "
    f"{'scoped p95':>10s} {'scope deals':>11s} {'scope docs':>10s} "
    f"{'max docs':>8s}"
)


def row(n_deals, docs, build_seconds, found):
    return (
        f"{n_deals:6d} {docs:7d} {build_seconds:8.2f} "
        f"{docs / build_seconds:8.0f} {found['p50_ms']:7.2f} "
        f"{found['p95_ms']:7.2f} {found['scoped_p50_ms']:10.2f} "
        f"{found['scoped_p95_ms']:10.2f} {found['scope_deals']:11.0f} "
        f"{found['scope_docs']:10.0f} {found['scope_docs_max']:8d}"
    )


@pytest.mark.parametrize("n_deals", SCALES)
def test_offline_build_throughput(benchmark, n_deals):
    def run():
        return build(n_deals, 40)

    corpus, eil, seconds = benchmark.pedantic(run, rounds=1, iterations=1)
    _RESULTS[n_deals] = (corpus, eil, seconds)
    assert eil.build_report.documents_failed == 0
    assert eil.build_report.deals_populated == n_deals


@pytest.mark.parametrize("n_deals", SCALES)
def test_online_query_latency(benchmark, n_deals):
    if n_deals not in _RESULTS:  # pragma: no cover - ordering guard
        _RESULTS[n_deals] = build(n_deals, 40)
    corpus, eil, _ = _RESULTS[n_deals]
    forms = cold_forms(corpus.taxonomy)

    def every_form_cold():
        for form, _ in forms:
            eil.search(form, USER, limit=LIMIT)

    benchmark(every_form_cold)


def test_scale_report(benchmark, report_writer):
    def build_report() -> str:
        lines = [
            "E9: rollout scale sweep (offline build + cold-form query)",
            HEADER,
        ]
        for n_deals in SCALES:
            if n_deals not in _RESULTS:
                _RESULTS[n_deals] = build(n_deals, 40)
            corpus, eil, seconds = _RESULTS[n_deals]
            lines.append(row(n_deals, corpus.document_count, seconds,
                             measure(eil, corpus)))
        return "\n".join(lines)

    text = benchmark.pedantic(build_report, rounds=1, iterations=1)
    report_writer("E9_scale", text)


@pytest.mark.rung
@pytest.mark.parametrize("rung", sorted(RUNGS))
def test_rung(report_writer, rung):
    n_deals, docs_per_deal = RUNGS[rung]
    corpus, eil, seconds = build(n_deals, docs_per_deal)
    assert eil.build_report.deals_populated == n_deals
    found = measure(eil, corpus)
    report_writer(
        f"E9_rung_{rung}",
        "\n".join([
            f"E9: {rung} rung, {n_deals} deals x {docs_per_deal} docs "
            f"(cold forms, both caches off)",
            HEADER,
            row(n_deals, corpus.document_count, seconds, found),
        ]),
    )
