"""Serving-layer bench: ``BENCH_serving.json``.

Measures what the concurrent serving PR promises (docs/OPERATIONS.md):

* **steady state** — N concurrent closed-loop clients drive the
  meta-query mix through :class:`~repro.serving.EILServer`; the bench
  records sustained QPS and p50/p95/p99 latency.
* **concurrent mutation** — the same load while a churn thread
  repeatedly onboards/offboards an extra engagement
  (``add_workbook`` / ``remove_deal``).  Snapshot isolation means
  every request must still complete: zero errors, no torn reads.
* **overload** — a deliberately under-provisioned server (2 workers +
  2 queue slots) against a slowed substrate, hammered by 8 clients
  with a tight deadline: the bench records shed and deadline-rejected
  counts, demonstrating bounded queues and deadline-aware rejection
  instead of collapse.

Run standalone (CI smoke uses ``--smoke``)::

    PYTHONPATH=src python benchmarks/bench_serving.py [--smoke]

or under pytest, where it asserts the load-shedding and
snapshot-isolation trajectories::

    PYTHONPATH=src python -m pytest benchmarks/bench_serving.py
"""

from __future__ import annotations

import argparse
import json
import pathlib
import threading
import time
from typing import Any, Dict, List, Optional

from repro import CorpusConfig, CorpusGenerator, EILSystem, obs
from repro.core.metaqueries import (
    role_capacity_query,
    scope_query,
    service_keyword_query,
    worked_with_query,
)
from repro.corpus import DealGenerator, WorkbookFactory
from repro.errors import EILUnavailableError, TransientError
from repro.security.access import User
from repro.serving import EILServer

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_serving.json"
)
_USER = User("bench", frozenset({"sales"}))


def _query_forms(corpus):
    member = corpus.deals[0].team[0]
    return [
        scope_query("End User Services"),
        worked_with_query(member.person.full_name),
        role_capacity_query("cross tower TSA"),
        service_keyword_query("Storage Management Services",
                              "data replication"),
    ]


def _extra_workbook(corpus, docs: int):
    """One more engagement, generated against the same taxonomy."""
    generator = DealGenerator(seed=999, taxonomy=corpus.taxonomy)
    deal = generator.generate(len(corpus.deals) + 1)[-1]
    workbook = WorkbookFactory(corpus.taxonomy, seed=999).build_workbook(
        deal, docs
    )
    return deal, workbook


class _SlowSystem:
    """A system facade with a fixed per-request service time.

    The overload phase needs requests that *occupy workers* long
    enough for arrivals to outpace completions; a sleep in front of
    the real system makes that deterministic without scaling the
    corpus up.
    """

    def __init__(self, eil: EILSystem, delay: float) -> None:
        self._eil = eil
        self._delay = delay

    def search(self, *args, **kwargs):
        time.sleep(self._delay)
        return self._eil.search(*args, **kwargs)

    def keyword_search(self, *args, **kwargs):
        time.sleep(self._delay)
        return self._eil.keyword_search(*args, **kwargs)


def _closed_loop(
    system: Any,
    forms,
    clients: int,
    requests_per_client: int,
    concurrency: int = 4,
    queue_depth: int = 16,
    deadline: Optional[float] = None,
    mutator=None,
) -> Dict[str, Any]:
    """Drive the query mix through an :class:`EILServer`; return stats.

    Each client thread issues ``requests_per_client`` blocking
    requests back-to-back (a closed loop: think one user waiting for
    each result page).  ``mutator``, when given, is a zero-arg
    callable run in its own thread until the load finishes.
    """
    registry = obs.MetricsRegistry()
    outcomes = {"completed": 0, "shed": 0, "deadline": 0,
                "unavailable": 0}
    outcomes_lock = threading.Lock()
    stop_mutating = threading.Event()

    def _count(key: str) -> None:
        with outcomes_lock:
            outcomes[key] += 1

    with obs.use_registry(registry):
        with EILServer(system, max_concurrency=concurrency,
                       queue_depth=queue_depth) as server:

            def client(offset: int) -> None:
                from repro.errors import (
                    DeadlineExceededError,
                    ServerOverloadedError,
                )
                for i in range(requests_per_client):
                    form = forms[(offset + i) % len(forms)]
                    try:
                        server.search(form, _USER,
                                      deadline_seconds=deadline)
                    except ServerOverloadedError:
                        _count("shed")
                    except DeadlineExceededError:
                        _count("deadline")
                    except EILUnavailableError:
                        _count("unavailable")
                    except TransientError:
                        _count("unavailable")
                    else:
                        _count("completed")

            def churn() -> None:
                while not stop_mutating.is_set():
                    mutator()

            mutation_thread = None
            if mutator is not None:
                mutation_thread = threading.Thread(
                    target=churn, name="churn"
                )
                mutation_thread.start()
            threads = [
                threading.Thread(target=client, args=(n,),
                                 name=f"client-{n}")
                for n in range(clients)
            ]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - started
            stop_mutating.set()
            if mutation_thread is not None:
                mutation_thread.join()

    latency = registry.histograms.get("serving.latency")
    counters = {
        name: counter.value
        for name, counter in registry.counters.items()
        if name.startswith("serving.")
    }
    issued = clients * requests_per_client
    return {
        "clients": clients,
        "requests_per_client": requests_per_client,
        "issued": issued,
        "outcomes": outcomes,
        "seconds": elapsed,
        "sustained_qps": (
            outcomes["completed"] / elapsed if elapsed else 0.0
        ),
        "latency_ms": {
            "p50": latency.percentile(50) * 1000 if latency else 0.0,
            "p95": latency.percentile(95) * 1000 if latency else 0.0,
            "p99": latency.percentile(99) * 1000 if latency else 0.0,
        },
        "serving_counters": counters,
    }


def run_bench(
    deals: int = 8,
    docs: int = 16,
    clients: int = 4,
    requests: int = 24,
    seed: int = 2008,
    out_path: pathlib.Path = DEFAULT_OUT,
) -> Dict[str, object]:
    """Run the three serving scenarios, write the JSON."""
    corpus = CorpusGenerator(
        CorpusConfig(seed=seed, n_deals=deals, docs_per_deal=docs)
    ).generate()
    forms = _query_forms(corpus)
    system = EILSystem.build(corpus)

    steady = _closed_loop(system, forms, clients, requests)

    new_deal, workbook = _extra_workbook(corpus, docs)

    def mutate() -> None:
        system.add_workbook(workbook)
        system.remove_deal(new_deal.deal_id)

    mutation = _closed_loop(
        system, forms, clients, requests, mutator=mutate
    )

    overload = _closed_loop(
        _SlowSystem(system, delay=0.02),
        forms,
        clients=8,
        requests_per_client=max(4, requests // 4),
        concurrency=2,
        queue_depth=2,
        deadline=0.01,
    )

    report: Dict[str, object] = {
        "bench": "serving",
        "schema_version": 2,
        "created_unix": time.time(),
        "corpus": {"seed": seed, "deals": deals, "docs_per_deal": docs},
        "steady": steady,
        "mutation": mutation,
        "overload": overload,
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_bench_serving(report_writer):
    """Pytest entry: run a small bench and assert the trajectories."""
    report = run_bench(deals=4, docs=14, clients=4, requests=8)
    steady = report["steady"]
    # Steady state is under capacity: every request completes.
    assert steady["outcomes"]["completed"] == steady["issued"]
    assert steady["sustained_qps"] > 0
    assert steady["latency_ms"]["p99"] >= steady["latency_ms"]["p50"]
    mutation = report["mutation"]
    # Snapshot isolation: queries racing add_workbook/remove_deal
    # never observe a torn index — zero errors of any kind.
    assert mutation["outcomes"]["completed"] == mutation["issued"]
    assert mutation["outcomes"]["unavailable"] == 0
    overload = report["overload"]
    # 8 clients vs 2+2 slots and a 20 ms service time: admission
    # control must shed rather than queue without bound, and requests
    # that outlived their 10 ms deadline must be rejected unstarted.
    assert overload["outcomes"]["shed"] > 0
    assert overload["serving_counters"]["serving.shed"] > 0
    assert (
        overload["outcomes"]["completed"]
        + overload["outcomes"]["shed"]
        + overload["outcomes"]["deadline"]
    ) == overload["issued"]
    assert DEFAULT_OUT.exists()
    parsed = json.loads(DEFAULT_OUT.read_text())
    assert parsed["bench"] == "serving"
    lines = [
        "E17: concurrent serving (admission control)",
        f"steady {steady['clients']} clients: "
        f"{steady['sustained_qps']:.0f} q/s p99 "
        f"{steady['latency_ms']['p99']:.1f} ms",
        f"under churn: {mutation['outcomes']['completed']}/"
        f"{mutation['issued']} completed, 0 torn reads",
        f"overload (8 clients, 2+2 slots): "
        f"{overload['outcomes']['completed']} completed, "
        f"{overload['outcomes']['shed']} shed, "
        f"{overload['outcomes']['deadline']} past deadline "
        "(bounded queue, no collapse)",
    ]
    report_writer("E17_serving", "\n".join(lines))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--deals", type=int, default=8)
    parser.add_argument("--docs", type=int, default=16)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--requests", type=int, default=24)
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument("--smoke", action="store_true",
                        help="small corpus + short load (CI smoke)")
    args = parser.parse_args()
    if args.smoke:
        args.deals, args.docs, args.requests = 4, 14, 8
    report = run_bench(args.deals, args.docs, args.clients,
                       args.requests, args.seed, args.out)
    print(f"wrote {args.out}")
    steady = report["steady"]
    print(f"steady         : {steady['sustained_qps']:.0f} q/s  "
          f"p50={steady['latency_ms']['p50']:.1f}ms  "
          f"p99={steady['latency_ms']['p99']:.1f}ms")
    mutation = report["mutation"]
    print(f"under churn    : {mutation['sustained_qps']:.0f} q/s  "
          f"{mutation['outcomes']['completed']}/{mutation['issued']} "
          f"completed")
    overload = report["overload"]
    print(f"overload       : {overload['outcomes']['completed']} "
          f"completed, {overload['outcomes']['shed']} shed, "
          f"{overload['outcomes']['deadline']} past deadline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
