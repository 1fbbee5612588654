"""Query-latency baseline: ``BENCH_query_latency.json``.

Times the online query path (business-activity driven search plus the
keyword baseline) over a seeded corpus and emits a machine-readable
perf baseline with p50/p95/p99 per query class.  Also measures the
observability layer's own cost: the same workload runs once with the
default (enabled) registry and once with recording disabled, and the
report includes the overhead ratio (acceptance: < 5% on the bench
corpus).

Run standalone (CI smoke uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_query_latency.py [--quick]

or under pytest, where it asserts the JSON is well-formed::

    PYTHONPATH=src python -m pytest benchmarks/bench_query_latency.py
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time
from typing import Callable, Dict, List, Tuple

from repro import CorpusConfig, CorpusGenerator, EILSystem, obs
from repro.core.metaqueries import (
    role_capacity_query,
    scope_query,
    service_keyword_query,
    worked_with_query,
)
from repro.security.access import User

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_query_latency.json"
)
_USER = User("bench", frozenset({"sales"}))


def _percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (must be non-empty)."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1,
                      round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


def _summarize(samples: List[float]) -> Dict[str, float]:
    return {
        "count": len(samples),
        "mean_ms": sum(samples) / len(samples) * 1000.0,
        "p50_ms": _percentile(samples, 50) * 1000.0,
        "p95_ms": _percentile(samples, 95) * 1000.0,
        "p99_ms": _percentile(samples, 99) * 1000.0,
        "max_ms": max(samples) * 1000.0,
    }


def _workload(eil: EILSystem, corpus) -> List[Tuple[str, Callable[[], object]]]:
    """(query class, thunk) pairs covering the paper's meta-queries."""
    member = corpus.deals[0].team[0]
    concept = scope_query("End User Services")
    people = worked_with_query(member.person.full_name)
    role = role_capacity_query("cross tower TSA")
    hybrid = service_keyword_query("Storage Management Services",
                                   "data replication")
    return [
        ("concept", lambda: eil.search(concept, _USER)),
        ("people", lambda: eil.search(people, _USER)),
        ("role", lambda: eil.search(role, _USER)),
        ("hybrid", lambda: eil.search(hybrid, _USER)),
        ("keyword_baseline",
         lambda: eil.keyword_search("end user services")),
        ("keyword_topk",
         lambda: eil.keyword_search(
             "migration OR replication OR services OR storage "
             "OR network", limit=5)),
    ]


def _time_workload(
    workload: List[Tuple[str, Callable[[], object]]], rounds: int
) -> Dict[str, List[float]]:
    samples: Dict[str, List[float]] = {name: [] for name, _ in workload}
    for _ in range(rounds):
        for name, thunk in workload:
            started = time.perf_counter()
            thunk()
            samples[name].append(time.perf_counter() - started)
    return samples


def run_bench(
    deals: int = 12,
    docs: int = 40,
    rounds: int = 30,
    seed: int = 2008,
    out_path: pathlib.Path = DEFAULT_OUT,
) -> Dict[str, object]:
    """Build, measure, and write the JSON baseline; returns the report."""
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        build_started = time.perf_counter()
        corpus = CorpusGenerator(
            CorpusConfig(seed=seed, n_deals=deals, docs_per_deal=docs)
        ).generate()
        eil = EILSystem.build(corpus)
        build_seconds = time.perf_counter() - build_started

        workload = _workload(eil, corpus)
        for name, thunk in workload:  # warm-up, outside the sample set
            thunk()
        samples = _time_workload(workload, rounds)

        # Instrumentation overhead: same workload, recording disabled.
        obs.set_enabled(False)
        try:
            disabled_samples = _time_workload(workload, rounds)
        finally:
            obs.set_enabled(True)

    all_enabled = [s for per_class in samples.values() for s in per_class]
    all_disabled = [
        s for per_class in disabled_samples.values() for s in per_class
    ]
    enabled_mean = sum(all_enabled) / len(all_enabled)
    disabled_mean = sum(all_disabled) / len(all_disabled)
    report: Dict[str, object] = {
        "bench": "query_latency",
        "schema_version": 3,
        "created_unix": time.time(),
        "corpus": {"seed": seed, "deals": deals, "docs_per_deal": docs,
                   "documents_indexed":
                       eil.build_report.documents_indexed},
        "rounds": rounds,
        "build_seconds": build_seconds,
        "latency": _summarize(all_enabled),
        "per_class": {
            name: _summarize(per_class)
            for name, per_class in samples.items()
        },
        "observability_overhead": {
            "enabled_mean_ms": enabled_mean * 1000.0,
            "disabled_mean_ms": disabled_mean * 1000.0,
            "overhead_ratio": (
                enabled_mean / disabled_mean if disabled_mean else 1.0
            ),
        },
        "counters": {
            name: counter.value
            for name, counter in sorted(registry.counters.items())
            if name.startswith(("engine.", "db.", "query."))
        },
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_bench_query_latency(report_writer):
    """Pytest entry: run a small bench and sanity-check the JSON."""
    report = run_bench(deals=6, docs=20, rounds=5)
    latency = report["latency"]
    assert latency["count"] > 0
    assert 0 < latency["p50_ms"] <= latency["p95_ms"] <= latency["max_ms"]
    assert DEFAULT_OUT.exists()
    parsed = json.loads(DEFAULT_OUT.read_text())
    assert parsed["bench"] == "query_latency"
    lines = [
        "E13: query latency baseline",
        f"p50 {latency['p50_ms']:.2f}ms  p95 {latency['p95_ms']:.2f}ms  "
        f"p99 {latency['p99_ms']:.2f}ms",
        f"overhead ratio (obs on/off): "
        f"{report['observability_overhead']['overhead_ratio']:.3f}",
    ]
    report_writer("E13_query_latency", "\n".join(lines))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--deals", type=int, default=12)
    parser.add_argument("--docs", type=int, default=40)
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument("--quick", action="store_true",
                        help="small corpus + few rounds (CI smoke)")
    args = parser.parse_args()
    if args.quick:
        args.deals, args.docs, args.rounds = 5, 15, 5
    report = run_bench(args.deals, args.docs, args.rounds, args.seed,
                       args.out)
    latency = report["latency"]
    overhead = report["observability_overhead"]
    print(f"wrote {args.out}")
    print(f"queries timed : {latency['count']}")
    print(f"latency p50   : {latency['p50_ms']:.2f}ms")
    print(f"latency p95   : {latency['p95_ms']:.2f}ms")
    print(f"latency p99   : {latency['p99_ms']:.2f}ms")
    print(f"obs overhead  : {overhead['overhead_ratio']:.3f}x "
          f"(enabled {overhead['enabled_mean_ms']:.3f}ms / "
          f"disabled {overhead['disabled_mean_ms']:.3f}ms)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
