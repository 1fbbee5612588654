"""Offline build + query cache bench: ``BENCH_offline_build.json``.

Measures the offline-build executors and the online cache:

* **offline** — wall-clock and docs/sec for the full offline pipeline
  (crawl + parse/annotate + populate) across the two execution
  modes.  Two views land in the JSON:

  - an **executor ablation** (``serial`` vs ``processes``),
    asserting both modes produce identical ``AnalysisResults``;
  - a **throughput trajectory** for the ``processes`` executor —
    docs/sec at 1, 2, 4, ... workers — the scaling curve a multi-core
    host climbs and a single-core host honestly flatlines on.

  On a single-core runner the pool cannot beat serial: processes add
  pickling overhead with no second core to spend it on, so recorded
  speedups at or below 1.0x are expected there.  The
  determinism guarantee — identical results at any width, any mode —
  is what the suite enforces; the throughput numbers are recorded
  honestly either way.

* **online** — cold vs. warm latency for the business-activity driven
  search and the keyword baseline: the first execution of each query
  misses the LRU cache, every repeat hits it.

Run standalone (CI smoke uses ``--smoke``)::

    PYTHONPATH=src python benchmarks/bench_offline_build.py [--smoke]

or under pytest, where it asserts the JSON is well-formed::

    PYTHONPATH=src python -m pytest benchmarks/bench_offline_build.py
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time
from typing import Dict, List, Optional

from repro import CorpusConfig, CorpusGenerator, EILSystem, obs
from repro.core.metaqueries import (
    role_capacity_query,
    scope_query,
    service_keyword_query,
    worked_with_query,
)
from repro.security.access import User

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_offline_build.json"
)
_USER = User("bench", frozenset({"sales"}))


def _time_build(corpus, workers: int,
                executor: Optional[str] = None) -> Dict[str, object]:
    started = time.perf_counter()
    eil = EILSystem.build(corpus, workers=workers, executor=executor)
    elapsed = time.perf_counter() - started
    return {
        "eil": eil,
        "seconds": elapsed,
        "docs_per_second": (
            eil.build_report.documents_indexed / elapsed
            if elapsed else 0.0
        ),
    }


def _trajectory_widths(workers: int) -> List[int]:
    """Doubling worker counts up to ``workers``: 1, 2, 4, ..."""
    widths = [1]
    while widths[-1] * 2 <= workers:
        widths.append(widths[-1] * 2)
    if widths[-1] != workers:
        widths.append(workers)
    return widths


def _query_forms(corpus):
    member = corpus.deals[0].team[0]
    return [
        ("concept", scope_query("End User Services")),
        ("people", worked_with_query(member.person.full_name)),
        ("role", role_capacity_query("cross tower TSA")),
        ("hybrid", service_keyword_query("Storage Management Services",
                                         "data replication")),
    ]


def _cold_warm(eil: EILSystem, corpus, warm_rounds: int):
    """Per query class: one cold (miss) sample, ``warm_rounds`` hits."""
    cold: Dict[str, float] = {}
    warm: Dict[str, List[float]] = {}
    for name, form in _query_forms(corpus):
        started = time.perf_counter()
        eil.search(form, _USER)
        cold[name] = time.perf_counter() - started
        samples = []
        for _ in range(warm_rounds):
            started = time.perf_counter()
            eil.search(form, _USER)
            samples.append(time.perf_counter() - started)
        warm[name] = samples
    started = time.perf_counter()
    eil.keyword_search("end user services")
    cold["keyword_baseline"] = time.perf_counter() - started
    samples = []
    for _ in range(warm_rounds):
        started = time.perf_counter()
        eil.keyword_search("end user services")
        samples.append(time.perf_counter() - started)
    warm["keyword_baseline"] = samples
    return cold, warm


def run_bench(
    deals: int = 10,
    docs: int = 32,
    workers: int = 4,
    warm_rounds: int = 20,
    seed: int = 2008,
    out_path: pathlib.Path = DEFAULT_OUT,
) -> Dict[str, object]:
    """Ablate executors, trace the scaling curve, write the JSON."""
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        corpus = CorpusGenerator(
            CorpusConfig(seed=seed, n_deals=deals, docs_per_deal=docs)
        ).generate()
        serial = _time_build(corpus, workers=1, executor="serial")
        serial_s = serial["seconds"]
        serial_results = serial["eil"].analysis_results

        ablation: Dict[str, Dict[str, object]] = {
            "serial": {
                "workers": 1,
                "seconds": serial_s,
                "docs_per_second": serial["docs_per_second"],
                "speedup": 1.0,
                "results_identical": True,
            }
        }
        for mode in ("processes",):
            run = _time_build(corpus, workers=workers, executor=mode)
            ablation[mode] = {
                "workers": workers,
                "seconds": run["seconds"],
                "docs_per_second": run["docs_per_second"],
                "speedup": (
                    serial_s / run["seconds"] if run["seconds"] else 0.0
                ),
                "results_identical": (
                    run["eil"].analysis_results == serial_results
                ),
            }
            if mode == "processes":
                query_system = run["eil"]

        trajectory: List[Dict[str, object]] = []
        for width in _trajectory_widths(workers):
            run = _time_build(corpus, workers=width,
                              executor="processes" if width > 1
                              else "serial")
            trajectory.append({
                "executor": "processes" if width > 1 else "serial",
                "workers": width,
                "seconds": run["seconds"],
                "docs_per_second": run["docs_per_second"],
                "speedup": (
                    serial_s / run["seconds"] if run["seconds"] else 0.0
                ),
            })

        cold, warm = _cold_warm(query_system, corpus, warm_rounds)

    cold_mean = sum(cold.values()) / len(cold)
    warm_all = [s for samples in warm.values() for s in samples]
    warm_mean = sum(warm_all) / len(warm_all)
    hits = registry.counters.get("query.cache.hits")
    misses = registry.counters.get("query.cache.misses")
    report: Dict[str, object] = {
        "bench": "offline_build",
        "schema_version": 2,
        "created_unix": time.time(),
        "corpus": {
            "seed": seed,
            "deals": deals,
            "docs_per_deal": docs,
            "documents_indexed":
                serial["eil"].build_report.documents_indexed,
        },
        "offline": {
            "workers": workers,
            "serial_seconds": serial_s,
            "serial_docs_per_second": serial["docs_per_second"],
            "executor_ablation": ablation,
            "throughput_trajectory": trajectory,
            "results_identical": all(
                entry["results_identical"] for entry in ablation.values()
            ),
        },
        "online": {
            "warm_rounds": warm_rounds,
            "cold_mean_ms": cold_mean * 1000.0,
            "warm_mean_ms": warm_mean * 1000.0,
            "cold_over_warm": (
                cold_mean / warm_mean if warm_mean else 0.0
            ),
            "cold_ms_per_class": {
                name: seconds * 1000.0 for name, seconds in cold.items()
            },
            "warm_mean_ms_per_class": {
                name: sum(samples) / len(samples) * 1000.0
                for name, samples in warm.items()
            },
            "cache": {
                "hits": hits.value if hits else 0,
                "misses": misses.value if misses else 0,
            },
        },
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_bench_offline_build(report_writer):
    """Pytest entry: run a small bench and sanity-check the JSON."""
    report = run_bench(deals=4, docs=14, workers=2, warm_rounds=5)
    offline = report["offline"]
    online = report["online"]
    assert offline["results_identical"] is True
    assert offline["serial_seconds"] > 0
    assert offline["serial_docs_per_second"] > 0
    ablation = offline["executor_ablation"]
    assert set(ablation) == {"serial", "processes"}
    for entry in ablation.values():
        assert entry["results_identical"] is True
        assert entry["docs_per_second"] > 0
    trajectory = offline["throughput_trajectory"]
    assert [point["workers"] for point in trajectory] == [1, 2]
    for point in trajectory:
        assert point["docs_per_second"] > 0
    assert online["cache"]["hits"] > 0
    assert DEFAULT_OUT.exists()
    parsed = json.loads(DEFAULT_OUT.read_text())
    assert parsed["bench"] == "offline_build"
    assert parsed["schema_version"] == 2
    assert parsed["offline"]["throughput_trajectory"]
    processes = ablation["processes"]
    lines = [
        "E14: process-sharded offline build + query cache",
        f"serial build {offline['serial_seconds']:.2f}s "
        f"({offline['serial_docs_per_second']:.0f} docs/s); "
        f"{processes['workers']}-worker processes build "
        f"{processes['seconds']:.2f}s "
        f"(speedup {processes['speedup']:.2f}x, identical results: "
        f"{offline['results_identical']})",
        "trajectory: " + ", ".join(
            f"{point['workers']}w {point['docs_per_second']:.0f} docs/s"
            for point in trajectory
        ),
        f"query cold {online['cold_mean_ms']:.2f}ms vs warm "
        f"{online['warm_mean_ms']:.3f}ms "
        f"({online['cold_over_warm']:.0f}x; "
        f"{online['cache']['hits']} hits / "
        f"{online['cache']['misses']} misses)",
    ]
    report_writer("E14_offline_build", "\n".join(lines))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--deals", type=int, default=10)
    parser.add_argument("--docs", type=int, default=32)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--warm-rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument("--smoke", action="store_true",
                        help="small corpus + few rounds (CI smoke)")
    args = parser.parse_args()
    if args.smoke:
        args.deals, args.docs, args.warm_rounds = 4, 14, 5
        args.workers = min(args.workers, 2)
    report = run_bench(args.deals, args.docs, args.workers,
                       args.warm_rounds, args.seed, args.out)
    offline = report["offline"]
    online = report["online"]
    print(f"wrote {args.out}")
    print(f"serial build    : {offline['serial_seconds']:.2f}s "
          f"({offline['serial_docs_per_second']:.0f} docs/s)")
    for mode in ("processes",):
        entry = offline["executor_ablation"][mode]
        print(f"{mode:<10} x{entry['workers']}   : "
              f"{entry['seconds']:.2f}s "
              f"({entry['docs_per_second']:.0f} docs/s, "
              f"speedup {entry['speedup']:.2f}x)")
    print("trajectory      : " + ", ".join(
        f"{point['workers']}w={point['docs_per_second']:.0f} docs/s"
        for point in offline["throughput_trajectory"]
    ))
    print(f"results identical: {offline['results_identical']}")
    print(f"query cold mean : {online['cold_mean_ms']:.2f}ms")
    print(f"query warm mean : {online['warm_mean_ms']:.3f}ms "
          f"({online['cold_over_warm']:.0f}x faster; "
          f"{online['cache']['hits']} hits, "
          f"{online['cache']['misses']} misses)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
