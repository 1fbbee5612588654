"""The entry points the reachability gate runs, as command lines.

Every command runs with the copy of the checkout as its working
directory; ``{tmp}`` is replaced by a scratch directory of the run.
Each bench script writes its report under ``{tmp}``, and the
paper-figure scripts write theirs into the copy, so no run changes a
file of the checkout.  The paper-figure scripts run under pytest with
``--benchmark-disable``, because pytest-benchmark clears the trace
hook around the calls it times.
"""

from typing import List, Tuple

#: A small corpus, as CI's CLI smoke steps use.
_SMALL = ["--deals", "4", "--docs", "14"]


def _cli(*args: str) -> List[str]:
    return ["python", "-m", "repro", *args]


#: (label, argv) of every entry point.
ENTRIES: List[Tuple[str, List[str]]] = [
    ("cli demo", _cli(*_SMALL, "demo")),
    ("cli search", _cli(*_SMALL, "search", "--tower", "End User Services")),
    ("cli search form",
     _cli(*_SMALL, "search", "--industry", "Banking", "--person", "Smith",
          "--organization", "IBM", "--role", "cross tower TSA",
          "--text", "network", "--phrase", "service delivery",
          "--limit", "5", "--facets")),
    ("cli study", _cli("study", "--threads", "40")),
    ("cli build", _cli(*_SMALL, "build", "{tmp}/snapshot.json")),
    ("cli build --workers 2",
     _cli(*_SMALL, "--workers", "2", "build", "{tmp}/snapshot-2.json")),
    ("cli build --executor serial",
     _cli(*_SMALL, "--workers", "2", "--executor", "serial", "build",
          "{tmp}/snapshot-serial.json")),
    ("cli synopsis", _cli(*_SMALL, "synopsis", "DEAL A")),
    ("cli stats", _cli(*_SMALL, "stats", "--queries", "1")),
    ("cli stats --json",
     _cli(*_SMALL, "stats", "--queries", "1", "--json")),
    ("cli stats --shards 2",
     _cli(*_SMALL, "--shards", "2", "stats", "--queries", "1")),
    ("cli serve", _cli(*_SMALL, "serve", "--clients", "6",
                       "--requests", "8")),
    ("cli serve --shards 3 --json",
     _cli(*_SMALL, "--shards", "3", "serve", "--clients", "6",
          "--requests", "8", "--json")),
    ("cli persist", _cli(*_SMALL, "persist", "{tmp}/index")),
    ("cli stats --index-dir",
     _cli(*_SMALL, "stats", "--queries", "1", "--index-dir", "{tmp}/index")),
    ("cli serve --index-dir",
     _cli(*_SMALL, "serve", "--clients", "2", "--requests", "4",
          "--index-dir", "{tmp}/index")),
    ("cli persist --shards 2",
     _cli(*_SMALL, "--shards", "2", "persist", "{tmp}/index-2")),
    ("cli stats --index-dir sharded",
     _cli(*_SMALL, "stats", "--queries", "1", "--index-dir",
          "{tmp}/index-2")),
    ("cli stats --shards 2 --index-dir sharded",
     _cli(*_SMALL, "--shards", "2", "stats", "--queries", "1",
          "--index-dir", "{tmp}/index-2")),
    ("cli graph --role", _cli(*_SMALL, "graph", "--role", "cross tower TSA")),
    ("cli graph --expertise",
     _cli(*_SMALL, "graph", "--expertise", "Network", "--limit", "3")),
    ("cli graph --worked-with",
     _cli(*_SMALL, "graph", "--worked-with", "Yuki Doe", "--json")),
    ("cli graph --overlap", _cli(*_SMALL, "graph", "--overlap", "Yuki Doe")),
    ("cli graph --graph-stats",
     _cli(*_SMALL, "graph", "--graph-stats", "--json")),
    ("cli graph --index-dir",
     _cli(*_SMALL, "graph", "--index-dir", "{tmp}/index", "--graph-stats")),
] + [
    (f"cli fault {component}",
     _cli("--deals", "4", "--docs", "12", "--fault-profile",
          f"{component}:error=0.2", "stats", "--queries", "3"))
    for component in ("repository", "crawler", "analysis", "db", "index")
] + [
    (f"example {name}", ["python", f"examples/{name}.py"])
    for name in ("access_control", "build_pipeline", "email_study",
                 "incremental_rollout", "quickstart", "sales_deal_search")
] + [
    ("paper figures",
     ["python", "-m", "pytest", "-q", "-p", "no:cacheprovider",
      "--benchmark-disable",
      *(f"benchmarks/bench_{name}.py"
        for name in ("email_study", "fig4_keyword_blowup", "fig5_eil_scope",
                     "fig7_people_search", "mq3_role_search", "mq4_hybrid",
                     "paper_scale", "ranking_ablation", "scale_rollout",
                     "structure_ablation", "table1_annotators",
                     "table2_quality"))]),
    ("harness --all --smoke",
     ["python", "-m", "benchmarks.harness", "--all", "--smoke"]),
    ("harness tests",
     ["python", "-m", "pytest", "-q", "-p", "no:cacheprovider",
      "benchmarks/harness/tests"]),
    ("bench query latency",
     ["python", "benchmarks/bench_query_latency.py", "--quick",
      "--out", "{tmp}/BENCH_query_latency.json"]),
    ("bench offline build",
     ["python", "benchmarks/bench_offline_build.py", "--smoke",
      "--out", "{tmp}/BENCH_offline_build.json"]),
    ("bench fault tolerance",
     ["python", "benchmarks/bench_fault_tolerance.py", "--smoke",
      "--out", "{tmp}/BENCH_fault_tolerance.json"]),
    ("bench serving",
     ["python", "benchmarks/bench_serving.py", "--smoke",
      "--out", "{tmp}/BENCH_serving.json"]),
    ("bench storage",
     ["python", "benchmarks/bench_storage.py", "--smoke",
      "--out", "{tmp}/BENCH_storage.json"]),
    ("bench graph",
     ["python", "benchmarks/bench_graph.py", "--smoke",
      "--out", "{tmp}/BENCH_graph.json"]),
]
