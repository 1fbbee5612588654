"""Whole runs at smoke scale: the result line, the report beside it, and
the counts that must repeat exactly from run to run."""

import json
import os
import subprocess
import sys

import pytest

from benchmarks.harness import paths, runner
from benchmarks.harness.metrics import END_TO_END, PER_LAYER

EXACT_END_TO_END = ("table2_f1", "index_bytes_per_doc")
EXACT_PER_LAYER = (
    "search.postings_touched_per_query", "search.candidates_per_query",
    "search.maxscore_topk_share", "db.rows_scanned_per_row_returned",
    "db.statements_per_op", "security.access_checks_per_op",
    "storage.postings_bytes_per_doc", "storage.docstore_bytes_per_doc",
    "graph.nodes", "graph.edges", "core.query_cache_hit_ratio",
    "search.engine_cache_hit_ratio",
)


def _run(*arguments):
    child = subprocess.run(
        [sys.executable, paths.RUN_PY, *arguments], cwd=paths.ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert child.returncode == 0, child.stderr.decode()
    return child.stdout.decode().strip().splitlines()


def _line(workload, trace):
    lines = _run("--workload", workload, "--seed", "5", "--smoke",
                 "--trace", str(trace))
    line = json.loads(lines[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    return {name: entry["value"] for name, entry in line["metrics"].items()}


def _report(workload, trace):
    suffix = "-trace" if trace else ""
    path = os.path.join(paths.OUT_DIR, f"result-{workload}{suffix}.json")
    with open(path) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", runner.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    first = _line(workload, 0)
    assert set(first) == set(END_TO_END)
    assert all(value > 0 for value in first.values())
    report = _report(workload, 0)
    assert report["scale"] == "smoke" and report["comparable"] is False
    for key in ("python", "nproc", "git_sha", "seed", "corpus",
                "cache_capacities", "operations_per_pass"):
        assert key in report
    assert report["passes"] >= 3
    for entry in report["noise"].values():
        assert len(entry["per_pass"]) == report["passes"]
    again = _line(workload, 0)
    for name in EXACT_END_TO_END:
        assert first[name] == again[name], name


@pytest.mark.parametrize("workload", runner.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    first = _line(workload, 1)
    assert set(first) == set(PER_LAYER)
    assert first["op_ms"] > 0
    parts = sum(value for name, value in first.items()
                if name.startswith("layer.")) + first["unattributed_ms"]
    assert parts == pytest.approx(first["op_ms"], rel=1e-6)
    assert first["obs.tracing_overhead_ratio"] > 0
    report = _report(workload, 1)
    assert report["traced_passes"] == report["passes"]
    trace_path = os.path.join(paths.OUT_DIR, f"trace-{workload}.json")
    with open(trace_path) as handle:
        trace = json.load(handle)
    assert trace["workload"] == workload and trace["spans"]
    again = _line(workload, 1)
    for name in EXACT_PER_LAYER:
        # With a reader thread beside the writer, how many queries a
        # pass holds depends on timing; sizes still repeat.
        if workload == "ingest" and not name.startswith(
                ("storage.", "graph.")):
            continue
        assert first[name] == again[name], name


def test_layers_do_the_work_the_workloads_were_chosen_for():
    cold = _line("form_cold", 1)
    hot = _line("form_hot", 1)
    analytics = _line("analytics", 1)
    assert cold["core.query_cache_hit_ratio"] == 0.0
    assert cold["search.engine_cache_hit_ratio"] == 0.0
    assert hot["core.query_cache_hit_ratio"] >= 0.99
    assert hot["search.engine_ms"] < 0.05 * hot["op_ms"]
    assert analytics["search.engine_ms"] < 0.05 * analytics["op_ms"]
    assert (analytics["layer.db_ms"] + analytics["layer.graph_ms"]
            > analytics["layer.search_ms"])
    ingest = _line("ingest", 1)
    # p50 of the maintenance calls is a remove_deal, p95 an add_workbook.
    end_to_end = _line("ingest", 0)
    assert end_to_end["latency_p50_ms"] * 3 < end_to_end["latency_p95_ms"]
    assert (ingest["ingest.remove_deal_p50_ms"] * 3
            < ingest["ingest.add_workbook_p50_ms"])
    for name in ("ingest.build_docs_per_s", "ingest.save_s",
                 "ingest.cold_start_s", "ingest.add_workbook_p50_ms",
                 "ingest.remove_deal_p50_ms", "graph.index_deal_ms",
                 "db.insert_ms_per_deal", "storage.save_s", "db.load_s",
                 "uima.analyze_docs_per_s"):
        assert ingest[name] > 0, name


def test_all_prints_every_metric_and_labels_smoke():
    lines = _run("--all", "--smoke")
    for workload in runner.WORKLOADS:
        for metric, (unit, _, _) in END_TO_END.items():
            assert any(line.startswith(f"{workload}/{metric} ")
                       and line.endswith(f" {unit}") for line in lines)
        assert any(line.startswith(f"{workload}: 0 failed of ")
                   for line in lines)
    assert "not comparable" in lines[-1]
