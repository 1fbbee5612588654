"""The per-layer numbers of a traced run.

Two kinds of time (README, "Per-layer metrics"):

* **per operation** — a layer's or a method's *self* time in the best
  traced pass, divided by the pass's operations.  ``layer.*_ms`` and
  ``unattributed_ms`` add up to ``op_ms``; so a layer's share of an
  operation is its number over ``op_ms``.
* **per call** — the mean duration of one named call (a graph
  traversal, a synopsis view, a save), children included.

Counts are deltas of the counters the program already keeps, over one
untraced pass; with one client and no timers they repeat exactly.

What saving and loading cost (``storage.save_s``, ``db.load_s``, ...)
comes from the spans of ``ingest``'s set-up, the one set-up that runs in
the measuring process.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.obs import get_registry

from benchmarks.harness import tracing
from benchmarks.harness.metrics import PER_LAYER, percentile
from benchmarks.harness.passes import Series, ratio
from benchmarks.harness.prepare import Prepared

__all__ = ["layer_metrics"]

_ABSENT = (0.0, 0.0, 0.0)


def layer_metrics(
    workload: str,
    untraced: Series,
    traced: Series,
    kinds: Sequence[str],
    recorder: tracing.Recorder,
    prepared: Prepared,
    setup_spans: Sequence[tracing.Span],
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Every :data:`PER_LAYER` value, and the trace file's content.

    ``kinds`` names each operation of a pass, ``setup_spans`` are those
    of ``ingest``'s set-up (none elsewhere).
    """
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    chosen = traced.fastest_traced
    spans = chosen.spans or []
    names = [recorder.names[span[0]] for span in spans]
    self_time = tracing.self_times(spans)
    root_of = tracing.roots(spans)
    # On ingest the reader's operations run beside the writer's; only the
    # writer's are "the operation" the layer split divides.
    reader = [workload == "ingest" and names[root].startswith("EILServer.")
              for root in root_of]
    ops = len(chosen.latencies)

    layer_ms = dict.fromkeys(tracing.LAYERS, 0.0)
    #: span name -> [calls, total duration ms, total self time ms]
    by_name: Dict[str, List[float]] = {}
    for index, span in enumerate(spans):
        if reader[index]:
            continue
        layer_ms[recorder.layers[span[0]]] += self_time[index] * 1000.0
        entry = by_name.setdefault(names[index], [0.0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += (span[2] - span[1]) * 1000.0
        entry[2] += self_time[index] * 1000.0
    in_setup: Dict[str, List[float]] = {}
    for span in setup_spans:
        entry = in_setup.setdefault(recorder.names[span[0]], [0.0, 0.0])
        entry[0] += 1
        entry[1] += (span[2] - span[1]) * 1000.0

    def per_op(*span_names: str) -> float:
        return sum(by_name.get(n, _ABSENT)[2] for n in span_names) / ops

    def per_call(name: str) -> float:
        calls, total, _ = by_name.get(name, _ABSENT)
        return total / calls if calls else 0.0

    def setup_s(name: str) -> float:
        calls, total = in_setup.get(name, _ABSENT[:2])
        return total / calls / 1000.0 if calls else 0.0

    def calls_of(*span_names: str) -> float:
        return sum(by_name.get(n, _ABSENT)[0] for n in span_names)

    metrics["op_ms"] = sum(chosen.latencies) * 1000.0 / ops
    for layer in tracing.LAYERS:
        metrics[f"layer.{layer}_ms"] = layer_ms[layer] / ops
    metrics["unattributed_ms"] = (
        metrics["op_ms"] - sum(layer_ms.values()) / ops
    )
    metrics["obs.tracing_overhead_ratio"] = (
        traced.timings()["throughput_per_s"]
        / untraced.timings()["throughput_per_s"]
    )

    front_door = [self_time[i] for i, name in enumerate(names)
                  if name.startswith("EILServer.")]
    if front_door:
        metrics["serving.front_door_ms"] = (
            sum(front_door) * 1000.0 / len(front_door)
        )
    pooled = untraced.reader
    if pooled:
        metrics["serving.read_under_churn_p50_ms"] = (
            percentile(pooled, 50) * 1000.0)
        metrics["serving.read_under_churn_p95_ms"] = (
            percentile(pooled, 95) * 1000.0)

    counters = untraced.counters
    metrics["core.query_cache_hit_ratio"] = ratio(
        counters["query.cache.hits"], counters["query.cache.misses"])
    metrics.update(_execute_split(spans, names, self_time, reader, ops))
    metrics["core.synopsis_ms"] = per_op("SynopsisSearch.execute")
    metrics["core.rank_ms"] = per_op("RankCombiner.combine")
    metrics["core.synopsis_view_ms"] = per_call("EILSystem.synopsis")

    checks = ("AccessController.require_synopsis_access",
              "AccessController.presentable_documents")
    metrics["security.access_ms"] = per_op(*checks)
    metrics["security.access_checks_per_op"] = calls_of(*checks) / ops

    statements = ("Database.execute", "Database.insert")
    metrics["db.execute_ms"] = per_op(*statements)
    metrics["db.statements_per_op"] = calls_of(*statements) / ops
    if counters["db.rows_returned"]:
        metrics["db.rows_scanned_per_row_returned"] = (
            counters["db.rows_scanned"] / counters["db.rows_returned"])
    metrics["db.stmt_cache_hit_ratio"] = ratio(
        counters["db.stmt_cache.hits"], counters["db.stmt_cache.misses"])
    metrics.update(_churn_db(spans, names, root_of))
    metrics["db.dump_s"] = setup_s("dump_database")
    metrics["db.load_s"] = setup_s("load_database")

    metrics["search.siapi_ms"] = per_op("SiapiService.search_grouped")
    metrics["search.engine_ms"] = per_op("SearchEngine.search")
    metrics["search.engine_cache_hit_ratio"] = ratio(
        counters["engine.cache.hits"], counters["engine.cache.misses"])
    searches = counters["engine.searches"]
    if searches:
        metrics["search.postings_touched_per_query"] = (
            counters["engine.postings_touched"] / searches)
        metrics["search.maxscore_topk_share"] = (
            counters["engine.maxscore.topk_searches"] / searches)
    if counters["engine.candidates.count"]:
        metrics["search.candidates_per_query"] = (
            counters["engine.candidates.sum"]
            / counters["engine.candidates.count"])
    metrics["search.index_add_ms_per_doc"] = per_call("SearchEngine.add")
    metrics["search.index_remove_ms_per_doc"] = per_call(
        "SearchEngine.remove")
    indexed = calls_of("SearchEngine.add")
    crawl_ms = by_name.get("DataAcquisition.acquire", _ABSENT)[1]
    if crawl_ms:
        metrics["search.crawl_docs_per_s"] = indexed / crawl_ms * 1000.0

    metrics["storage.save_s"] = setup_s("SearchEngine.save_index")
    metrics["storage.load_s"] = setup_s("SearchEngine.load_index")
    storage = prepared.storage
    documents = float(storage["docs"])
    metrics["storage.postings_bytes_per_doc"] = (
        float(storage["postings_bytes"]) / documents)
    metrics["storage.docstore_bytes_per_doc"] = (
        float(storage["docstore_bytes"]) / documents)
    metrics["storage.segments"] = float(storage["segments"])

    for traversal in ("worked_with", "role_capacity", "expertise",
                      "team_overlap", "index_deal", "remove_deal"):
        metrics[f"graph.{traversal}_ms"] = per_call(
            f"EntityGraph.{traversal}")
    metrics["graph.save_s"] = setup_s("EntityGraph.save")
    metrics["graph.load_s"] = setup_s("EntityGraph.load")
    registry = get_registry()
    metrics["graph.nodes"] = float(registry.gauge("graph.nodes").value)
    metrics["graph.edges"] = float(registry.gauge("graph.edges").value)

    analyzed = counters["analysis.documents_processed"]
    analyze_ms = by_name.get("InformationAnalysis.analyze", _ABSENT)[1]
    if analyzed and analyze_ms:
        metrics["uima.analyze_docs_per_s"] = analyzed / analyze_ms * 1000.0
        metrics["annotators.annotations_per_doc"] = (
            counters["annotator.eil-pipeline.annotations"] / analyzed)
    # The program's own histograms split what runs inside analyze; they
    # hold every document of the process, the set-up builds included.
    metrics["uima.cpe_document_p50_ms"] = (
        registry.histogram("cpe.document_seconds").percentile(50) * 1000.0)
    metrics["docmodel.parse_ms_per_doc"] = (
        registry.histogram("analysis.parse_seconds").mean * 1000.0)
    if indexed:
        metrics["text.analyze_ms_per_doc"] = (
            by_name.get("Analyzer.analyze", _ABSENT)[2] / indexed)

    metrics.update(_by_kind(kinds, untraced.best))
    if workload == "ingest":  # the write path's own end-to-end times
        steps = prepared.fastest
        metrics["ingest.build_docs_per_s"] = (
            prepared.corpus.document_count / steps["build_s"])
        metrics["ingest.save_s"] = steps["save_s"]
        metrics["ingest.cold_start_s"] = steps["load_s"]

    trace = {
        "names": recorder.names,
        "layers": recorder.layers,
        "span_fields": ["name", "start_s", "end_s", "parent"],
        "spans": [list(span) for span in spans],
        "roots": sorted(set(root_of)),
        "by_name_calls_total_ms_self_ms": by_name,
        "setup_by_name_calls_total_ms": in_setup,
    }
    return metrics, trace


def _by_kind(kinds: Sequence[str],
             latencies: Sequence[float]) -> Dict[str, float]:
    """Numbers that are one kind of operation's untraced time."""
    times: Dict[str, List[float]] = {}
    for kind, latency in zip(kinds, latencies):
        times.setdefault(kind, []).append(latency)
    found: Dict[str, float] = {}
    if "sql.rollup" in times:
        rollups = times["sql.rollup"]
        found["db.rollup_ms"] = sum(rollups) * 1000.0 / len(rollups)
    if "add_workbook" in times:
        found["ingest.add_workbook_p50_ms"] = (
            percentile(times["add_workbook"], 50) * 1000.0)
        found["ingest.remove_deal_p50_ms"] = (
            percentile(times["remove_deal"], 50) * 1000.0)
    return found


def _execute_split(spans, names, self_time, reader,
                   ops: int) -> Dict[str, float]:
    """Split ``BusinessActivityDrivenSearch.execute``'s self time.

    The method has no public sub-steps, so its own time is cut at its
    ``RankCombiner.combine`` child: before it lies the cache probe and
    the form's decomposition and scoping (``core.analyze_ms``), after it
    presentation and the result copy (``core.present_ms``).  A call with
    no ``SynopsisSearch.execute`` child was served from the query cache
    (``core.cache_hit_ms``, per call).
    """
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(index)
    analyze = present = 0.0
    hits: List[float] = []
    for index, span in enumerate(spans):
        if (names[index] != "BusinessActivityDrivenSearch.execute"
                or reader[index]):
            continue
        below = children.get(index, [])
        if not any(names[c] == "SynopsisSearch.execute" for c in below):
            hits.append(span[2] - span[1])
            continue
        combine = [c for c in below if names[c] == "RankCombiner.combine"]
        if not combine:  # nothing matched: no rank, nothing to present
            analyze += self_time[index]
            continue
        cut_start, cut_end = spans[combine[0]][1], spans[combine[0]][2]
        before = cut_start - span[1]
        after = span[2] - cut_end
        for child in below:
            duration = spans[child][2] - spans[child][1]
            if spans[child][2] <= cut_start:
                before -= duration
            elif spans[child][1] >= cut_end:
                after -= duration
        analyze += before
        present += after
    return {
        "core.analyze_ms": analyze * 1000.0 / ops,
        "core.present_ms": present * 1000.0 / ops,
        "core.cache_hit_ms": (sum(hits) * 1000.0 / len(hits)
                              if hits else 0.0),
    }


def _churn_db(spans, names, root_of) -> Dict[str, float]:
    """Database time of onboarding / offboarding one deal."""
    totals = {"EILSystem.add_workbook": 0.0, "EILSystem.remove_deal": 0.0}
    deals = dict.fromkeys(totals, 0)
    for index, span in enumerate(spans):
        root_name = names[root_of[index]]
        if root_name not in totals:
            continue
        if index == root_of[index]:
            deals[root_name] += 1
        wanted = ("Database.insert" if root_name == "EILSystem.add_workbook"
                  else "Database.execute")
        # Count a statement once: not again for one nested inside it.
        nested = span[3] >= 0 and names[span[3]] == wanted
        if names[index] == wanted and not nested:
            totals[root_name] += span[2] - span[1]
    return {
        metric: (totals[root_name] * 1000.0 / deals[root_name]
                 if deals[root_name] else 0.0)
        for metric, root_name in (
            ("db.insert_ms_per_deal", "EILSystem.add_workbook"),
            ("db.delete_ms_per_deal", "EILSystem.remove_deal"),
        )
    }
