"""The metric names.

``BENCHMARK.json`` repeats :data:`END_TO_END` and :data:`PER_LAYER`
(``tests/test_contract.py`` keeps them equal).  Every run reports every
name of its kind: an untraced run all of :data:`END_TO_END`, a traced
run all of :data:`PER_LAYER`, with 0 where a workload never enters the
layer.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

__all__ = ["END_TO_END", "PER_LAYER", "percentile"]

#: name -> (unit, better, bound)
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.15),
    "throughput_per_s": ("1/s", "higher", 0.15),
    "latency_p50_ms": ("ms", "lower", 0.15),
    "latency_p95_ms": ("ms", "lower", 0.15),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "table2_f1": ("ratio", "higher", 0.01),
    "index_bytes_per_doc": ("B", "lower", 0.01),
}

#: name -> (unit, better)
PER_LAYER: Dict[str, Tuple[str, str]] = {
    # One operation, split by layer: mean self time per operation of
    # the best traced pass.  These nine and the residual add up to op_ms.
    "op_ms": ("ms", "lower"),
    "layer.serving_ms": ("ms", "lower"),
    "layer.core_ms": ("ms", "lower"),
    "layer.security_ms": ("ms", "lower"),
    "layer.db_ms": ("ms", "lower"),
    "layer.search_ms": ("ms", "lower"),
    "layer.storage_ms": ("ms", "lower"),
    "layer.graph_ms": ("ms", "lower"),
    "layer.offline_ms": ("ms", "lower"),
    "layer.text_ms": ("ms", "lower"),
    "unattributed_ms": ("ms", "lower"),
    "obs.tracing_overhead_ratio": ("ratio", "higher"),
    # serving
    "serving.front_door_ms": ("ms", "lower"),
    "serving.read_under_churn_p50_ms": ("ms", "lower"),
    "serving.read_under_churn_p95_ms": ("ms", "lower"),
    # core
    "core.query_cache_hit_ratio": ("ratio", "higher"),
    "core.cache_hit_ms": ("ms", "lower"),
    "core.analyze_ms": ("ms", "lower"),
    "core.synopsis_ms": ("ms", "lower"),
    "core.rank_ms": ("ms", "lower"),
    "core.present_ms": ("ms", "lower"),
    "core.synopsis_view_ms": ("ms", "lower"),
    # security
    "security.access_ms": ("ms", "lower"),
    "security.access_checks_per_op": ("count", "lower"),
    # db
    "db.execute_ms": ("ms", "lower"),
    "db.statements_per_op": ("count", "lower"),
    "db.rows_scanned_per_row_returned": ("ratio", "lower"),
    "db.stmt_cache_hit_ratio": ("ratio", "higher"),
    "db.rollup_ms": ("ms", "lower"),
    "db.insert_ms_per_deal": ("ms", "lower"),
    "db.delete_ms_per_deal": ("ms", "lower"),
    "db.dump_s": ("s", "lower"),
    "db.load_s": ("s", "lower"),
    # search
    "search.siapi_ms": ("ms", "lower"),
    "search.engine_ms": ("ms", "lower"),
    "search.engine_cache_hit_ratio": ("ratio", "higher"),
    "search.postings_touched_per_query": ("count", "lower"),
    "search.candidates_per_query": ("count", "lower"),
    "search.maxscore_topk_share": ("ratio", "higher"),
    "search.index_add_ms_per_doc": ("ms", "lower"),
    "search.index_remove_ms_per_doc": ("ms", "lower"),
    "search.crawl_docs_per_s": ("1/s", "higher"),
    # storage
    "storage.save_s": ("s", "lower"),
    "storage.load_s": ("s", "lower"),
    "storage.postings_bytes_per_doc": ("B", "lower"),
    "storage.docstore_bytes_per_doc": ("B", "lower"),
    "storage.segments": ("count", "lower"),
    # graph
    "graph.worked_with_ms": ("ms", "lower"),
    "graph.role_capacity_ms": ("ms", "lower"),
    "graph.expertise_ms": ("ms", "lower"),
    "graph.team_overlap_ms": ("ms", "lower"),
    "graph.index_deal_ms": ("ms", "lower"),
    "graph.remove_deal_ms": ("ms", "lower"),
    "graph.save_s": ("s", "lower"),
    "graph.load_s": ("s", "lower"),
    "graph.nodes": ("count", "lower"),
    "graph.edges": ("count", "lower"),
    # uima + annotators + docmodel + text
    "uima.analyze_docs_per_s": ("1/s", "higher"),
    "uima.cpe_document_p50_ms": ("ms", "lower"),
    "docmodel.parse_ms_per_doc": ("ms", "lower"),
    "annotators.annotations_per_doc": ("count", "higher"),
    "text.analyze_ms_per_doc": ("ms", "lower"),
    # The write path's own times: the steps of ``ingest``'s set-up, and
    # its two kinds of maintenance call apart (untraced passes).
    "ingest.build_docs_per_s": ("1/s", "higher"),
    "ingest.save_s": ("s", "lower"),
    "ingest.cold_start_s": ("s", "lower"),
    "ingest.add_workbook_p50_ms": ("ms", "lower"),
    "ingest.remove_deal_p50_ms": ("ms", "lower"),
}


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(samples)
    rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[rank]
