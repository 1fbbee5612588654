"""One run of one workload: set-up, warm-up, passes, the report."""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import shutil
import subprocess
import time
from dataclasses import asdict
from typing import Dict, List, Tuple

from repro.eval.experiments import run_table2
from repro.serving.server import EILServer

from benchmarks.harness import tracing, workloads
from benchmarks.harness.answers import graph_disagreements
from benchmarks.harness.corpora import WORKLOAD_CORPUS, scale_for
from benchmarks.harness.layers import layer_metrics
from benchmarks.harness.metrics import END_TO_END, PER_LAYER, percentile
from benchmarks.harness.passes import (
    IngestPasses,
    OnlinePasses,
    Series,
    measure,
    measure_alternately,
)
from benchmarks.harness.paths import OUT_DIR, ROOT
from benchmarks.harness.prepare import (
    SETUPS,
    ValidityError,
    cache_capacities,
    rss_mb,
    setup_again,
    setup_ingest,
    setup_online,
)

__all__ = ["WORKLOADS", "ValidityError", "run"]

WORKLOADS = ("form_cold", "form_hot", "analytics", "ingest")

#: Graph answers recomputed from the contact rows, per traversal.
_GRAPH_SAMPLE = 10


def _git_sha() -> str:
    try:
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return found.stdout.decode().strip()


def _write_json(path: str, payload: Dict[str, object]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Measure one workload.

    Returns the line the contract asks for (``correct``, ``attempted``,
    ``failed``, ``metrics``) and the full report written beside it.

    Raises:
        ValidityError: A cache pin or the identical-passes rule broke.
    """
    started = time.perf_counter()
    scale = scale_for(smoke)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    index_dir = os.path.join(workdir, "index")
    # The loaded system keeps reading its own directory, so the set-ups
    # made only to be timed save elsewhere.
    again_dir = os.path.join(workdir, "again")
    corpus_name = WORKLOAD_CORPUS[workload]
    os.makedirs(workdir, exist_ok=True)
    problems: List[str] = []
    setup_spans: List[tracing.Span] = []
    recorder = tracing.Recorder()
    wrappers = tracing.Wrappers(recorder)
    with contextlib.ExitStack() as cleanup:
        cleanup.callback(shutil.rmtree, workdir, ignore_errors=True)
        if workload == "ingest":
            # The one set-up that runs in this process: with spans on a
            # traced run, for what saving and loading cost each layer.
            with wrappers if trace else contextlib.nullcontext():
                prepared = setup_ingest(scale, index_dir)
            setup_spans = recorder.take()
        else:
            prepared = setup_online(corpus_name, scale, index_dir)
        system = prepared.system
        set_up = time.perf_counter()
        server = cleanup.enter_context(EILServer(system))
        if workload == "ingest":
            one_pass = IngestPasses(prepared, scale, seed, server, problems)
            graph_ops = one_pass.reader_ops
        else:
            graph_ops = getattr(workloads, workload)(
                seed, prepared.corpus, scale)
            one_pass = OnlinePasses(workload, prepared, graph_ops, server,
                                    problems)
        untraced = Series(one_pass.units)
        traced = Series(one_pass.units)
        warm_up = one_pass(warm_up=True)
        wrong_graph = graph_disagreements(system, graph_ops, _GRAPH_SAMPLE)
        problems.extend(f"graph differs from contact rows: {p}"
                        for p in wrong_graph)
        # What set-up and the warm-up left alive is no longer scanned, so
        # a collection during a pass costs what the pass allocated, not
        # what the corpus holds.
        gc.collect()
        gc.freeze()
        warmed = time.perf_counter()
        # The measurement in as many parts as there are set-ups, and a
        # set-up between each two: three set-ups 8 s apart do not all
        # fall into one slow phase of the machine, and nor do the passes.
        for part in range(SETUPS):
            if part:
                setup_again(prepared, corpus_name, scale, again_dir)
            least = scale.min_passes if part == SETUPS - 1 else 0
            if trace:
                measure_alternately(one_pass, wrappers, recorder,
                                    seconds / SETUPS, least, untraced,
                                    traced)
            else:
                measure(one_pass, seconds / SETUPS, least, untraced)
        measured = time.perf_counter()
        f1 = run_table2(prepared.corpus, system).mean_f()[0]

    if len(warm_up.latencies) != len(untraced.best):
        raise ValidityError("the warm-up pass ran another operation list")
    reported = untraced.timings()
    attempted = untraced.attempted + traced.attempted + len(wrong_graph)
    failed = untraced.failed + traced.failed + len(wrong_graph)

    end_to_end = dict(reported)
    end_to_end["setup_s"] = prepared.setup_s
    end_to_end["peak_rss_mb"] = rss_mb()
    end_to_end["table2_f1"] = f1
    end_to_end["index_bytes_per_doc"] = float(
        prepared.storage["bytes_per_doc"])

    noise = {}
    for name, value in reported.items():
        values = [entry[name] for entry in untraced.per_pass]
        noise[name] = {
            "reported": value,
            "per_pass": values,
            "median_pass_off_by": abs(percentile(values, 50) - value) / value,
        }

    full: Dict[str, object] = {
        "workload": workload,
        "scale": scale.name,
        "comparable": not smoke,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "corpus": asdict(getattr(scale, corpus_name)),
        "operations_per_pass": len(untraced.best),
        "cache_capacities": cache_capacities(scale),
        "setup": {"steps_s": prepared.setups,
                  "child_peak_rss_mb": prepared.child_peak_rss_mb},
        "passes": len(untraced.per_pass),
        "end_to_end": end_to_end,
        "noise": noise,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "wall_s": {
            "set_up": set_up - started,
            "warm_up": warmed - set_up,
            "measure": measured - warmed,
        },
    }
    if trace:
        values, trace_file = layer_metrics(
            workload, untraced, traced, one_pass.kinds, recorder,
            prepared, setup_spans,
        )
        full["per_layer"] = values
        full["traced_passes"] = len(traced.per_pass)
        trace_file.update(workload=workload, seed=seed, scale=scale.name,
                          operation_kinds=list(one_pass.kinds))
        _write_json(os.path.join(OUT_DIR, f"trace-{workload}.json"),
                    trace_file)
        units = {name: PER_LAYER[name][0] for name in PER_LAYER}
    else:
        values = end_to_end
        units = {name: END_TO_END[name][0] for name in END_TO_END}
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    suffix = "-trace" if trace else ""
    _write_json(os.path.join(OUT_DIR, f"result-{workload}{suffix}.json"),
                full)
    return line, full
