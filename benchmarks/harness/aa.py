"""A/A check: does the benchmark agree with itself?

``python -m benchmarks.harness.aa --runs N`` makes two interleaved sets
of N runs of every workload on the working tree, each run a fresh
process with a seed of its own, and prints per workload and end-to-end
metric both medians, both spreads (distance between the quartiles as a
share of the median) and whether they stay within the metric's bound in
``BENCHMARK.json``:

* each spread within the bound (``setup_s`` excepted, as the driver
  excepts it), and
* the second median not worse than the first by more than the bound.

``steady`` marks a spread below a third of its bound, which is what the
bounds were chosen to give.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

from benchmarks.harness.paths import ROOT, RUN_PY

Samples = Dict[Tuple[str, str], List[float]]


def _one_run(workload: str, seed: int, seconds: float) -> Dict[str, float]:
    child = subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE,
    )
    line = json.loads(child.stdout.decode().strip().splitlines()[-1])
    if not line["correct"]:
        raise SystemExit(
            f"{workload} seed {seed}: {line['failed']} of "
            f"{line['attempted']} operations failed"
        )
    return {name: entry["value"] for name, entry in line["metrics"].items()}


def _spread(values: List[float]) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / median if median else 0.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.harness.aa",
                                     description=__doc__)
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set (at least 2)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        contract = json.load(f)
    seconds = float(contract["run_seconds"])
    names = [w["name"] for w in contract["workloads"]]
    metrics = {m["name"]: m for m in contract["end_to_end"]}

    sets: Dict[str, Samples] = {"A": {}, "B": {}}
    for index in range(args.runs):
        for label in ("A", "B"):
            seed = index + 1 + (args.runs if label == "B" else 0)
            for workload in names:
                values = _one_run(workload, seed, seconds)
                for metric, value in values.items():
                    sets[label].setdefault(
                        (workload, metric), []).append(value)
                print(f"# run {index + 1}/{args.runs} set {label} "
                      f"{workload} seed {seed}: "
                      + " ".join(f"{v:.5g}" for v in values.values()),
                      file=sys.stderr)

    print(f"A/A: two interleaved sets of {args.runs} runs, "
          f"{seconds:g} s each, seeds 1..{2 * args.runs}")
    print(f"{'workload/metric':<34}{'median A':>12}{'median B':>12}"
          f"{'spread A':>10}{'spread B':>10}{'drift':>9}{'bound':>7}  verdict")
    failures = 0
    for (workload, metric), first in sets["A"].items():
        second = sets["B"][(workload, metric)]
        entry = metrics[metric]
        bound = entry["bound"]
        median_a = statistics.median(first)
        median_b = statistics.median(second)
        worse = (median_b - median_a if entry["better"] == "lower"
                 else median_a - median_b)
        drift = worse / median_a if median_a else 0.0
        spreads = (_spread(first), _spread(second))
        widest = 0.0 if metric == "setup_s" else max(spreads)
        if widest > bound or drift > bound:
            verdict = "FAIL"
            failures += 1
        elif widest < bound / 3:
            verdict = "pass, steady"
        else:
            verdict = "pass"
        print(f"{workload + '/' + metric:<34}{median_a:>12.5g}"
              f"{median_b:>12.5g}{spreads[0]:>10.2%}{spreads[1]:>10.2%}"
              f"{drift:>+9.2%}{bound:>7.0%}  {verdict}")
    print(f"{failures} of {len(sets['A'])} workload/metric pairs fail")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
