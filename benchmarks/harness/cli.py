"""Command line of the benchmark.

``--workload W --seed N --seconds S --trace 0|1`` is the driver's call:
one workload, one process, one JSON line last on standard output.
``--all`` runs the four workloads, each in a process of its own, and
prints every end-to-end metric as ``workload/metric value unit``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import List, Optional

from benchmarks.harness.paths import ROOT, RUN_PY


def _import_program() -> None:
    """Make ``repro`` importable from a source checkout."""
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import repro  # noqa: F401


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks.harness",
                                     description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print every metric")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small corpora, small caches, 2 s runs: a "
                             "check that the harness works, never a "
                             "measurement")
    # The set-ups a run makes in a child of its own: corpus, directory.
    parser.add_argument("--child-setup", nargs=2, help=argparse.SUPPRESS)
    return parser


def _run_seconds() -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return float(json.load(f)["run_seconds"])


def _one_processor() -> None:
    """Keep this process, its threads and its children on one processor.

    Under the interpreter lock one thread runs at a time anyway, and a
    request through ``EILServer`` is two hand-offs between threads: 17-22
    us for the pair when both are on one processor, 77 us when each
    wake-up has to rouse the other, idle, virtual one.  Left to the
    scheduler it is one or the other for minutes on end, and ``form_hot``
    reads 14,300 or 8,000 operations a second (README, "One processor").
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _fresh_process(argv: List[str]) -> None:
    """Start over in the environment every run is measured in.

    ``PYTHONHASHSEED`` only takes effect at interpreter start, so a
    process that was not started clean replaces itself.
    """
    from benchmarks.harness.prepare import clean_environment

    clean = clean_environment()
    if clean != dict(os.environ):
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, RUN_PY] + argv, clean)


def _run_all(args: argparse.Namespace) -> int:
    from benchmarks.harness.runner import WORKLOADS

    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, RUN_PY, "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds)]
        if args.smoke:
            command.append("--smoke")
        child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE)
        if child.returncode != 0:
            print(f"{workload}: exited with {child.returncode}")
            status = 1
            continue
        line = json.loads(child.stdout.decode().strip().splitlines()[-1])
        for name, entry in line["metrics"].items():
            print(f"{workload}/{name} {entry['value']:.6g} {entry['unit']}")
        print(f"{workload}: {line['failed']} failed of "
              f"{line['attempted']} attempted")
        if not line["correct"]:
            status = 1
    if args.smoke:
        print("smoke: these numbers are not comparable with any other run")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
    _import_program()
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else _run_seconds()

    from benchmarks.harness import prepare, runner
    from benchmarks.harness.corpora import scale_for

    if args.child_setup:
        prepare.child_setup(args.child_setup[0], scale_for(args.smoke),
                            args.child_setup[1])
        return 0
    _one_processor()
    _fresh_process(argv)
    if args.all:
        return _run_all(args)
    if args.workload not in runner.WORKLOADS:
        print(f"--workload must be one of {', '.join(runner.WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        line, _ = runner.run(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.smoke)
    except runner.ValidityError as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0
