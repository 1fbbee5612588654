"""Set-up: the corpus, the built system, the saved index, the cold load.

Every workload's set-up is the same four steps, and a set-up's time is
what they took: generate the corpus, ``EILSystem.build``,
``save_index``, ``EILSystem.load``.  For the three online workloads they
run in a child process, which leaves the saved index for the measuring
process to cold-load, so that process's peak RSS is that of serving, not
of a build.  ``ingest`` does all four in the measuring process and keeps
the freshly built, in-memory system, because that is what it measures.

A run sets up :data:`SETUPS` times and ``setup_s`` is the fastest: the
first makes the system the run measures, the others are made in a child
between parts of the measurement (``runner.run``), only to be timed.
One set-up of 2 s falls wholly into one of the machine's slow phases one
time in five; timed once a run, ``setup_s`` had an A/A spread of up to
45 % and its median moved by 17 % (``out/aa-one-setup.txt``).  Every time
is taken inside the process doing the work, so none includes an
interpreter's start.
"""

from __future__ import annotations

import inspect
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List

from repro.core.eil import EILSystem
from repro.corpus.generator import Corpus

from benchmarks.harness.corpora import Scale, build_corpus
from benchmarks.harness.paths import ROOT, RUN_PY

__all__ = ["Prepared", "SCRUBBED", "SETUPS", "ValidityError",
           "clean_environment", "rss_mb", "child_setup", "cache_capacities",
           "setup_online", "setup_ingest", "setup_again"]

#: Set-ups per run.
SETUPS = 3

#: Variables that change how the program builds, shards or plans.
SCRUBBED = ("REPRO_WORKERS", "REPRO_EXECUTOR", "REPRO_SHARDS",
            "REPRO_DB_PLAN_CACHE", "REPRO_DB_PLANNER")


class ValidityError(Exception):
    """The run broke a rule its numbers rest on; they mean nothing."""


def clean_environment() -> Dict[str, str]:
    """The environment every measuring process runs in."""
    env = {name: value for name, value in os.environ.items()
           if name not in SCRUBBED}
    env["PYTHONHASHSEED"] = "0"
    return env


def rss_mb() -> float:
    """Peak resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Prepared:
    """What set-up leaves behind.

    Attributes:
        storage: ``storage_stats`` of the saved index.
        setups: Per set-up made so far, the seconds of each step
            (``corpus_s``, ``build_s``, ``save_s``, ``load_s``).
        child_peak_rss_mb: Peak resident set of the building child.
    """

    corpus: Corpus
    system: EILSystem
    storage: Dict[str, object]
    setups: List[Dict[str, float]]
    child_peak_rss_mb: float = 0.0

    @property
    def fastest(self) -> Dict[str, float]:
        """The steps of the fastest set-up."""
        return min(self.setups, key=lambda steps: sum(steps.values()))

    @property
    def setup_s(self) -> float:
        return sum(self.fastest.values())


def _cache_sizes(scale: Scale) -> Dict[str, int]:
    sizes = {}
    if scale.query_cache is not None:
        sizes["query_cache_size"] = scale.query_cache
    if scale.engine_cache is not None:
        sizes["engine_cache_size"] = scale.engine_cache
    return sizes


def cache_capacities(scale: Scale) -> Dict[str, int]:
    """The capacities in force: the scale's, else the program's defaults."""
    defaults = inspect.signature(EILSystem.__init__).parameters
    sizes = {name: defaults[name].default
             for name in ("query_cache_size", "engine_cache_size")}
    sizes.update(_cache_sizes(scale))
    return sizes


def _four_steps(corpus_name: str, scale: Scale, index_dir: str):
    """One whole set-up: (corpus, built system, storage stats, seconds
    of each step).

    Raises:
        ValidityError: The cold-loaded copy lost documents.
    """
    clock = time.perf_counter
    started = clock()
    corpus = build_corpus(getattr(scale, corpus_name))
    generated = clock()
    system = EILSystem.build(corpus, workers=1, executor="serial")
    built = clock()
    storage = system.save_index(index_dir)
    saved = clock()
    loaded = EILSystem.load(index_dir, corpus)
    steps = {"corpus_s": generated - started, "build_s": built - generated,
             "save_s": saved - built, "load_s": clock() - saved}
    if len(loaded.engine) != len(system.engine):
        raise ValidityError("cold start lost documents")
    return corpus, system, storage, steps


def child_setup(corpus_name: str, scale: Scale, index_dir: str) -> None:
    """What ``run.py --child-setup`` does: one whole set-up, which
    leaves the saved index behind; prints one JSON line."""
    _, _, storage, steps = _four_steps(corpus_name, scale, index_dir)
    print(json.dumps({"steps": steps, "storage": storage,
                      "peak_rss_mb": rss_mb()}))


def _in_child(corpus_name: str, scale: Scale,
              index_dir: str) -> Dict[str, object]:
    shutil.rmtree(index_dir, ignore_errors=True)
    command = [sys.executable, RUN_PY, "--child-setup", corpus_name,
               index_dir]
    if scale.name == "smoke":
        command.append("--smoke")
    child = subprocess.run(command, cwd=ROOT, env=clean_environment(),
                           check=True, stdout=subprocess.PIPE)
    return json.loads(child.stdout.decode().strip().splitlines()[-1])


def setup_online(corpus_name: str, scale: Scale, index_dir: str) -> Prepared:
    """Set up in a child, then cold-load what it saved."""
    report = _in_child(corpus_name, scale, index_dir)
    corpus = build_corpus(getattr(scale, corpus_name))
    system = EILSystem.load(index_dir, corpus, **_cache_sizes(scale))
    return Prepared(corpus, system, report["storage"], [report["steps"]],
                    report["peak_rss_mb"])


def setup_ingest(scale: Scale, index_dir: str) -> Prepared:
    """Set up in this process and keep the built system."""
    corpus, system, storage, steps = _four_steps("deep", scale, index_dir)
    return Prepared(corpus, system, storage, [steps])


def setup_again(prepared: Prepared, corpus_name: str, scale: Scale,
                index_dir: str) -> None:
    """One more whole set-up, made and thrown away in a child so that
    this process keeps the system, and the memory, it has."""
    prepared.setups.append(
        _in_child(corpus_name, scale, index_dir)["steps"])
