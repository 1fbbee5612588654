"""Identical passes, and the timings computed from them.

A pass runs a fixed list of operations in a fixed order.  A run makes as
many passes as fit in ``--seconds``, so operation *i* is timed once per
pass, always doing the same work.  What a run reports is computed from
each operation's **fastest** execution: on this kind of machine
interference comes in phases of a few seconds and only ever adds time
(README, "Best pass"), so the fastest of k identical executions is the
steadiest estimate of what the code costs.  Each whole pass's own
values stay in the report as a noise diagnostic.
"""

from __future__ import annotations

import gc
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import get_registry
from repro.serving.server import EILServer

from benchmarks.harness import tracing, workloads
from benchmarks.harness.answers import WrongAnswer, bind, check, digest
from benchmarks.harness.corpora import Scale, new_workbooks
from benchmarks.harness.metrics import percentile
from benchmarks.harness.prepare import Prepared, ValidityError
from benchmarks.harness.workloads import Op

__all__ = ["Pass", "Series", "OnlinePasses", "IngestPasses", "measure",
           "measure_alternately", "timings", "ratio"]

_COUNTERS = (
    "query.cache.hits", "query.cache.misses",
    "engine.cache.hits", "engine.cache.misses",
    "engine.searches", "engine.postings_touched",
    "engine.maxscore.topk_searches",
    "db.rows_scanned", "db.rows_returned",
    "db.stmt_cache.hits", "db.stmt_cache.misses",
    "analysis.documents_processed", "annotator.eil-pipeline.annotations",
)

_MAX_PROBLEMS = 20


def _note(problems: List[str], text: str) -> None:
    """Keep the first few problems for the report."""
    if len(problems) < _MAX_PROBLEMS:
        problems.append(text)


def ratio(part: float, rest: float) -> float:
    """part / (part + rest), 0 when both are 0."""
    return part / (part + rest) if part + rest else 0.0


def _counters() -> Dict[str, float]:
    registry = get_registry()
    values = {name: float(registry.counter(name).value)
              for name in _COUNTERS}
    candidates = registry.histogram("engine.candidates")
    values["engine.candidates.sum"] = candidates.sum
    values["engine.candidates.count"] = float(candidates.count)
    return values


@dataclass
class Pass:
    """One pass's measurements.

    Attributes:
        latencies: Seconds per operation of the measuring thread.
        attempted, failed: Operations run and answers found wrong, the
            reader thread's included.
        counters: What the program's own counters moved by.
        reader: The ``ingest`` reader thread's latencies.
        spans: The pass's spans, when it was traced.
    """

    latencies: List[float]
    attempted: int
    failed: int
    counters: Dict[str, float]
    reader: List[float] = field(default_factory=list)
    spans: Optional[List[tracing.Span]] = None


def _timed(calls: Sequence[Callable[[], object]],
           wrong: Callable[[int, object], bool]) -> Tuple[List[float], int]:
    """Run ``calls`` in order; (seconds per call, answers found wrong).

    Each answer is checked as soon as it is back, outside its call's
    timing, so a pass never holds more than one answer.
    """
    clock = time.perf_counter
    latencies = [0.0] * len(calls)
    failed = 0
    for index, call in enumerate(calls):
        before = clock()
        try:
            answer = call()
        except Exception as exc:  # counted as a failed operation
            answer = exc
        latencies[index] = clock() - before
        if wrong(index, answer):
            failed += 1
    return latencies, failed


class OnlinePasses:
    """``form_cold``, ``form_hot`` and ``analytics``: one closed-loop
    client sending a fixed operation list through ``EILServer``."""

    def __init__(self, workload: str, prepared: Prepared, ops: List[Op],
                 server: EILServer, problems: List[str]) -> None:
        self.workload = workload
        self.ops = ops
        self.problems = problems
        self.kinds = [op.kind for op in ops]
        self.units = float(len(ops))
        bound: Dict[object, Callable[[], object]] = {}
        self.calls = []
        for op in ops:
            if op.key not in bound:
                bound[op.key] = bind(op, server, prepared.system)
            self.calls.append(bound[op.key])
        # Each operation's answer in the warm-up pass; later passes must
        # give the same.
        self.references: List[Optional[Tuple[tuple, tuple]]] = (
            [None] * len(ops)
        )

    def _wrong(self, index: int, answer: object) -> bool:
        try:
            self.references[index] = check(
                self.ops[index], answer, self.references[index])
        except WrongAnswer as exc:
            _note(self.problems, str(exc))
            return True
        return False

    def __call__(self, warm_up: bool = False) -> Pass:
        gc.collect()
        before = _counters()
        latencies, failed = _timed(self.calls, self._wrong)
        after = _counters()
        counters = {name: after[name] - before[name] for name in after}
        if not warm_up:
            self._check_pins(counters)
        return Pass(latencies, len(self.calls), failed, counters)

    def _check_pins(self, counters: Dict[str, float]) -> None:
        """Passes must not warm each other (or, hot, must stay warm)."""
        hits = counters["query.cache.hits"]
        hit_ratio = ratio(hits, counters["query.cache.misses"])
        if self.workload == "form_hot":
            if hit_ratio < 0.99:
                raise ValidityError(
                    f"form_hot query-cache hit ratio {hit_ratio:.4f} < 0.99"
                )
            return
        if hits or counters["engine.cache.hits"]:
            raise ValidityError(
                f"{self.workload} hit a cache it is meant to miss: "
                f"query {hits:.0f}, engine "
                f"{counters['engine.cache.hits']:.0f}"
            )
        if self.workload == "analytics" and counters["engine.searches"]:
            raise ValidityError("analytics reached the search engine")


class IngestPasses:
    """``ingest``: onboard new deals, then offboard them, while a reader
    queries the same system through ``EILServer``.

    The operations timed are the writer's ``add_workbook`` and
    ``remove_deal`` calls.  An ``add_workbook`` takes 17 times a
    ``remove_deal``, and a pass holds as many of one as of the other, so
    over a pass's calls the 50th percentile is the slowest
    ``remove_deal`` and the 95th the slowest ``add_workbook``: each has
    an end-to-end metric to itself.  The reader is load: its latencies
    are reported per layer, not end to end, since under the interpreter
    lock they measure lock hand-off between two busy threads more than
    the program (A/A spread 40-90 %).
    """

    def __init__(self, prepared: Prepared, scale: Scale, seed: int,
                 server: EILServer, problems: List[str]) -> None:
        self.system = prepared.system
        self.scale = scale
        self.problems = problems
        self.documents = len(self.system.engine)
        self.churn = workloads.rotated(seed, new_workbooks(
            prepared.corpus, scale.churn_deals, scale.churn_docs))
        self.reader_ops = workloads.reader_forms(seed, prepared.corpus,
                                                 scale)
        self.reader_calls = [bind(op, server, prepared.system)
                             for op in self.reader_ops]
        self.kinds = (["add_workbook"] * len(self.churn)
                      + ["remove_deal"] * len(self.churn))
        #: Documents onboarded (and offboarded again) per pass: what
        #: throughput counts.
        self.units = float(len(self.churn) * scale.churn_docs)

    def _read(self, stop: threading.Event, latencies: List[float],
              failures: List[str]) -> None:
        """The reader: cycle the cold form list until told to stop.

        Its answers change as deals come and go, so all that is asked of
        them is that they are whole: not raised, not degraded.
        """
        clock = time.perf_counter
        position = 0
        while not stop.is_set():
            before = clock()
            try:
                answer = self.reader_calls[position]()
            except Exception as exc:  # counted as a failed operation
                answer = exc
            latencies.append(clock() - before)
            try:
                digest(self.reader_ops[position], answer)
            except WrongAnswer as exc:
                failures.append(str(exc))
            position = (position + 1) % len(self.reader_calls)

    def _wrong(self, index: int, answer: object) -> bool:
        """Check one maintenance call by the documents the index holds
        once it is back."""
        kind = self.kinds[index]
        docs = self.scale.churn_docs
        onboarded = min(index + 1, 2 * len(self.churn) - index - 1)
        if isinstance(answer, BaseException):
            problem = f"{kind} raised {answer!r}"
        elif kind == "remove_deal" and answer != docs:
            problem = f"remove_deal took {answer} documents, not {docs}"
        elif len(self.system.engine) != self.documents + onboarded * docs:
            problem = f"{kind} left {len(self.system.engine)} documents"
        else:
            return False
        _note(self.problems, problem)
        return True

    def __call__(self, warm_up: bool = False) -> Pass:
        gc.collect()
        system = self.system
        calls: List[Callable[[], object]] = [
            lambda workbook=workbook: system.add_workbook(workbook)
            for _, workbook in self.churn
        ]
        calls += [lambda deal=deal: system.remove_deal(deal.deal_id)
                  for deal, _ in self.churn]
        reader_latencies: List[float] = []
        reader_failures: List[str] = []
        stop = threading.Event()
        reader = threading.Thread(
            target=self._read,
            args=(stop, reader_latencies, reader_failures),
            name="harness-reader",
        )
        before = _counters()
        reader.start()
        try:
            latencies, failed = _timed(calls, self._wrong)
        finally:
            stop.set()
            reader.join()
        after = _counters()
        for text in reader_failures:
            _note(self.problems, text)
        if not reader_latencies:
            raise ValidityError("the reader finished no query under churn")
        return Pass(
            latencies, len(calls) + len(reader_latencies),
            failed + len(reader_failures),
            {name: after[name] - before[name] for name in after},
            reader_latencies,
        )


def timings(latencies: Sequence[float], units: float) -> Dict[str, float]:
    """The three end-to-end timings of one list of operation times.

    One closed-loop client: the time a pass takes is the sum of its
    operations' times, so throughput is ``units`` (operations, or on
    ``ingest`` documents onboarded) over that sum.
    """
    return {
        "throughput_per_s": units / sum(latencies),
        "latency_p50_ms": percentile(latencies, 50) * 1000.0,
        "latency_p95_ms": percentile(latencies, 95) * 1000.0,
    }


class Series:
    """What a series of identical passes comes to.

    Passes are folded in as they are made, so what a run holds in the
    end (and ``peak_rss_mb``) does not grow with the passes it had time
    for.

    Attributes:
        best: Each operation's fastest execution so far.
        per_pass: Each pass's own timings (the noise diagnostic).
        attempted, failed: Summed over the passes.
        counters: What the last pass moved the program's counters by.
        reader: The ``ingest`` reader's latencies, pooled.
        fastest_traced: The traced pass with the smallest total.
    """

    def __init__(self, units: float) -> None:
        self.units = units
        self.best: List[float] = []
        self.per_pass: List[Dict[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.counters: Dict[str, float] = {}
        self.reader: List[float] = []
        self.fastest_traced: Optional[Pass] = None

    def add(self, one: Pass) -> None:
        """Fold in one pass.

        Raises:
            ValidityError: It ran another number of operations.
        """
        if not self.best:
            self.best = list(one.latencies)
        elif len(one.latencies) != len(self.best):
            raise ValidityError(
                f"a pass of {len(one.latencies)} operations after passes "
                f"of {len(self.best)}")
        else:
            self.best = list(map(min, self.best, one.latencies))
        self.per_pass.append(timings(one.latencies, self.units))
        self.attempted += one.attempted
        self.failed += one.failed
        self.counters = one.counters
        self.reader.extend(one.reader)
        if one.spans is not None and (
                self.fastest_traced is None
                or sum(one.latencies) < sum(self.fastest_traced.latencies)):
            self.fastest_traced = one

    def timings(self) -> Dict[str, float]:
        """The timings of the pass made of every fastest execution."""
        return timings(self.best, self.units)


def measure(one_pass: Callable[[], Pass], seconds: float, min_passes: int,
            series: Series) -> None:
    """Passes until ``seconds`` have gone by and ``series`` holds
    ``min_passes`` at least."""
    deadline = time.perf_counter() + seconds
    while (len(series.per_pass) < min_passes
           or time.perf_counter() < deadline):
        series.add(one_pass())


def measure_alternately(
    one_pass: Callable[[], Pass], wrappers: tracing.Wrappers,
    recorder: tracing.Recorder, seconds: float, min_passes: int,
    untraced: Series, traced: Series,
) -> None:
    """Passes by turns without and with spans, as many of one as of the
    other, so that the two sides of the tracing overhead see the same
    machine and the same number of chances at a fastest execution."""
    deadline = time.perf_counter() + seconds
    while (len(traced.per_pass) < min_passes
           or time.perf_counter() < deadline):
        untraced.add(one_pass())
        with wrappers:
            recorder.take()
            with_spans = one_pass()
            with_spans.spans = recorder.take()
        traced.add(with_spans)
