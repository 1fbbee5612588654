"""Collection Processing Engines (paper Section 3.4).

A CPE drives a whole collection through an analysis engine and then
hands the per-document results to *CAS consumers* — collection-level
components that aggregate across documents: counting scope occurrences
per business activity, de-duplicating contacts, normalizing fields.
Consumers receive each processed CAS and a final
``collection_process_complete`` callback where cross-document reasoning
happens.

The per-document stage (optional ``prepare`` — e.g. parsing a raw
document to a CAS — followed by the analysis engine) is embarrassingly
parallel, so :meth:`CollectionProcessingEngine.run` fans it out over a
pluggable **executor**:

``serial``
    One document at a time on the calling thread — the reference
    execution the other mode must reproduce exactly, and what any run
    with one worker is.
``processes``
    The default.  The corpus is sharded — by deal when a ``shard_key``
    is given, contiguous chunks otherwise — across ``multiprocessing``
    worker processes, each running prepare+annotate for its shard and
    sending pickled per-document outcomes back.  This is true
    multi-core: every worker has its own interpreter and its own GIL.
    (The stage is pure-Python CPU work with no I/O inside it, so a
    thread pool under the GIL measured 0.62–0.98x of serial and is not
    offered.)

Consumers are inherently order-sensitive collection-level state, so the
per-worker streams are merged back in stable submission (document)
order before any consumer sees a CAS — a ``workers=N`` run feeds
consumers the exact sequence the serial run would, making the runs'
results identical at any worker count under either executor.  Outcomes
are consumed in submission order as their shards complete, so a run
configured with ``continue_on_error=False`` — or one that hits a fatal
``prepare`` error — raises at the same document the serial run would;
a shard stops at its first such document and shards not yet started
are cancelled, which bounds the wasted work.

Process-mode determinism has two extra legs (see
docs/ARCHITECTURE.md):

* Worker processes never *inherit* fault-injection state via fork.
  Each shard task installs a fresh :class:`~repro.faults.FaultInjector`
  rebuilt from the parent's ``(profile, seed)``; keyed draws depend
  only on ``(seed, component, key, nth-call-for-that-key)``, so the
  same documents fail no matter which process drew them.
* Worker-side metrics (parse timers, per-annotator costs, injected
  fault counters) are recorded into a fresh per-shard
  :class:`~repro.obs.MetricsRegistry` that rides back with the shard's
  outcomes and is merged into the parent registry, so ``repro stats``
  keeps its offline coverage under process execution.

Fault tolerance (docs/OPERATIONS.md): per-document outcomes fall into
three buckets.  *Processed* documents feed the consumers.  *Failed*
documents raised a hard :class:`AnnotatorError` — a bug or bad input
that a retry would not fix.  *Quarantined* documents hit a
:class:`TransientError` (injected fault, repository hiccup, timeout)
that survived the CPE's :class:`~repro.faults.RetryPolicy`, or overran
the per-document ``deadline_seconds``; they are set aside — never fed
to consumers — and the build continues.  A run whose combined
failed+quarantined ratio exceeds ``max_failure_ratio`` aborts with
:class:`BuildAbortedError` *before* the consumers complete, so a
mostly-dead substrate cannot masquerade as a thin-but-valid build.
"""

from __future__ import annotations

import multiprocessing
import pickle
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from time import perf_counter
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import (
    AnnotatorError,
    BuildAbortedError,
    DeadlineExceededError,
    TransientError,
)
from repro.faults import FaultInjector, RetryPolicy, get_injector, set_injector
from repro.obs import (
    CounterHandle,
    HistogramHandle,
    MetricsRegistry,
    get_registry,
    get_tracer,
    set_registry,
)
from repro.uima.cas import Cas
from repro.uima.engine import AnalysisEngine

__all__ = ["CasConsumer", "CpeReport", "CollectionProcessingEngine",
           "EXECUTORS"]

_PROCESSED = CounterHandle("cpe.documents_processed")
_FAILED = CounterHandle("cpe.documents_failed")
_QUARANTINED = CounterHandle("cpe.documents_quarantined")
_BUILDS_ABORTED = CounterHandle("cpe.builds_aborted")
_SECONDS = HistogramHandle("cpe.document_seconds")
_SECONDS_FAILED = HistogramHandle("cpe.document_seconds.failed")
_SECONDS_QUARANTINED = HistogramHandle("cpe.document_seconds.quarantined")

EXECUTORS = ("serial", "processes")

# Without a shard key the collection is cut into this many contiguous
# chunks per worker: enough for the pool to load-balance, and small
# enough that a merged outcome which aborts the run leaves most chunks
# unstarted.
_CHUNKS_PER_WORKER = 4


class CasConsumer:
    """Collection-level aggregation component."""

    name: str = "consumer"

    def process_cas(self, cas: Cas) -> None:
        """Observe one analyzed CAS (default: no-op)."""

    def collection_process_complete(self) -> Any:
        """Finish cross-document reasoning; return the consumer's result."""
        return None


@dataclass
class CpeReport:
    """Outcome of one CPE run.

    Attributes:
        documents_processed: CASes successfully analyzed.
        documents_failed: CASes whose analysis raised a hard
            (non-transient) error.
        documents_quarantined: CASes set aside after transient failures
            or deadline overruns; distinct from hard failures so
            operators can tell "rerun the build" from "fix the data".
        failures: Error strings for each failed document, each carrying
            the document's identity (doc id + deal) and the originating
            exception type so parallel-run failures stay attributable.
        quarantined: Same format, for quarantined documents.
        consumer_results: ``collection_process_complete`` return values,
            keyed by consumer name.
    """

    documents_processed: int = 0
    documents_failed: int = 0
    documents_quarantined: int = 0
    failures: List[str] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)
    consumer_results: dict = field(default_factory=dict)

    @property
    def failure_ratio(self) -> float:
        """(failed + quarantined) / total seen (0.0 on an empty run)."""
        total = (self.documents_processed + self.documents_failed
                 + self.documents_quarantined)
        if not total:
            return 0.0
        return (self.documents_failed + self.documents_quarantined) / total


def _describe_failure(cas: Optional[Cas], exc: BaseException) -> str:
    """One attributable failure line: doc identity + originating error.

    ``AnnotatorError`` wraps the real exception as ``__cause__``; surface
    the wrapped type so a log line names the actual bug class.
    """
    doc_id = deal_id = "<unknown>"
    if cas is not None:
        doc_id = str(cas.metadata.get("doc_id") or "<unknown>")
        deal_id = str(cas.metadata.get("deal_id") or "<unknown>")
    origin = type(exc.__cause__ or exc).__name__
    return f"doc {doc_id} (deal {deal_id}): {origin}: {exc}"


@dataclass
class _Outcome:
    """One document's fate, produced in the workers, merged serially.

    ``elapsed`` is the wall-clock of the document's *final* attempt and
    is recorded for every status — a slow document that then fails must
    stay visible in the latency histograms (docs/OPERATIONS.md).
    """

    cas: Optional[Cas]
    status: str  # "ok" | "failed" | "quarantined" | "fatal"
    error: Optional[BaseException]
    elapsed: float


def _picklable_error(exc: Optional[BaseException]) -> Optional[BaseException]:
    """``exc`` if it survives a pickle round-trip, else a safe stand-in.

    Process-mode outcomes cross a pipe.  Exceptions wrapping
    unpicklable state (rare — a socket in ``__cause__``, say) are
    replaced by an :class:`AnnotatorError` that preserves the original
    type name and message, so the merge loop still raises/records
    something attributable instead of dying on a ``PicklingError``.
    """
    if exc is None:
        return None
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return AnnotatorError(f"{type(exc).__name__}: {exc}")


@dataclass
class _DocumentProcessor:
    """The per-document worker body: prepare + engine under retry.

    Extracted from the CPE so the ``processes`` executor can pickle
    exactly the state the per-document stage needs (engine, prepare
    callable, retry policy, deadline) without dragging the consumers —
    collection-level, main-process-only state — across the pipe.
    """

    engine: AnalysisEngine
    prepare: Optional[Callable[[Any], Cas]]
    retry: Optional[RetryPolicy]
    deadline_seconds: Optional[float]

    def process(self, item: Any) -> _Outcome:
        """Process one item, never raising.

        The recorded elapsed time covers only the final attempt (retry
        backoff must not count against the document's deadline), for
        every outcome status — failures keep their real latency.
        """
        state = {
            "cas": None,
            "prepared": self.prepare is None,
            "started": perf_counter(),
        }

        def attempt() -> float:
            state["started"] = perf_counter()
            if self.prepare is not None:
                state["prepared"] = False
                state["cas"] = self.prepare(item)
                state["prepared"] = True
            else:
                state["cas"] = item
            self.engine.run(state["cas"])
            return perf_counter() - state["started"]

        try:
            if self.retry is not None:
                elapsed = self.retry.call(attempt, metric="cpe.retry")
            else:
                elapsed = attempt()
        except TransientError as exc:
            return _Outcome(state["cas"], "quarantined", exc,
                            perf_counter() - state["started"])
        except AnnotatorError as exc:
            if not state["prepared"]:
                # prepare() raised a hard error: propagate, as before
                # the fault layer (the collection itself is broken).
                return _Outcome(state["cas"], "fatal", exc,
                                perf_counter() - state["started"])
            return _Outcome(state["cas"], "failed", exc,
                            perf_counter() - state["started"])
        except BaseException as exc:  # re-raised by the merge loop
            return _Outcome(state["cas"], "fatal", exc,
                            perf_counter() - state["started"])
        if (self.deadline_seconds is not None
                and elapsed > self.deadline_seconds):
            return _Outcome(
                state["cas"],
                "quarantined",
                DeadlineExceededError(
                    f"document processing took {elapsed:.3f}s "
                    f"(deadline {self.deadline_seconds:.3f}s)"
                ),
                elapsed,
            )
        return _Outcome(state["cas"], "ok", None, elapsed)


@dataclass
class _ShardWorkerState:
    """Everything a worker process needs, shipped once per worker.

    The fault injector is *not* shipped: workers rebuild one from
    ``(fault_profile, fault_seed)`` so no decision-stream state is
    inherited via fork (keyed draws are position-independent, so a
    rebuilt injector makes exactly the serial run's decisions).
    """

    processor: _DocumentProcessor
    continue_on_error: bool
    fault_profile: Any
    fault_seed: int


_WORKER_STATE: Optional[_ShardWorkerState] = None


def _init_shard_worker(state: _ShardWorkerState) -> None:
    """Process-pool initializer: stash the shipped worker state."""
    global _WORKER_STATE
    _WORKER_STATE = state


def _run_shard(
    shard: Sequence[Tuple[int, Any]],
) -> Tuple[List[Tuple[int, _Outcome]], MetricsRegistry]:
    """Worker-process task: process one shard, return indexed outcomes.

    Installs a fresh injector (re-seeded, never fork-inherited) and a
    fresh metrics registry per shard; the registry rides back with the
    outcomes so the parent can merge worker-side telemetry.  Processing
    stops at the first outcome the parent's merge loop would raise on
    (fatal, or any non-ok under ``continue_on_error=False``), so wasted
    work is bounded shard-locally too.
    """
    state = _WORKER_STATE
    assert state is not None, "worker initializer did not run"
    set_injector(FaultInjector(state.fault_profile, seed=state.fault_seed))
    registry = MetricsRegistry()
    set_registry(registry)
    outcomes: List[Tuple[int, _Outcome]] = []
    for index, item in shard:
        outcome = state.processor.process(item)
        outcome.error = _picklable_error(outcome.error)
        outcomes.append((index, outcome))
        if outcome.status == "fatal" or (
            outcome.status != "ok" and not state.continue_on_error
        ):
            break
    return outcomes, registry


def _build_shards(
    items: Sequence[Any],
    workers: int,
    shard_key: Optional[Callable[[Any], Hashable]],
) -> List[List[Tuple[int, Any]]]:
    """Partition ``items`` (tagged with their submission index).

    With a ``shard_key`` (the offline build keys on deal id) every
    distinct key becomes one shard, in first-seen order — a deal's
    documents always travel together, which keeps per-deal state
    (repository handles, fault keys) process-local.  Without a key the
    items are cut into contiguous chunks, several per worker so the
    pool can load-balance.  Outcomes carry their submission index, so
    the merge is order-exact regardless of how shards are formed.
    """
    indexed = list(enumerate(items))
    if not indexed:
        return []
    if shard_key is not None:
        groups: "OrderedDict[Hashable, List[Tuple[int, Any]]]" = OrderedDict()
        for index, item in indexed:
            groups.setdefault(shard_key(item), []).append((index, item))
        return list(groups.values())
    chunks = min(len(indexed), workers * _CHUNKS_PER_WORKER)
    size = (len(indexed) + chunks - 1) // chunks
    return [indexed[i:i + size] for i in range(0, len(indexed), size)]


class CollectionProcessingEngine:
    """Run ``engine`` over a CAS collection, then finish the consumers.

    Args:
        engine: Document-level analysis (usually an aggregate).
        consumers: Collection-level components, run per CAS in order.
        continue_on_error: When True (the default, matching a nightly
            batch pipeline), per-document failures and quarantines are
            recorded and the run continues; when False the first one
            raises — at the same document under every executor, because
            outcomes merge in submission order.
        workers: Default worker count for :meth:`run` — 1 runs
            serially under either executor.
        executor: Default execution mode for :meth:`run` —
            ``"processes"`` (default) or ``"serial"``, which pins a run
            to the calling thread whatever ``workers`` says.  Results
            are identical under both.
        retry: Retry policy for transient per-document errors (None
            disables retrying; transients then quarantine immediately).
        deadline_seconds: Per-document budget for prepare+analysis.  A
            document whose (final-attempt) processing overran it is
            quarantined.  Workers cannot be pre-empted, so this is a
            post-hoc check: the slow document still consumed its worker
            slot once, but its results are withheld from the consumers.
        max_failure_ratio: Abort threshold for
            ``(failed + quarantined) / total``; the default 1.0 never
            aborts (pre-fault-layer behaviour).
    """

    def __init__(
        self,
        engine: AnalysisEngine,
        consumers: Sequence[CasConsumer] = (),
        continue_on_error: bool = True,
        workers: int = 1,
        executor: str = "processes",
        retry: Optional[RetryPolicy] = None,
        deadline_seconds: Optional[float] = None,
        max_failure_ratio: float = 1.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        if not 0.0 <= max_failure_ratio <= 1.0:
            raise ValueError(
                f"max_failure_ratio must be in [0, 1], "
                f"got {max_failure_ratio}"
            )
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds must be > 0, got {deadline_seconds}"
            )
        self.engine = engine
        self.consumers = list(consumers)
        self.continue_on_error = continue_on_error
        self.workers = workers
        self.executor = executor
        self.retry = retry
        self.deadline_seconds = deadline_seconds
        self.max_failure_ratio = max_failure_ratio

    def run(
        self,
        collection: Iterable[Any],
        prepare: Optional[Callable[[Any], Cas]] = None,
        workers: Optional[int] = None,
        executor: Optional[str] = None,
        shard_key: Optional[Callable[[Any], Hashable]] = None,
    ) -> CpeReport:
        """Process every item; returns the collection-level report.

        Args:
            collection: CASes, or raw items when ``prepare`` is given.
            prepare: Maps a raw item to a CAS (e.g. document parsing);
                runs inside the worker pool so parse *and* annotate fan
                out together.  ``None`` treats items as ready CASes.
                Under the ``processes`` executor it must be picklable,
                as must the items and the CASes it produces.
            workers: Pool size for this run (defaults to the engine's
                configured ``workers``); 1 runs strictly serially under
                any executor.
            executor: Execution mode for this run (defaults to the
                engine's configured ``executor``).
            shard_key: ``item -> shard identity`` for the ``processes``
                executor (the offline build passes the deal id, so a
                deal's documents stay in one worker).  ``None`` shards
                into contiguous chunks.  Ignored by a serial run.

        Raises:
            BuildAbortedError: When more than ``max_failure_ratio`` of
                the documents failed or were quarantined; the partial
                report rides on the exception's ``report`` attribute.
        """
        count = self.workers if workers is None else workers
        if count < 1:
            raise ValueError(f"workers must be >= 1, got {count}")
        mode = self.executor if executor is None else executor
        if mode not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {mode!r}"
            )
        processor = _DocumentProcessor(
            self.engine, prepare, self.retry, self.deadline_seconds
        )
        if mode == "serial" or count == 1:
            return self._run_serial(collection, processor)
        return self._run_processes(collection, processor, count, shard_key)

    # -- serial path --------------------------------------------------------

    def _run_serial(
        self,
        collection: Iterable[Any],
        processor: _DocumentProcessor,
    ) -> CpeReport:
        report = CpeReport()
        with get_tracer().span("cpe.run", executor="serial"):
            for item in collection:
                self._merge_outcome(report, processor.process(item))
            self._check_failure_ratio(report)
            self._complete_consumers(report)
        return report

    # -- process-pool path --------------------------------------------------

    def _run_processes(
        self,
        collection: Iterable[Any],
        processor: _DocumentProcessor,
        workers: int,
        shard_key: Optional[Callable[[Any], Hashable]],
    ) -> CpeReport:
        """Shard across worker processes; merge in submission order.

        Each shard task returns ``(submission index, outcome)`` pairs
        plus its worker-side metrics registry.  The merge buffers
        whatever arrives out of order and feeds the consumers strictly
        by submission index, so results — including the document a
        failing run raises at — are identical to the serial run.
        """
        items = list(collection)
        report = CpeReport()
        injector = get_injector()
        state = _ShardWorkerState(
            processor=processor,
            continue_on_error=self.continue_on_error,
            fault_profile=injector.profile,
            fault_seed=injector.seed,
        )
        shards = _build_shards(items, workers, shard_key)
        registry = get_registry()
        with get_tracer().span("cpe.run", workers=workers,
                               executor="processes", shards=len(shards)):
            if shards:
                with ProcessPoolExecutor(
                    max_workers=min(workers, len(shards)),
                    mp_context=_pool_context(),
                    initializer=_init_shard_worker,
                    initargs=(state,),
                ) as pool:
                    futures = [
                        pool.submit(_run_shard, shard) for shard in shards
                    ]
                    buffered: Dict[int, _Outcome] = {}
                    next_index = 0
                    try:
                        for future in as_completed(futures):
                            outcomes, shard_registry = future.result()
                            registry.merge(shard_registry)
                            for index, outcome in outcomes:
                                buffered[index] = outcome
                            while next_index in buffered:
                                self._merge_outcome(
                                    report, buffered.pop(next_index)
                                )
                                next_index += 1
                    except BaseException:
                        for future in futures:
                            future.cancel()
                        raise
            self._check_failure_ratio(report)
            self._complete_consumers(report)
        return report

    # -- shared bookkeeping -------------------------------------------------

    def _merge_outcome(self, report: CpeReport, outcome: _Outcome) -> None:
        if outcome.status == "fatal":
            raise outcome.error
        if outcome.status == "failed":
            self._record_failure(report, outcome)
            if not self.continue_on_error:
                raise outcome.error
            return
        if outcome.status == "quarantined":
            self._record_quarantine(report, outcome)
            if not self.continue_on_error:
                raise outcome.error
            return
        self._record_success(report, outcome)

    def _record_success(self, report: CpeReport, outcome: _Outcome) -> None:
        report.documents_processed += 1
        _PROCESSED.inc()
        _SECONDS.observe(outcome.elapsed)
        for consumer in self.consumers:
            consumer.process_cas(outcome.cas)

    def _record_failure(self, report: CpeReport, outcome: _Outcome) -> None:
        report.documents_failed += 1
        report.failures.append(
            _describe_failure(outcome.cas, outcome.error)
        )
        _FAILED.inc()
        _SECONDS_FAILED.observe(outcome.elapsed)

    def _record_quarantine(
        self, report: CpeReport, outcome: _Outcome
    ) -> None:
        report.documents_quarantined += 1
        report.quarantined.append(
            _describe_failure(outcome.cas, outcome.error)
        )
        _QUARANTINED.inc()
        _SECONDS_QUARANTINED.observe(outcome.elapsed)

    def _check_failure_ratio(self, report: CpeReport) -> None:
        if report.failure_ratio > self.max_failure_ratio:
            _BUILDS_ABORTED.inc()
            raise BuildAbortedError(
                f"build aborted: {report.documents_failed} failed + "
                f"{report.documents_quarantined} quarantined of "
                f"{report.documents_processed + report.documents_failed + report.documents_quarantined}"
                f" documents ({report.failure_ratio:.0%} > "
                f"max_failure_ratio {self.max_failure_ratio:.0%})",
                report=report,
            )

    def _complete_consumers(self, report: CpeReport) -> None:
        with get_tracer().span("cpe.consumers_complete"):
            for consumer in self.consumers:
                report.consumer_results[consumer.name] = (
                    consumer.collection_process_complete()
                )


def _pool_context():
    """The multiprocessing context for shard pools.

    Prefer ``fork`` (cheap start, no re-import) where the platform
    offers it; shard workers re-seed their injector and registry
    explicitly, so nothing correctness-relevant rides on fork
    inheritance, and the spawn fallback works because every shipped
    object (processor, profile, outcomes) is picklable.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()
