"""The concurrent front door: admission control, deadlines, shedding.

:class:`EILServer` puts caller-thread admission in front of an
:class:`~repro.core.eil.EILSystem` (or any object with the same online
API): every request runs on the thread that made it, and two semaphores
bound how many do.  Its job is not to make queries faster — it is to
keep the system *well-behaved under overload*:

* **Bounded admission** — at most ``max_concurrency`` requests execute
  while at most ``queue_depth`` wait for an executing slot; anything
  beyond is shed immediately with
  :class:`~repro.errors.ServerOverloadedError` (a
  :class:`~repro.errors.TransientError`: back off and retry), so the
  queue can never grow without bound and latency stays bounded by
  design.
* **Deadline-aware rejection** — a queued request waits for an
  executing slot no longer than its deadline allows, and one past its
  deadline when the slot comes is rejected with
  :class:`~repro.errors.DeadlineExceededError` *before* any query work
  runs; under overload the server spends its capacity only on requests
  that can still meet their deadline.
* **Circuit breaking** — request execution runs under a
  :class:`~repro.faults.CircuitBreaker`, so a persistent substrate
  outage flips to instant :class:`~repro.errors.CircuitOpenError`
  fast-fails instead of tying every slot up in retries.  Single-rung
  degradations inside :class:`~repro.core.search
  .BusinessActivityDrivenSearch` still resolve to results (the
  degradation ladder is below the breaker); only a full
  :class:`~repro.errors.EILUnavailableError` outage trips it.

All of that is for requests that need the substrate.  A form search
whose answer the query cache already holds is answered before
admission (:meth:`EILServer.search`): it reads no substrate, so it
takes no slot, is never shed or rejected for its deadline, and is
answered while the breaker is open.

Metrics (``repro stats`` vocabulary, see docs/OPERATIONS.md):
``serving.answered_inline`` / ``serving.admitted`` / ``serving.shed``
/ ``serving.rejected.deadline`` / ``serving.completed`` /
``serving.errors`` counters, ``serving.latency`` /
``serving.queue_wait`` histograms (seconds), and ``serving.inflight``
/ ``serving.queue_depth`` gauges.  Every request lands in exactly one
of ``answered_inline``, ``completed``, ``errors``, ``shed`` and
``rejected.deadline``.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Optional, TypeVar

from repro.concurrency import AtomicCounter
from repro.errors import (
    DeadlineExceededError,
    EILUnavailableError,
    ServerOverloadedError,
    TransientError,
)
from repro.faults import CircuitBreaker
from repro.obs import CounterHandle, GaugeHandle, HistogramHandle

__all__ = ["EILServer"]

_ANSWERED_INLINE = CounterHandle("serving.answered_inline")
_ADMITTED = CounterHandle("serving.admitted")
_SHED = CounterHandle("serving.shed")
_REJECTED_DEADLINE = CounterHandle("serving.rejected.deadline")
_COMPLETED = CounterHandle("serving.completed")
_ERRORS = CounterHandle("serving.errors")
_LATENCY = HistogramHandle("serving.latency")
_QUEUE_WAIT = HistogramHandle("serving.queue_wait")
_QUEUE_DEPTH = GaugeHandle("serving.queue_depth")
_INFLIGHT = GaugeHandle("serving.inflight")

_T = TypeVar("_T")


def _no_probe(*args: Any, **kwargs: Any) -> None:
    """The probe of a system without a query cache: always a miss."""
    return None


class EILServer:
    """Caller-thread admission control in front of the online API.

    Args:
        eil: The system to serve — anything exposing ``search`` /
            ``keyword_search`` (an :class:`~repro.core.eil.EILSystem`).
            One that also has ``probe_search`` gets its query-cache
            hits answered without admission.
        max_concurrency: Requests executing at once.
        queue_depth: Requests allowed to *wait* beyond the executing
            ones; an arriving request past ``max_concurrency +
            queue_depth`` is shed.
        breaker: Circuit breaker around request execution; the default
            trips on :class:`~repro.errors.TransientError` and
            :class:`~repro.errors.EILUnavailableError` (both-substrates
            outages), never on user errors.
        clock: Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        eil: Any,
        max_concurrency: int = 4,
        queue_depth: int = 16,
        breaker: Optional[CircuitBreaker] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {max_concurrency}"
            )
        if queue_depth < 0:
            raise ValueError(
                f"queue_depth must be >= 0, got {queue_depth}"
            )
        self.eil = eil
        self.max_concurrency = max_concurrency
        self.queue_depth = queue_depth
        self.clock = clock
        self.breaker = breaker or CircuitBreaker(
            "serving",
            trip_on=(TransientError, EILUnavailableError),
        )
        # Executing + queued slots.  Non-blocking acquire at the door is
        # what makes shedding immediate.
        self._admission = threading.BoundedSemaphore(
            max_concurrency + queue_depth
        )
        self._executing = threading.BoundedSemaphore(max_concurrency)
        self._inflight = AtomicCounter()
        self._queued = AtomicCounter()
        self._closed = False
        self._probe = getattr(eil, "probe_search", _no_probe)

    # -- the public request surface -----------------------------------------

    def search(self, *args, deadline_seconds: Optional[float] = None,
               **kwargs):
        """Business-activity driven search through the front door.

        A system with ``probe_search`` has the request looked up in its
        query cache first, and a hit is answered right away
        (``serving.answered_inline``).  A miss passes admission
        control, so a saturated server sheds it instead of queueing
        without bound, and carries its probe to ``search``, which
        computes and stores the answer without looking it up again.
        """
        arrived_at = self._arrive()
        try:
            probe = self._probe(*args, **kwargs)
            if probe is not None:
                kwargs["probe"] = probe
            hit = probe is not None and probe.cached is not None
            if hit:
                answer = self.eil.search(*args, **kwargs)
        except BaseException:
            _ERRORS.inc()
            _LATENCY.observe(self.clock() - arrived_at)
            raise
        if not hit:
            return self._admit(
                lambda: self.eil.search(*args, **kwargs),
                arrived_at, deadline_seconds,
            )
        _ANSWERED_INLINE.inc()
        _LATENCY.observe(self.clock() - arrived_at)
        return answer

    def keyword_search(self, *args,
                       deadline_seconds: Optional[float] = None,
                       **kwargs):
        """Baseline keyword search through the front door."""
        arrived_at = self._arrive()
        return self._admit(
            lambda: self.eil.keyword_search(*args, **kwargs),
            arrived_at, deadline_seconds,
        )

    def graph_query(self, *args,
                    deadline_seconds: Optional[float] = None,
                    **kwargs):
        """Entity-graph people & role query through the front door.

        Graph traversals share the same slots as form queries — under
        overload a ``worked_with`` burst sheds exactly like a search
        burst, and ``serving.*`` metrics count both uniformly.
        """
        arrived_at = self._arrive()
        return self._admit(
            lambda: self.eil.graph_query(*args, **kwargs),
            arrived_at, deadline_seconds,
        )

    # -- admission / execution ----------------------------------------------

    def _arrive(self) -> float:
        if self._closed:
            raise RuntimeError("server is shut down")
        return self.clock()

    def _admit(
        self,
        request: Callable[[], _T],
        arrived_at: float,
        deadline_seconds: Optional[float],
    ) -> _T:
        if not self._admission.acquire(blocking=False):
            _SHED.inc()
            raise ServerOverloadedError(
                f"admission queue full "
                f"({self.max_concurrency} executing + "
                f"{self.queue_depth} queued)"
            )
        _ADMITTED.inc()
        deadline = (
            arrived_at + deadline_seconds
            if deadline_seconds is not None
            else None
        )
        executing = False
        try:
            queued_at = self.clock()
            _QUEUE_DEPTH.set(self._queued.increment())
            try:
                executing = self._executing.acquire(
                    timeout=None if deadline is None
                    else max(0.0, deadline - queued_at)
                )
            finally:
                _QUEUE_DEPTH.set(self._queued.decrement())
            started_at = self.clock()
            _QUEUE_WAIT.observe(started_at - queued_at)
            if not executing or (
                deadline is not None and started_at >= deadline
            ):
                # The request aged out while queued; running it now
                # would only make every later deadline worse.
                _REJECTED_DEADLINE.inc()
                raise DeadlineExceededError(
                    f"request spent "
                    f"{started_at - queued_at:.3f}s in queue, "
                    f"past its deadline"
                )
            _INFLIGHT.set(self._inflight.increment())
            try:
                result = self.breaker.call(request)
            except BaseException:
                _ERRORS.inc()
                raise
            finally:
                _INFLIGHT.set(self._inflight.decrement())
            _COMPLETED.inc()
            return result
        finally:
            if executing:
                self._executing.release()
            self._admission.release()
            _LATENCY.observe(self.clock() - arrived_at)
            # Hand the processor, and the interpreter lock with it, to
            # any thread waiting for them.  A client sending requests
            # back to back would otherwise keep the lock a whole switch
            # interval at a time, and onboarding beside it would get
            # only the turns the interval forces.
            os.sched_yield()

    # -- lifecycle ------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop accepting requests; those already admitted finish."""
        self._closed = True

    def __enter__(self) -> "EILServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
