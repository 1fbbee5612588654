"""The concurrent front door: admission control, deadlines, shedding.

:class:`EILServer` puts a thread-pool facade in front of an
:class:`~repro.core.eil.EILSystem` (or any object with the same online
API).  Its job is not to make queries faster — it is to keep the system
*well-behaved under overload*:

* **Bounded admission** — at most ``max_concurrency`` requests execute
  while at most ``queue_depth`` wait; anything beyond is shed
  immediately with :class:`~repro.errors.ServerOverloadedError`
  (a :class:`~repro.errors.TransientError`: back off and retry), so the
  queue can never grow without bound and latency stays bounded by
  design.
* **Deadline-aware rejection** — a request that exhausted its deadline
  while still queued is rejected with
  :class:`~repro.errors.DeadlineExceededError` *before* any query work
  runs; under overload the server spends its capacity only on requests
  that can still meet their deadline.
* **Circuit breaking** — request execution runs under a
  :class:`~repro.faults.CircuitBreaker`, so a persistent substrate
  outage flips to instant :class:`~repro.errors.CircuitOpenError`
  fast-fails instead of tying every worker up in retries.  Single-rung
  degradations inside :class:`~repro.core.search
  .BusinessActivityDrivenSearch` still resolve to results (the
  degradation ladder is below the breaker); only a full
  :class:`~repro.errors.EILUnavailableError` outage trips it.

All of that is for requests that need a worker.  A form search whose
answer the query cache already holds is answered on the caller's own
thread (:meth:`EILServer.search`): it reads no substrate, so it takes
no admission slot, is never shed or rejected for its deadline, and is
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

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Optional, TypeVar

from repro.concurrency import AtomicCounter
from repro.errors import (
    DeadlineExceededError,
    EILUnavailableError,
    ServerOverloadedError,
    TransientError,
)
from repro.faults import CircuitBreaker
from repro.obs import get_registry

__all__ = ["EILServer"]

_T = TypeVar("_T")


class EILServer:
    """Thread-pool serving facade with admission control.

    Args:
        eil: The system to serve — anything exposing ``search`` /
            ``keyword_search`` (an :class:`~repro.core.eil.EILSystem`).
            One that also has ``probe_search`` gets its query-cache
            hits answered on the caller's thread.
        max_concurrency: Worker threads executing requests.
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
        self._pool = ThreadPoolExecutor(
            max_workers=max_concurrency, thread_name_prefix="eil-serve"
        )
        # The admission bound: executing + queued slots.  Non-blocking
        # acquire at the door is what makes shedding immediate.
        self._slots = threading.BoundedSemaphore(
            max_concurrency + queue_depth
        )
        self._inflight = AtomicCounter()
        self._queued = AtomicCounter()
        self._closed = False
        self._probe = getattr(eil, "probe_search", None)

    # -- the public request surface -----------------------------------------

    def search(self, *args, deadline_seconds: Optional[float] = None,
               **kwargs):
        """Business-activity driven search through the front door.

        Blocks the caller for the result.  A system with
        ``probe_search`` has the request looked up in its query cache
        on this thread first, and a hit is answered right here
        (``serving.answered_inline``).  A miss — or any request to a
        system without the probe — passes admission control, so a
        saturated server sheds it instead of queueing without bound; a
        miss carries its probe to the worker, which computes and stores
        the answer without looking it up again.
        """
        if self._probe is None:
            return self.submit_search(
                *args, deadline_seconds=deadline_seconds, **kwargs
            ).result()
        if self._closed:
            raise RuntimeError("server is shut down")
        metrics = get_registry()
        arrived_at = self.clock()
        try:
            probe = self._probe(*args, **kwargs)
            if probe.cached is not None:
                answer = self.eil.search(*args, probe=probe, **kwargs)
        except BaseException:
            metrics.inc("serving.errors")
            metrics.observe("serving.latency", self.clock() - arrived_at)
            raise
        if probe.cached is None:
            return self._admit(
                lambda: self.eil.search(*args, probe=probe, **kwargs),
                deadline_seconds,
            ).result()
        metrics.inc("serving.answered_inline")
        metrics.observe("serving.latency", self.clock() - arrived_at)
        return answer

    def keyword_search(self, *args,
                       deadline_seconds: Optional[float] = None,
                       **kwargs):
        """Baseline keyword search through the front door."""
        return self.submit_keyword_search(
            *args, deadline_seconds=deadline_seconds, **kwargs
        ).result()

    def graph_query(self, *args,
                    deadline_seconds: Optional[float] = None,
                    **kwargs):
        """Entity-graph people & role query through the front door.

        Graph traversals share the same worker pool and admission
        bound as form queries — under overload a ``worked_with`` burst
        sheds exactly like a search burst, and ``serving.*`` metrics
        count both uniformly.
        """
        return self.submit_graph_query(
            *args, deadline_seconds=deadline_seconds, **kwargs
        ).result()

    def submit_search(
        self, *args, deadline_seconds: Optional[float] = None, **kwargs
    ) -> "Future":
        """Async variant of :meth:`search`; sheds at submission time.

        Every request is admitted, a query-cache hit included: only
        :meth:`search` answers hits on the caller's thread.
        """
        return self._admit(
            lambda: self.eil.search(*args, **kwargs), deadline_seconds
        )

    def submit_keyword_search(
        self, *args, deadline_seconds: Optional[float] = None, **kwargs
    ) -> "Future":
        """Async variant of :meth:`keyword_search`."""
        return self._admit(
            lambda: self.eil.keyword_search(*args, **kwargs),
            deadline_seconds,
        )

    def submit_graph_query(
        self, *args, deadline_seconds: Optional[float] = None, **kwargs
    ) -> "Future":
        """Async variant of :meth:`graph_query`."""
        return self._admit(
            lambda: self.eil.graph_query(*args, **kwargs),
            deadline_seconds,
        )

    # -- admission / execution ----------------------------------------------

    def _admit(
        self,
        request: Callable[[], _T],
        deadline_seconds: Optional[float],
    ) -> "Future":
        if self._closed:
            raise RuntimeError("server is shut down")
        metrics = get_registry()
        if not self._slots.acquire(blocking=False):
            metrics.inc("serving.shed")
            raise ServerOverloadedError(
                f"admission queue full "
                f"({self.max_concurrency} executing + "
                f"{self.queue_depth} queued)"
            )
        metrics.inc("serving.admitted")
        enqueued_at = self.clock()
        deadline = (
            enqueued_at + deadline_seconds
            if deadline_seconds is not None
            else None
        )
        metrics.set_gauge("serving.queue_depth",
                          self._queued.increment())
        try:
            return self._pool.submit(
                self._execute, request, enqueued_at, deadline
            )
        except BaseException:
            self._slots.release()
            metrics.set_gauge("serving.queue_depth",
                              self._queued.decrement())
            raise

    def _execute(
        self,
        request: Callable[[], _T],
        enqueued_at: float,
        deadline: Optional[float],
    ) -> _T:
        metrics = get_registry()
        started_at = self.clock()
        metrics.set_gauge("serving.queue_depth",
                          self._queued.decrement())
        metrics.observe("serving.queue_wait", started_at - enqueued_at)
        metrics.set_gauge("serving.inflight",
                          self._inflight.increment())
        try:
            if deadline is not None and started_at >= deadline:
                # The request aged out while queued; spending a worker
                # on it now would only make every later deadline worse.
                metrics.inc("serving.rejected.deadline")
                raise DeadlineExceededError(
                    f"request spent "
                    f"{started_at - enqueued_at:.3f}s in queue, "
                    f"past its deadline"
                )
            try:
                result = self.breaker.call(request)
            except BaseException:
                metrics.inc("serving.errors")
                raise
            metrics.inc("serving.completed")
            return result
        finally:
            metrics.set_gauge("serving.inflight",
                              self._inflight.decrement())
            metrics.observe("serving.latency",
                            self.clock() - enqueued_at)
            self._slots.release()

    # -- lifecycle ------------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting requests and (optionally) drain the pool."""
        self._closed = True
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "EILServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
