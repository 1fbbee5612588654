"""Circuit breaker protecting the synopsis store and the SIAPI index.

Classic closed → open → half-open state machine: after
``failure_threshold`` consecutive classified failures the breaker
*opens* and every call is rejected instantly with
:class:`CircuitOpenError` (no load lands on the struggling substrate,
and the caller degrades immediately instead of waiting out retries).
After ``recovery_seconds`` the breaker goes *half-open* and admits
exactly **one** probe call; success closes the breaker, failure
re-opens it.

Half-open is single-flight: under concurrent load, every caller beyond
the probe fast-fails with :class:`CircuitOpenError` (counted under
``breaker.rejected.<name>``) instead of stampeding a substrate that is
still getting back on its feet.  Re-opening after a failed probe counts
as **one** trip regardless of how many threads observed the failure —
``breaker.open`` counts open *transitions*, so one outage reads as one
trip in ``repro stats``.

The clock is injectable so tests drive recovery without sleeping, and
:class:`CircuitOpenError` subclasses :class:`TransientError`, so an open
breaker lands in the same degradation handling as the outage that
tripped it.

Metrics: ``breaker.open`` counts trips (plus ``breaker.open.<name>``),
``breaker.rejected.<name>`` counts fast-failed calls (open rejections
and crowded half-open probes alike), and the gauge
``breaker.state.<name>`` exports 0 = closed, 1 = half-open, 2 = open —
the half-open value is exported as soon as the recovery window is
first observed to have elapsed, so dashboards see the 2 → 1 → 0 (or
2 → 1 → 2) walk rather than an inexplicable 2 → 0 jump.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Tuple, Type

from repro.errors import CircuitOpenError, TransientError
from repro.obs import CounterHandle, GaugeHandle

__all__ = ["CircuitBreaker"]

_BREAKER_OPEN = CounterHandle("breaker.open")

CLOSED, HALF_OPEN, OPEN = "closed", "half-open", "open"
_STATE_GAUGE = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class CircuitBreaker:
    """A thread-safe circuit breaker around one substrate.

    Args:
        name: Metrics suffix and error-message label.
        failure_threshold: Consecutive classified failures that trip
            the breaker.
        recovery_seconds: How long the breaker stays open before it
            allows a half-open probe.
        trip_on: Exception classes that count as substrate failures;
            anything else propagates without touching the failure count
            (a user's bad query must not black out the service).
        ignore: Exception classes never counted even when they match
            ``trip_on`` (checked first).
        clock: Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        name: str,
        failure_threshold: int = 5,
        recovery_seconds: float = 30.0,
        trip_on: Tuple[Type[BaseException], ...] = (TransientError,),
        ignore: Tuple[Type[BaseException], ...] = (),
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.name = name
        self.failure_threshold = failure_threshold
        self.recovery_seconds = recovery_seconds
        self.trip_on = tuple(trip_on)
        self.ignore = tuple(ignore)
        self.clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        # Half-open admits exactly one probe; True while it is in
        # flight.  Cleared by whichever of record_success /
        # record_failure / probe-release runs first.
        self._probe_in_flight = False
        self._state_gauge = GaugeHandle(f"breaker.state.{name}")
        self._opened = CounterHandle(f"breaker.open.{name}")
        self._rejected = CounterHandle(f"breaker.rejected.{name}")

    # -- state -------------------------------------------------------------

    @property
    def state(self) -> str:
        """``closed``, ``half-open`` or ``open`` (recovery-aware)."""
        with self._lock:
            return self._observe_state()

    def _observe_state(self) -> str:
        """Current state; transitions OPEN → HALF_OPEN when the window
        has elapsed (exporting the gauge), so half-open is a real,
        observable state rather than a value derived in passing.
        Caller must hold the lock.
        """
        if self._state == OPEN and (
            self.clock() - self._opened_at >= self.recovery_seconds
        ):
            self._set_state(HALF_OPEN)
        return self._state

    def _set_state(self, state: str) -> None:
        self._state = state
        self._state_gauge.set(_STATE_GAUGE[state])

    def _trip(self) -> None:
        """Transition to OPEN and count it (caller must hold the lock)."""
        self._set_state(OPEN)
        self._opened_at = self.clock()
        _BREAKER_OPEN.inc()
        self._opened.inc()

    # -- bookkeeping --------------------------------------------------------

    def record_success(self) -> None:
        """A protected call succeeded; close and reset."""
        with self._lock:
            self._probe_in_flight = False
            self._failures = 0
            if self._state != CLOSED:
                self._set_state(CLOSED)

    def record_failure(self) -> None:
        """A classified failure; trips the breaker at the threshold.

        Re-opening from half-open counts exactly one trip per open
        transition: the first failure re-opens (and restarts the
        recovery window); any further concurrent failures land in the
        already-open state and only bump the failure count.
        """
        with self._lock:
            self._probe_in_flight = False
            if self._observe_state() == HALF_OPEN:
                # The probe failed: straight back to open, counted once.
                self._trip()
                return
            self._failures += 1
            if (self._state == CLOSED
                    and self._failures >= self.failure_threshold):
                self._trip()

    def _release_probe(self, held: bool) -> None:
        """Free the probe slot after an unclassified/ignored exception.

        The substrate neither succeeded nor classifiedly failed, so the
        breaker stays half-open and the next caller may probe.
        """
        if held:
            with self._lock:
                self._probe_in_flight = False

    # -- the protected call -------------------------------------------------

    def call(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` under the breaker.

        Raises:
            CircuitOpenError: Without calling ``fn``, when the breaker
                is open and the recovery window has not elapsed — or
                when it is half-open and another caller already holds
                the single probe slot.
        """
        probe = False
        with self._lock:
            state = self._observe_state()
            if state == OPEN:
                self._rejected.inc()
                raise CircuitOpenError(
                    f"circuit {self.name!r} is open "
                    f"({self._failures} consecutive failures)"
                )
            if state == HALF_OPEN:
                if self._probe_in_flight:
                    self._rejected.inc()
                    raise CircuitOpenError(
                        f"circuit {self.name!r} is half-open and its "
                        f"recovery probe is already in flight"
                    )
                self._probe_in_flight = True
                probe = True
        try:
            result = fn(*args, **kwargs)
        except self.ignore:
            self._release_probe(probe)
            raise
        except self.trip_on:
            self.record_failure()
            raise
        except BaseException:
            self._release_probe(probe)
            raise
        self.record_success()
        return result
