"""Bounded retry with exponential backoff and deterministic jitter.

One :class:`RetryPolicy` instance is shared by every resilient call
site of a component (crawler fetches, per-document analysis, synopsis
and SIAPI queries).  The policy is deliberately *classifying*: only
exceptions in ``retryable`` — by default :class:`TransientError`, which
covers injected faults, timeouts and open breakers — are retried.
Programming errors (bad SQL, bad query syntax) and annotator bugs fail
immediately, because retrying a deterministic bug only burns the error
budget.

Jitter is deterministic: the jitter factor for attempt *n* comes from a
hash of ``(seed, n)``, not from global randomness, so two runs with the
same seed back off identically — the property the fault-matrix suite
asserts on.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Tuple, Type

from repro.errors import TransientError
from repro.faults.injection import _stable_uniform
from repro.obs import CounterHandle

__all__ = ["RetryPolicy"]


class RetryPolicy:
    """Bounded attempts, exponential backoff, deterministic jitter.

    Args:
        max_attempts: Total attempts including the first (>= 1).
        base_delay: Sleep after the first failure, in seconds.
        multiplier: Backoff multiplier per further failure.
        max_delay: Upper bound on any single sleep.
        jitter: Jitter width as a fraction of the delay: the actual
            sleep is ``delay * (1 - jitter/2 + jitter * u)`` with ``u``
            a deterministic uniform per attempt index.
        seed: Seed for the jitter stream.
        retryable: Exception classes worth retrying.
        sleep: Sleep function (injectable for tests).
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay: float = 0.01,
        multiplier: float = 2.0,
        max_delay: float = 0.25,
        jitter: float = 0.5,
        seed: int = 0,
        retryable: Tuple[Type[BaseException], ...] = (TransientError,),
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter
        self.seed = seed
        self.retryable = tuple(retryable)
        self.sleep = sleep
        # "<metric>.<outcome>" handles, bound on first use
        self._handles: Dict[Tuple[str, str], CounterHandle] = {}

    def classify(self, exc: BaseException) -> bool:
        """True when ``exc`` is worth another attempt."""
        return isinstance(exc, self.retryable)

    def delay(self, attempt: int) -> float:
        """The backoff before attempt ``attempt + 1`` (attempts are 1-based)."""
        raw = min(
            self.max_delay,
            self.base_delay * self.multiplier ** (attempt - 1),
        )
        if not self.jitter:
            return raw
        u = _stable_uniform(self.seed, "retry", None, attempt, "jitter")
        return raw * (1.0 - self.jitter / 2.0 + self.jitter * u)

    def call(self, fn: Callable, *args, metric: Optional[str] = "retry",
             **kwargs):
        """Run ``fn`` under the policy; re-raises the final failure.

        Metrics (when ``metric`` is not None): ``retry.attempts`` counts
        *re*-attempts (a clean first try records nothing),
        ``retry.exhausted`` counts give-ups, ``retry.recovered`` counts
        calls that failed at least once but eventually succeeded.
        """
        retried = False
        for attempt in range(1, self.max_attempts + 1):
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if not self.classify(exc) or attempt >= self.max_attempts:
                    if metric and retried:
                        self._count(metric, "exhausted")
                    raise
                retried = True
                if metric:
                    self._count(metric, "attempts")
                self.sleep(self.delay(attempt))
            else:
                if metric and retried:
                    self._count(metric, "recovered")
                return result
        raise AssertionError("unreachable")  # pragma: no cover

    def _count(self, metric: str, outcome: str) -> None:
        handle = self._handles.get((metric, outcome))
        if handle is None:
            handle = self._handles.setdefault(
                (metric, outcome), CounterHandle(f"{metric}.{outcome}")
            )
        handle.inc()
