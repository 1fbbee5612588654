"""Deterministic, seedable fault injection for the EIL substrates.

The paper's production EIL ran on flaky enterprise substrates — crawls
over unreliable repositories, a DB2 synopsis store, an OmniFind index —
each of which can fail independently.  This module reproduces that
operational reality on demand: a :class:`FaultInjector` installed via
:func:`repro.faults.use_injector` makes the named *fault points* inside
the pipelines raise errors, overrun deadlines, or slow down, at
configurable rates.

Fault points and the component names that address them:

========== ==========================================================
component  fault point
========== ==========================================================
repository :meth:`EngagementWorkbook.documents` / ``iter_documents``
           (one keyed check per workbook read, key = deal id)
crawler    :meth:`Crawler.crawl` (one keyed check per document fetch)
db         :meth:`Database.execute` (every SQL statement)
index      :meth:`SearchEngine.search` / ``count`` (every query)
analysis   per-document parse+annotate (keyed check, key = doc id)
========== ==========================================================

Determinism is the design center, because the fault-matrix tests assert
exact outcomes and the PR 2 invariant (parallel build == serial build)
must keep holding *under injection*:

* **Keyed checks** (``check(component, key=...)``) decide from a stable
  hash of ``(seed, component, key, nth-call-for-that-key)`` — never from
  global call order — so the same documents fail no matter how many
  workers raced to process them, and a retry of the same key redraws.
* **Unkeyed checks** draw from a per-component ``random.Random`` stream
  seeded from ``(seed, component)``, deterministic for any serial call
  sequence (the online query path).

Process-sharded builds extend the contract: worker processes must
**never inherit injector state via fork** (an inherited per-key call
count or stream position would make decisions depend on what the
parent had already drawn).  Instead each shard task reconstructs a
fresh injector from the parent's ``(profile, seed)``; because keyed
draws hash only ``(seed, component, key, nth-call-for-that-key)``,
the rebuilt injector makes exactly the decisions the serial run would,
no matter which process draws them.  The injector itself is
deliberately not picklable (it carries a lock and live decision
streams) — ship ``injector.profile`` and ``injector.seed``, as
:meth:`repro.uima.cpe.CollectionProcessingEngine` does.

An injector with an empty profile is a no-op and costs one attribute
read per fault point, so production code paths keep their speed when no
faults are configured.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Mapping, Optional

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    InjectedFaultError,
)
from repro.obs import CounterHandle, get_registry

__all__ = ["FaultRule", "FaultProfile", "FaultInjector"]

_FAULTS_INJECTED = CounterHandle("faults.injected")


@dataclass(frozen=True)
class FaultRule:
    """Fault behaviour of one component.

    Attributes:
        error_rate: Probability a check raises :class:`InjectedFaultError`.
        timeout_rate: Probability a check raises
            :class:`DeadlineExceededError` (an injected timeout).
        latency_rate: Probability a check sleeps for ``latency`` seconds.
        latency: Injected delay in seconds when the latency draw hits.
    """

    error_rate: float = 0.0
    timeout_rate: float = 0.0
    latency_rate: float = 0.0
    latency: float = 0.0

    def __post_init__(self) -> None:
        for name in ("error_rate", "timeout_rate", "latency_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"fault {name} must be in [0, 1], got {value}"
                )
        if self.latency < 0:
            raise ConfigurationError(
                f"fault latency must be >= 0, got {self.latency}"
            )

    @property
    def active(self) -> bool:
        """True when this rule can ever fire."""
        return bool(
            self.error_rate or self.timeout_rate
            or (self.latency_rate and self.latency)
        )


class FaultProfile:
    """A named set of :class:`FaultRule` objects, one per component."""

    def __init__(self, rules: Optional[Mapping[str, FaultRule]] = None):
        self.rules: Dict[str, FaultRule] = {
            component: rule
            for component, rule in (rules or {}).items()
            if rule.active
        }

    @classmethod
    def parse(cls, spec: str) -> "FaultProfile":
        """Parse a CLI profile spec into a profile.

        Grammar (components split on ``;``, knobs on ``,``)::

            db:error=0.2;index:error=0.1,latency=0.05,latency_rate=1
            repository:0.2          # shorthand for error=0.2

        Knob names: ``error`` (rate), ``timeout`` (rate), ``latency``
        (seconds), ``latency_rate``.
        """
        rules: Dict[str, FaultRule] = {}
        for part in filter(None, (p.strip() for p in spec.split(";"))):
            component, sep, knobs = part.partition(":")
            component = component.strip()
            if not sep or not component:
                raise ConfigurationError(
                    f"fault profile entry {part!r} is not "
                    f"'component:knob=value,...'"
                )
            kwargs: Dict[str, float] = {}
            for knob in filter(None, (k.strip() for k in knobs.split(","))):
                name, eq, raw = knob.partition("=")
                if not eq:  # bare number shorthand: error rate
                    name, raw = "error", name
                try:
                    value = float(raw)
                except ValueError:
                    raise ConfigurationError(
                        f"fault knob {knob!r} has a non-numeric value"
                    ) from None
                key = {"error": "error_rate", "timeout": "timeout_rate"}.get(
                    name.strip(), name.strip()
                )
                if key not in (
                    "error_rate", "timeout_rate", "latency_rate", "latency"
                ):
                    raise ConfigurationError(f"unknown fault knob {name!r}")
                kwargs[key] = value
            if "latency" in kwargs and "latency_rate" not in kwargs:
                kwargs["latency_rate"] = 1.0
            rules[component] = FaultRule(**kwargs)
        return cls(rules)

    def __bool__(self) -> bool:
        return bool(self.rules)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultProfile({self.rules!r})"


def _stable_uniform(seed: int, component: str, key: Hashable, n: int,
                    draw: str) -> float:
    """A uniform [0, 1) value from a stable, process-independent hash."""
    token = f"{seed}\x1f{component}\x1f{key!r}\x1f{n}\x1f{draw}"
    digest = hashlib.blake2b(token.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


class FaultInjector:
    """Injects faults at the named fault points, deterministically.

    Args:
        profile: Component rules (a :class:`FaultProfile`, or a plain
            mapping of component name to :class:`FaultRule`).  Empty
            means no faults: every check is a no-op.
        seed: Seed for the decision streams; two injectors with the same
            profile and seed make identical decisions.
        sleep: Sleep function for latency injection (injectable so tests
            can observe delays without waiting them out).
    """

    def __init__(
        self,
        profile: Optional[object] = None,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if profile is None:
            profile = FaultProfile()
        elif not isinstance(profile, FaultProfile):
            profile = FaultProfile(profile)
        self.profile = profile
        self.seed = seed
        self.sleep = sleep
        self._lock = threading.Lock()
        self._streams: Dict[str, random.Random] = {}
        self._key_calls: Dict[tuple, int] = {}

    @property
    def active(self) -> bool:
        """True when any component has an active rule."""
        return bool(self.profile)

    # -- decision streams ---------------------------------------------------

    def _draws(self, component: str, key: Optional[Hashable]):
        """Three uniforms (error, timeout, latency) for one check."""
        if key is None:
            with self._lock:
                stream = self._streams.get(component)
                if stream is None:
                    stream = random.Random(f"{self.seed}\x1f{component}")
                    self._streams[component] = stream
                return stream.random(), stream.random(), stream.random()
        with self._lock:
            n = self._key_calls.get((component, key), 0)
            self._key_calls[(component, key)] = n + 1
        return tuple(
            _stable_uniform(self.seed, component, key, n, draw)
            for draw in ("error", "timeout", "latency")
        )

    # -- the fault point API ------------------------------------------------

    def check(self, component: str, key: Optional[Hashable] = None) -> None:
        """Maybe delay, then maybe raise, per the component's rule.

        Args:
            component: Fault-point name (see the module docstring).
            key: Stable identity of the unit of work (doc id, deal id).
                Keyed decisions are order-independent — required where
                the check runs inside a worker pool — and each repeat
                call for the same key redraws, so retries can succeed.
        """
        rule = self.profile.rules.get(component)
        if rule is None:
            return
        error_u, timeout_u, latency_u = self._draws(component, key)
        metrics = get_registry()
        if rule.latency_rate and rule.latency and latency_u < rule.latency_rate:
            _FAULTS_INJECTED.inc()
            metrics.inc(f"faults.injected.{component}.latency")
            self.sleep(rule.latency)
        if rule.error_rate and error_u < rule.error_rate:
            _FAULTS_INJECTED.inc()
            metrics.inc(f"faults.injected.{component}.error")
            raise InjectedFaultError(
                f"injected fault in {component}"
                + (f" (key={key!r})" if key is not None else "")
            )
        if rule.timeout_rate and timeout_u < rule.timeout_rate:
            _FAULTS_INJECTED.inc()
            metrics.inc(f"faults.injected.{component}.timeout")
            raise DeadlineExceededError(
                f"injected timeout in {component}"
                + (f" (key={key!r})" if key is not None else "")
            )
