"""Concurrent serving layer: the front door over the one search engine.

The paper's production EIL served an entire community of practice from
one deployment over one index; this package is the repro's equivalent
of that serving tier.  :mod:`repro.serving.server` holds
:class:`EILServer`, a front door doing caller-thread admission: a
bounded admission queue, deadline-aware rejection, load shedding
(:class:`~repro.errors.ServerOverloadedError`) and a circuit breaker,
surfaced through ``serving.*`` metrics.

Snapshot semantics: every engine mutation and its epoch bump run under
the write side of a writer-preferring read/write lock, every query
under the read side, so a query racing ``add_workbook`` /
``remove_deal`` always observes *some* quiesced epoch — never a torn
index.
"""

from repro.serving.server import EILServer

__all__ = [
    "EILServer",
]
