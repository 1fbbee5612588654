"""Concurrent serving layer: a sharded index layout plus a front door.

The paper's production EIL served an entire community of practice from
one deployment; this package is the repro's equivalent of that serving
tier, in two layers:

* :mod:`repro.serving.sharding` — :class:`ShardedIndex`, the inverted
  index partitioned into shards keyed by deal and read as one
  composite by the one search engine, so rankings stay
  **bit-identical** to the unsharded index (the scorer reads
  corpus-global statistics off the composite).
* :mod:`repro.serving.server` — :class:`EILServer`, a front door doing
  caller-thread admission: a bounded admission queue, deadline-aware
  rejection, load shedding (:class:`~repro.errors.ServerOverloadedError`)
  and a circuit breaker, surfaced through ``serving.*`` metrics.

Snapshot semantics: every engine mutation and its epoch bump run under
the write side of a writer-preferring read/write lock, every query
under the read side, so a query racing ``add_workbook`` /
``remove_deal`` always observes *some* quiesced epoch — never a torn
index.
"""

from repro.serving.server import EILServer
from repro.serving.sharding import ShardedIndex, shard_for

__all__ = [
    "EILServer",
    "ShardedIndex",
    "shard_for",
]
