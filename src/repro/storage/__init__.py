"""Persistent segmented index storage (delta-varint + LSM lifecycle).

Public surface:

* :class:`~repro.storage.store.SegmentBackedIndex` — the writable
  composite ``IndexReader`` layering a memtable over immutable
  delta-varint segments with tombstones and tiered merge, plus
  ``save``/``load`` for cold-start-from-disk.
* :class:`~repro.storage.segment.Segment` (an ``IndexReader`` leaf)
  and the codec helpers in :mod:`repro.storage.varint` for direct
  format access.
* :func:`~repro.storage.atomic.atomic_write_bytes` /
  ``atomic_write_text`` — the crash-safe write primitive shared with
  :mod:`repro.db.persistence`, beside ``encode_document`` /
  ``decode_document``, the checksummed envelope of every saved JSON
  file.

See docs/ARCHITECTURE.md ("Persistent index storage") for the on-disk
layout and merge policy, and docs/OPERATIONS.md for the snapshot /
restore runbook.
"""

from repro.storage.atomic import atomic_write_bytes, atomic_write_text
from repro.storage.segment import (
    FORMAT_VERSION,
    MAGIC,
    Segment,
    encode_from_index,
    merge_segments,
)
from repro.storage.store import (
    MANIFEST_FORMAT,
    MANIFEST_NAME,
    SegmentBackedIndex,
)

__all__ = [
    "SegmentBackedIndex",
    "Segment",
    "encode_from_index",
    "merge_segments",
    "atomic_write_bytes",
    "atomic_write_text",
    "MAGIC",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "MANIFEST_FORMAT",
]
