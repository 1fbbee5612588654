"""The version-1 segment layout, written only so a test can offer it.

Version 1 differed from version 2 in the docstore record alone: it
led with the metadata as a length-prefixed JSON string (key-sorted,
default separators), then the fields.  :func:`version_one` re-lays a
version-2 segment in that layout — the doc table's offsets follow the
longer records; the rest of the head, which never pointed into the
docstore, is carried over byte for byte — so a loader can be shown a
well-formed segment of the old format.
"""

import json

from repro.storage.segment import MAGIC, Segment
from repro.storage.varint import read_str, read_uint, write_str, write_uint

__all__ = ["version_one"]


def version_one(data: bytes) -> bytes:
    """``data`` (a version-2 segment) in the version-1 layout."""
    segment = Segment.from_bytes(data)
    head = bytearray()
    docstore = bytearray()
    write_uint(head, segment.doc_count)
    off = read_uint(segment._head, 0)[1]
    for _ in range(segment.doc_count):
        doc_id, off = read_str(segment._head, off)
        off = read_uint(segment._head, read_uint(segment._head, off)[1])[1]
        document = segment.document(doc_id)
        start = len(docstore)
        write_str(docstore, json.dumps(dict(document.metadata),
                                       sort_keys=True))
        write_uint(docstore, len(document.fields))
        for name, text in document.fields.items():
            write_str(docstore, name)
            write_str(docstore, text)
        write_str(head, doc_id)
        write_uint(head, start)
        write_uint(head, len(docstore) - start)
    head.extend(segment._head[off:])
    out = bytearray(MAGIC)
    write_uint(out, 1)
    write_uint(out, len(head))
    return bytes(out + head + docstore)
