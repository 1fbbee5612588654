"""LEB128 variable-length integer codec for index segment files.

Every integer in a segment file — document-ordinal gaps, term
frequencies, position deltas, section lengths — is an unsigned LEB128
varint: 7 payload bits per byte, high bit set on every byte except the
last.  Small numbers (the overwhelmingly common case once doc ids are
gap-encoded) take one byte, which is where the bytes/doc win over the
JSON baseline comes from.

The module exposes two call styles:

* ``write_uint(out, value)`` appending to a ``bytearray`` — encoding.
* ``read_uint(buf, offset) -> (value, next_offset)`` over any
  bytes-like object — decoding.  The offset-threading style avoids
  allocating a stream wrapper per posting list on the hot decode path.

Strings are length-prefixed UTF-8 (``write_str``/``read_str``).
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import StorageError

__all__ = [
    "write_uint",
    "read_uint",
    "write_str",
    "read_str",
]


def write_uint(out: bytearray, value: int) -> None:
    """Append ``value`` (non-negative int) to ``out`` as LEB128."""
    if value < 0:
        raise ValueError(f"varint cannot encode negative value {value}")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_uint(buf, offset: int) -> Tuple[int, int]:
    """Decode one varint from ``buf`` at ``offset``.

    Returns ``(value, next_offset)``.  Raises :class:`StorageError` on
    truncation (the high bit never clears before the buffer ends).
    """
    result = 0
    shift = 0
    end = len(buf)
    while True:
        if offset >= end:
            raise StorageError("truncated varint in segment data")
        byte = buf[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


def write_str(out: bytearray, text: str) -> None:
    """Append a length-prefixed UTF-8 string to ``out``."""
    data = text.encode("utf-8")
    write_uint(out, len(data))
    out.extend(data)


def read_str(buf, offset: int) -> Tuple[str, int]:
    """Decode one length-prefixed UTF-8 string at ``offset``."""
    length, offset = read_uint(buf, offset)
    end = offset + length
    if end > len(buf):
        raise StorageError("truncated string in segment data")
    return bytes(buf[offset:end]).decode("utf-8"), end
