"""Crash-safe file writes, and the one envelope every saved JSON file uses.

A snapshot or manifest write that dies mid-``write()`` must never
destroy the last good copy.  The only portable way to get that on POSIX
is the classic dance: write the full payload to a temporary file *in
the same directory* (rename across filesystems is not atomic), flush
and ``fsync`` the file so the bytes are durable before the name flips,
``os.replace`` onto the final path (atomic within a directory), then
fsync the directory so the rename itself survives a power cut.

Every JSON file of a saved system — ``eil-manifest.json``, a segment
store's ``MANIFEST.json``, ``synopsis.json`` and ``graph.json`` — is
one document of the same shape, written by
:func:`encode_document` and read by :func:`decode_document` (or
:func:`read_manifest`, which reads the file first)::

    {"checksum":"<hex>","format":"<kind>","payload":{...},"version":N}

canonical JSON (sorted keys, no whitespace), with the checksum (a
blake2b-128 hex digest) taken over the payload's canonical text.
Whatever is wrong with a document — unreadable, not JSON, not an
object, another kind or version, a missing or wrong checksum, a missing
payload — the reader raises :class:`~repro.errors.StorageError` naming
where it came from.  The payload's fields are the caller's to
interpret.  :func:`checksum` is also what a segment store records for
each segment file.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict, Union

from repro.errors import StorageError

__all__ = ["atomic_write_bytes", "atomic_write_text", "checksum",
           "encode_document", "decode_document", "read_manifest"]


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Atomically replace ``path`` with ``data``.

    On any failure the target file is untouched and the temp file is
    removed; a reader can never observe a partial write under the
    final name.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    _fsync_directory(directory)


def atomic_write_text(path: str, text: str, encoding: str = "utf-8") -> None:
    """Atomically replace ``path`` with ``text`` (see bytes variant)."""
    atomic_write_bytes(path, text.encode(encoding))


def checksum(data: bytes) -> str:
    """The blake2b-128 hex digest every saved file is checked against."""
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def encode_document(kind: str, version: int, payload: Dict[str, Any]) -> str:
    """``payload`` as a checksummed ``kind`` document of ``version``.

    The text is canonical JSON of the whole envelope; it is assembled
    around the payload's canonical text so the payload is serialized
    once, for both the checksum and the file.
    """
    body = _canonical(payload)
    return (
        f'{{"checksum":"{checksum(body.encode("utf-8"))}",'
        f'"format":{_canonical(kind)},"payload":{body},'
        f'"version":{version}}}'
    )


def decode_document(
    text: Union[str, bytes], kind: str, version: int, source: str
) -> Dict[str, Any]:
    """The payload of an :func:`encode_document` text, checked to be a
    ``kind`` document of exactly ``version`` whose checksum matches.

    Raises :class:`~repro.errors.StorageError` naming ``source`` for
    anything else.
    """
    try:
        document = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise StorageError(f"invalid JSON in {source}: {exc}") from exc
    if not isinstance(document, dict) or document.get("format") != kind:
        raise StorageError(f"{source} is not a {kind} file")
    if document.get("version") != version:
        raise StorageError(
            f"unsupported {kind} version {document.get('version')!r} in "
            f"{source} (expected {version}); rebuild and save again"
        )
    payload = document.get("payload")
    if not isinstance(payload, dict):
        raise StorageError(f"{source} has no {kind} payload")
    if document.get("checksum") != checksum(
        _canonical(payload).encode("utf-8")
    ):
        raise StorageError(
            f"{source} failed its checksum (partial or corrupted write)"
        )
    return payload


def read_manifest(path: str, kind: str, version: int) -> Dict[str, Any]:
    """The payload of the ``kind`` document of ``version`` at ``path``
    (see :func:`decode_document`); an unreadable file raises
    :class:`~repro.errors.StorageError` naming the path too."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise StorageError(f"cannot read {path}: {exc}") from exc
    return decode_document(data, kind, version, path)


def _fsync_directory(directory: str) -> None:
    """Flush the directory entry; best-effort on filesystems without it."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)
