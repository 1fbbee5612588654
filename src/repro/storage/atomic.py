"""Crash-safe file writes: temp file + fsync + atomic rename.

A snapshot or manifest write that dies mid-``write()`` must never
destroy the last good copy.  The only portable way to get that on POSIX
is the classic dance: write the full payload to a temporary file *in
the same directory* (rename across filesystems is not atomic), flush
and ``fsync`` the file so the bytes are durable before the name flips,
``os.replace`` onto the final path (atomic within a directory), then
fsync the directory so the rename itself survives a power cut.

Used by :mod:`repro.db.persistence` for synopsis snapshots and by
:mod:`repro.storage.store` for segment files and manifests.

:func:`read_manifest` is the reading half for the JSON manifests written
this way (``eil-manifest.json``, ``SHARDS.json``, the segment
``MANIFEST.json``, ``graph.json``): each is one JSON object carrying a
``format`` marker and an integer ``version``.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict

from repro.errors import StorageError

__all__ = ["atomic_write_bytes", "atomic_write_text", "read_manifest"]


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


def read_manifest(path: str, format: str, version: int) -> Dict[str, Any]:
    """The JSON object stored at ``path``, checked to be a ``format`` file
    of exactly ``version``.

    Anything else — unreadable, truncated or non-JSON bytes, a JSON value
    that is not an object, another format marker, another version — raises
    :class:`~repro.errors.StorageError` naming the path.  Checksums and
    payload fields are the caller's to verify.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            body = json.load(handle)
    except OSError as exc:
        raise StorageError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise StorageError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(body, dict) or body.get("format") != format:
        raise StorageError(f"{path} is not a {format} file")
    if body.get("version") != version:
        raise StorageError(
            f"unsupported {format} version {body.get('version')!r} in "
            f"{path} (expected {version})"
        )
    return body


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
