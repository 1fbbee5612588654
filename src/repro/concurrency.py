"""Shared concurrency primitives for the online serving path.

The serving layer (:mod:`repro.serving`) lets many threads query one
engine while incremental maintenance mutates it.  Two primitives make
that safe without giving up read concurrency:

* :class:`ReadWriteLock` — many concurrent readers or one writer, with
  writer preference (a waiting writer blocks new readers, so continuous
  query traffic can never starve ``add_workbook``/``remove_deal``).
  :class:`~repro.search.engine.SearchEngine` runs every search under
  the read side and every index mutation + epoch bump under the write
  side, which is what makes a query's view of (epoch, index state) a
  consistent snapshot.
* :class:`AtomicCounter` — a lock-protected integer for epoch and
  admission accounting, where the plain ``+= 1`` read-modify-write
  would lose increments under contention (reads take no lock).

This module sits below both ``search`` and ``serving`` in the layering
(it imports nothing from either), so the engine can use the lock
without depending on the serving package above it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = ["ReadWriteLock", "AtomicCounter"]


class ReadWriteLock:
    """Many readers / one writer, writer-preferring.

    ``read()`` and ``write()`` return context managers::

        lock = ReadWriteLock()
        with lock.read():
            ...  # shared with other readers
        with lock.write():
            ...  # exclusive

    A thread must not upgrade (acquire the write side while holding the
    read side) — that deadlocks by design, as it would for any
    non-reentrant lock.  Writer preference: once a writer is waiting,
    new readers queue behind it, so sustained query load cannot starve
    index maintenance.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @contextmanager
    def read(self) -> Iterator[None]:
        """Acquire the shared (reader) side for the ``with`` block."""
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        """Acquire the exclusive (writer) side for the ``with`` block."""
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
                self._writer_active = True
            finally:
                self._writers_waiting -= 1
        try:
            yield
        finally:
            with self._cond:
                self._writer_active = False
                self._cond.notify_all()


class AtomicCounter:
    """A lock-protected integer counter.

    ``value += 1`` on a shared attribute is a three-step
    read-modify-write in CPython and loses increments under thread
    contention; this wraps the same operation in a lock and returns the
    post-increment value so callers can use it as a sequence.
    """

    __slots__ = ("_lock", "_value")

    def __init__(self, initial: int = 0) -> None:
        self._lock = threading.Lock()
        self._value = initial

    @property
    def value(self) -> int:
        """The current value.

        Read without the lock: it is one load of an attribute that
        only :meth:`increment` rebinds, under the lock, to a new int, so
        a reader sees the value before or after an increment, never a
        torn one — what holding the lock would give it too.
        """
        return self._value

    def increment(self, amount: int = 1) -> int:
        """Add ``amount`` atomically; returns the new value."""
        with self._lock:
            self._value += amount
            return self._value

    def decrement(self, amount: int = 1) -> int:
        """Subtract ``amount`` atomically; returns the new value."""
        return self.increment(-amount)
