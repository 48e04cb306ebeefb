"""Concurrency primitives of the serving layer.

:class:`ReadWriteLock` is the readers-writer lock guarding the in-memory
engine of a :class:`~repro.service.store.TemporalStore`;
:func:`requires_writer_lock` is the *lock-discipline marker* the static
analyzer (``repro-tx lint``, rules RL002/RL003) keys off: decorating a
method asserts "every caller holds writer exclusivity", so the checker
accepts its engine mutations without seeing an enclosing
``write_locked()`` block.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterator, TypeVar

from ..obs import trace as _trace
from . import sanitizer as _san

_F = TypeVar("_F", bound=Callable)


def requires_writer_lock(fn: _F) -> _F:
    """Mark ``fn`` as callable only while the store's writer mutex (and,
    for engine mutations, the write side of the RW lock) is held.

    Purely declarative — the decorator adds no runtime checking (the hot
    update path cannot afford one) but sets ``__requires_writer_lock__``
    so both the static analyzer and debugging tools can find the marked
    frontier.
    """
    fn.__requires_writer_lock__ = True  # type: ignore[attr-defined]
    return fn


class ReadWriteLock:
    """A readers-writer lock with writer preference.

    Many readers may hold the lock at once; a writer waits for them to
    drain and then holds it exclusively.  Arriving readers queue behind a
    waiting writer so a steady query stream cannot starve updates (the
    serving layer's writes are short: three tree inserts).
    """

    #: Sanitizer role shared by every instance (lockdep-style class key).
    SANITIZER_ROLE = "store.rw"

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        if _san.enabled():
            _san.TRACKER.check_order(self.SANITIZER_ROLE)
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        if _san.enabled():
            _san.TRACKER.acquired(self.SANITIZER_ROLE, allow_blocking=False)

    def release_read(self) -> None:
        if _san.enabled():
            _san.TRACKER.released(self.SANITIZER_ROLE)
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        if _san.enabled():
            _san.TRACKER.check_order(self.SANITIZER_ROLE)
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True
        if _san.enabled():
            _san.TRACKER.acquired(self.SANITIZER_ROLE, allow_blocking=False)

    def release_write(self) -> None:
        if _san.enabled():
            _san.TRACKER.released(self.SANITIZER_ROLE)
        with self._cond:
            self._writer_active = False
            self._cond.notify_all()

    @contextlib.contextmanager
    def read_locked(self) -> Iterator[None]:
        # The span covers only the wait, not the critical section — the
        # interesting signal is how long a reader queued behind writers.
        with _trace.span("lock.read.wait"):
            self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextlib.contextmanager
    def write_locked(self) -> Iterator[None]:
        with _trace.span("lock.write.wait"):
            self.acquire_write()
        try:
            yield
        finally:
            self.release_write()
