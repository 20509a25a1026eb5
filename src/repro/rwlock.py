"""`ReadWriteLock` — the one catalog-guarding lock of the code base.

A leaf module (stdlib and :mod:`repro.errors` only) so that every tier
can import it without reaching upward.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Optional

from repro.errors import LockTimeoutError


class ReadWriteLock:
    """A writer-preferring readers-writer lock.

    Queries share the read side; catalog mutations take the write side.
    Writer preference keeps a steady query stream from starving
    mutations (the regime the concurrency stress test exercises).
    In the sharded catalog (:mod:`repro.shard`) scatter-gather queries
    take the read side per shard (as do compaction fills),
    WAL-journaled mutations and compaction roll-backs the write side.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0
        self._writer_thread: Optional[int] = None
        #: Lock-order instrumentation, set only by the tier-1 race
        #: check (:mod:`repro.testing.racecheck`); ``None`` in
        #: production, so the hot path pays one attribute load.
        self._monitor: Optional[object] = None
        self._monitor_id: str = "rwlock"

    def write_held_by_current_thread(self) -> bool:
        """Whether the calling thread is the active writer.

        The sharded catalog's write guard uses this to let a shard
        database's mutators run only on the thread that holds its
        shard's write lock.
        """
        return self._writer_thread == threading.get_ident()

    def _wait(self, deadline: Optional[float], side: str) -> None:
        """One condition wait, bounded by ``deadline`` (monotonic)."""
        if deadline is None:
            self._cond.wait()
            return
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise LockTimeoutError(
                f"{side} lock not acquired before timeout; abandoning"
            )
        self._cond.wait(remaining)

    @contextmanager
    def read_locked(self, timeout: Optional[float] = None):
        """Hold the read side.  ``timeout`` (seconds) bounds the wait;
        a timed-out attempt raises
        :class:`~repro.errors.LockTimeoutError` having changed
        nothing."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._wait(deadline, "read")
            self._readers += 1
        monitor = self._monitor
        if monitor is not None:
            monitor.on_acquire(self._monitor_id, "read")  # type: ignore[attr-defined]
        try:
            yield
        finally:
            if monitor is not None:
                monitor.on_release(self._monitor_id, "read")  # type: ignore[attr-defined]
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextmanager
    def write_locked(self, timeout: Optional[float] = None):
        """Hold the write side.  A timed-out attempt withdraws its
        waiting claim and wakes blocked readers before raising
        :class:`~repro.errors.LockTimeoutError` — writer preference
        must not outlive an abandoned writer."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._wait(deadline, "write")
            except BaseException:
                self._writers_waiting -= 1
                self._cond.notify_all()
                raise
            self._writers_waiting -= 1
            self._writer_active = True
            self._writer_thread = threading.get_ident()
        monitor = self._monitor
        if monitor is not None:
            monitor.on_acquire(self._monitor_id, "write")  # type: ignore[attr-defined]
        try:
            yield
        finally:
            if monitor is not None:
                monitor.on_release(self._monitor_id, "write")  # type: ignore[attr-defined]
            with self._cond:
                self._writer_active = False
                self._writer_thread = None
                self._cond.notify_all()
