"""Edge-case tests for :class:`ReadWriteLock`.

The stress suite exercises throughput; these tests pin the *contract*:
writer preference under a reader flood, the
``write_held_by_current_thread`` answer the sharded catalog's write
guard depends on, and the bounded-wait /
abandon behavior (a timed-out acquisition must leave the lock exactly
as if the attempt had never been made).
"""

import threading
import time

import pytest

from repro.errors import LockTimeoutError
from repro.service.executor import ReadWriteLock


class TestWriterPreference:
    def test_writer_is_not_starved_by_a_reader_flood(self):
        lock = ReadWriteLock()
        stop = threading.Event()
        writer_done = threading.Event()
        admitted_after_writer_queued = []

        def reader() -> None:
            while not stop.is_set():
                with lock.read_locked():
                    if not writer_done.is_set():
                        admitted_after_writer_queued.append(
                            threading.get_ident()
                        )
                    time.sleep(0.001)

        def writer() -> None:
            with lock.write_locked():
                writer_done.set()

        readers = [threading.Thread(target=reader) for _ in range(6)]
        for thread in readers:
            thread.start()
        time.sleep(0.02)  # let the flood establish itself
        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        assert writer_done.wait(5), "writer starved by steady readers"
        writer_thread.join(5)
        stop.set()
        for thread in readers:
            thread.join(5)

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        reader_in = threading.Event()
        release_reader = threading.Event()
        late_reader_in = threading.Event()

        def first_reader() -> None:
            with lock.read_locked():
                reader_in.set()
                release_reader.wait(5)

        def writer() -> None:
            with lock.write_locked():
                pass

        def late_reader() -> None:
            with lock.read_locked():
                late_reader_in.set()

        holder = threading.Thread(target=first_reader)
        holder.start()
        assert reader_in.wait(5)
        writing = threading.Thread(target=writer)
        writing.start()
        time.sleep(0.02)  # writer is now queued
        late = threading.Thread(target=late_reader)
        late.start()
        # Writer preference: the late reader must not jump the queue.
        assert not late_reader_in.wait(0.1)
        release_reader.set()
        for thread in (holder, writing, late):
            thread.join(5)
        assert late_reader_in.is_set()


class TestWriteHeldByCurrentThread:
    def test_true_only_for_the_holding_thread(self):
        lock = ReadWriteLock()
        assert not lock.write_held_by_current_thread()
        seen_from_other_thread = []
        with lock.write_locked():
            assert lock.write_held_by_current_thread()

            def probe() -> None:
                seen_from_other_thread.append(
                    lock.write_held_by_current_thread()
                )

            thread = threading.Thread(target=probe)
            thread.start()
            thread.join(5)
        assert seen_from_other_thread == [False]
        assert not lock.write_held_by_current_thread()

    def test_listener_dispatch_under_held_lock_does_not_deadlock(self):
        # Code that runs either with the write lock already held or
        # standalone can use write_held_by_current_thread() to decide
        # whether acquiring would self-deadlock.  Model both.
        lock = ReadWriteLock()
        observed = []

        def listener() -> None:
            if lock.write_held_by_current_thread():
                observed.append("reentrant")
            else:
                with lock.write_locked():
                    observed.append("out-of-band")

        with lock.write_locked():
            listener()  # wrapper path: must not try to re-acquire
        listener()  # out-of-band path: must take the lock itself
        assert observed == ["reentrant", "out-of-band"]

    def test_read_side_does_not_count_as_write_held(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            assert not lock.write_held_by_current_thread()


class TestTimeoutAndAbandon:
    def test_read_timeout_raises(self):
        lock = ReadWriteLock()
        holder_in = threading.Event()
        release = threading.Event()

        def writer() -> None:
            with lock.write_locked():
                holder_in.set()
                release.wait(5)

        thread = threading.Thread(target=writer)
        thread.start()
        assert holder_in.wait(5)
        with pytest.raises(LockTimeoutError):
            with lock.read_locked(timeout=0.05):
                pass  # pragma: no cover - never entered
        release.set()
        thread.join(5)

    def test_write_timeout_raises_and_lock_stays_usable(self):
        lock = ReadWriteLock()
        reader_in = threading.Event()
        release = threading.Event()

        def reader() -> None:
            with lock.read_locked():
                reader_in.set()
                release.wait(5)

        thread = threading.Thread(target=reader)
        thread.start()
        assert reader_in.wait(5)
        with pytest.raises(LockTimeoutError):
            with lock.write_locked(timeout=0.05):
                pass  # pragma: no cover - never entered
        # The abandoned writer must have withdrawn its waiting claim:
        # internal counters are back to rest and the lock still works.
        assert lock._writers_waiting == 0
        assert not lock._writer_active
        release.set()
        thread.join(5)
        with lock.write_locked(timeout=1.0):
            assert lock.write_held_by_current_thread()
        with lock.read_locked(timeout=1.0):
            pass

    def test_abandoned_writer_unblocks_queued_readers(self):
        # Writer preference parks readers behind a waiting writer; if
        # that writer times out, the readers must be woken rather than
        # waiting for a writer that will never run.
        lock = ReadWriteLock()
        holder_in = threading.Event()
        release = threading.Event()
        late_read_done = threading.Event()

        def first_reader() -> None:
            with lock.read_locked():
                holder_in.set()
                release.wait(5)

        def late_reader() -> None:
            with lock.read_locked():
                late_read_done.set()

        holder = threading.Thread(target=first_reader)
        holder.start()
        assert holder_in.wait(5)
        late = threading.Thread(target=late_reader)
        with pytest.raises(LockTimeoutError):
            with lock.write_locked(timeout=0.05):
                pass  # pragma: no cover - never entered
        late.start()
        # The first reader still holds the lock, but with the writer's
        # claim withdrawn the late reader shares the read side freely.
        assert late_read_done.wait(5), "reader stuck behind abandoned writer"
        release.set()
        for thread in (holder, late):
            thread.join(5)

    def test_zero_timeout_on_free_lock_succeeds(self):
        lock = ReadWriteLock()
        with lock.write_locked(timeout=0.5):
            pass
        with lock.read_locked(timeout=0.5):
            pass
