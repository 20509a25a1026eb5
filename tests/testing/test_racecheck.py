"""Tests for the Eraser-style lockset race detector (CC004).

The mutation-style fixtures seed exactly one unsynchronized write per
tracked structure and assert the detector flags it; the discipline
tests assert that properly locked (or fork/join-ordered) code stays
quiet.  Seeded races must be *genuinely concurrent*: the rogue thread
is spawned before the disciplined accesses and gated on an event, so
no fork/join happens-before edge can excuse it.
"""

import threading
from collections import deque

import pytest

from repro.analysis.findings import AnalysisReport, Severity
from repro.service.executor import ReadWriteLock
from repro.testing.racecheck import (
    SCENARIOS,
    RaceMonitor,
    TrackedDeque,
    TrackedDict,
    TrackedLock,
    instrument_events,
    instrument_metrics,
    instrument_rwlock,
    instrument_service,
    run_race_check,
)


def _monitor() -> RaceMonitor:
    monitor = RaceMonitor()
    monitor._names[threading.get_ident()] = "main"
    return monitor


def _provoke(monitor, lock, write):
    """Main writes under ``lock``; a concurrent rogue writes bare."""
    release = threading.Event()
    done = threading.Event()

    def rogue() -> None:
        release.wait(5)
        write()  # the seeded defect: no lock held
        done.set()

    thread = monitor.spawn(rogue, name="rogue")
    with lock:
        write()  # the disciplined access
    release.set()
    assert done.wait(5)
    monitor.join(thread)
    return monitor.races


class TestSeededRacesPerStructure:
    def test_tracked_dict_key_write(self):
        monitor = _monitor()
        lock = TrackedLock(threading.Lock(), "guard", monitor)
        tracked = TrackedDict({}, "catalog._binary", monitor)
        races = _provoke(monitor, lock, lambda: tracked.__setitem__("k", 1))
        assert [race.structure for race in races] == ["catalog._binary['k']"]
        assert races[0].operation == "write"

    def test_tracked_deque_append(self):
        monitor = _monitor()
        lock = TrackedLock(threading.Lock(), "guard", monitor)
        tracked = TrackedDeque(deque(maxlen=8), "EventLog._ring", monitor)
        races = _provoke(monitor, lock, lambda: tracked.append({"n": 1}))
        assert [race.structure for race in races] == ["EventLog._ring"]

    def test_metrics_registry_bare_counter_write(self):
        from repro.obs.metrics import MetricsRegistry

        monitor = _monitor()
        registry = MetricsRegistry()
        instrument_metrics(registry, monitor)
        release = threading.Event()
        done = threading.Event()

        def rogue() -> None:
            release.wait(5)
            registry._counters["rogue.counter"] = 1  # bypasses _lock
            done.set()

        thread = monitor.spawn(rogue, name="rogue")
        registry.increment("rogue.counter")  # disciplined (locks inside)
        release.set()
        assert done.wait(5)
        monitor.join(thread)
        assert any(
            "rogue.counter" in race.structure for race in monitor.races
        )

    def test_event_log_bare_ring_append(self):
        from repro.obs.events import EventLog

        monitor = _monitor()
        log = EventLog(capacity=16)
        instrument_events(log, monitor)
        release = threading.Event()
        done = threading.Event()

        def rogue() -> None:
            release.wait(5)
            log._ring.append({"kind": "rogue"})  # bypasses _lock
            done.set()

        thread = monitor.spawn(rogue, name="rogue")
        log.emit("mutation", subsystem="racecheck")  # disciplined
        release.set()
        assert done.wait(5)
        monitor.join(thread)
        assert any(
            race.structure == "EventLog._ring" for race in monitor.races
        )

    def test_result_cache_bare_reorder(self):
        # A cache hit reorders the LRU list: a hit that skips the cache's
        # lock is an unsynchronized write of the whole structure.
        from repro.db.database import MultimediaDatabase
        from repro.service import QueryService

        monitor = _monitor()
        service = QueryService(MultimediaDatabase(), max_workers=1)
        try:
            instrument_service(service, monitor)
            cache = service.cache
            cache.put("a", 1)
            cache.put("b", 2)
            release = threading.Event()
            done = threading.Event()

            def rogue() -> None:
                release.wait(5)
                cache._entries.move_to_end("a")  # bypasses _lock
                done.set()

            thread = monitor.spawn(rogue, name="rogue")
            assert cache.get("a") == 1  # disciplined (locks inside)
            release.set()
            assert done.wait(5)
            monitor.join(thread)
        finally:
            service.shutdown()
        assert [race.structure for race in monitor.races] == [
            "ResultCache._entries"
        ]

    def test_write_under_read_side_only_is_a_race(self):
        # Reading under the read side is synchronized with writers;
        # *writing* under it is not — the asymmetric rule must hold.
        monitor = _monitor()
        rwlock = ReadWriteLock()
        instrument_rwlock(rwlock, "shard.rwlock", monitor)
        tracked = TrackedDict({}, "catalog._edited", monitor)
        release = threading.Event()
        done = threading.Event()

        def rogue() -> None:
            release.wait(5)
            with rwlock.read_locked():
                tracked["k"] = 2  # mutation under the read side
            done.set()

        thread = monitor.spawn(rogue, name="rogue")
        with rwlock.write_locked():
            tracked["k"] = 1
        release.set()
        assert done.wait(5)
        monitor.join(thread)
        assert [race.structure for race in monitor.races] == [
            "catalog._edited['k']"
        ]


class TestDiscipline:
    def test_common_lock_is_quiet(self):
        monitor = _monitor()
        lock = TrackedLock(threading.Lock(), "guard", monitor)
        tracked = TrackedDict({}, "catalog._binary", monitor)
        release = threading.Event()
        done = threading.Event()

        def worker() -> None:
            release.wait(5)
            with lock:
                tracked["k"] = 2
            done.set()

        thread = monitor.spawn(worker, name="worker")
        with lock:
            tracked["k"] = 1
        release.set()
        assert done.wait(5)
        monitor.join(thread)
        assert monitor.races == []

    def test_rwlock_readers_and_writer_are_quiet(self):
        monitor = _monitor()
        rwlock = ReadWriteLock()
        instrument_rwlock(rwlock, "shard.rwlock", monitor)
        tracked = TrackedDict({"k": 0}, "catalog._binary", monitor)

        def reader() -> None:
            for _ in range(10):
                with rwlock.read_locked():
                    tracked["k"]

        def writer() -> None:
            for step in range(10):
                with rwlock.write_locked():
                    tracked["k"] = step

        threads = [
            monitor.spawn(reader, name="read-0"),
            monitor.spawn(reader, name="read-1"),
            monitor.spawn(writer, name="write"),
        ]
        for thread in threads:
            monitor.join(thread)
        assert monitor.races == []

    def test_fork_join_chain_transfers_ownership(self):
        # build -> worker mutates -> join -> main reads: purely
        # sequential by fork/join edges, so no lock is needed and the
        # detector must not cry wolf.
        monitor = _monitor()
        tracked = TrackedDict({}, "staging", monitor)
        tracked["k"] = 0  # main initializes

        def worker() -> None:
            tracked["k"] = 1  # sees main's writes via the fork edge

        thread = monitor.spawn(worker, name="worker")
        monitor.join(thread)
        assert tracked["k"] == 1  # main reads after the join edge
        assert monitor.races == []


class TestReporting:
    def test_extend_report_emits_cc004(self):
        monitor = _monitor()
        lock = TrackedLock(threading.Lock(), "guard", monitor)
        tracked = TrackedDict({}, "catalog._binary", monitor)
        _provoke(monitor, lock, lambda: tracked.__setitem__("k", 1))
        report = AnalysisReport(pass_name="racecheck")
        monitor.extend_report(report)
        findings = report.by_code("CC004")
        assert len(findings) == 1
        assert findings[0].severity is Severity.ERROR
        assert findings[0].details["structure"] == "catalog._binary['k']"
        assert report.subjects_examined >= 1

    def test_shipped_scenarios_are_race_free(self, shipped_race_report):
        report = shipped_race_report
        assert report.clean, report.describe()
        assert report.subjects_examined > 20, "tracking must be non-vacuous"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown race-check scenario"):
            run_race_check(["bogus"])


class TestWorkerFailures:
    """A scenario whose worker crashes or hangs must fail the check."""

    def test_worker_exception_is_reraised_by_join(self, monkeypatch):
        def crash() -> None:
            raise RuntimeError("worker blew up")

        def scenario(monitor: RaceMonitor) -> None:
            monitor.join(monitor.spawn(crash, name="crash"))

        monitor = _monitor()
        with pytest.raises(RuntimeError, match="worker blew up"):
            scenario(monitor)
        monkeypatch.setitem(SCENARIOS, "crashing", scenario)
        with pytest.raises(RuntimeError, match="worker blew up"):
            run_race_check(["crashing"])

    def test_join_timeout_raises_and_records_no_edge(self, monkeypatch):
        release = threading.Event()

        def scenario(monitor: RaceMonitor) -> None:
            thread = monitor.spawn(release.wait, 5, name="stuck")
            try:
                monitor.join(thread, timeout=0.05)
            finally:
                assert thread.ident not in monitor._joined
                release.set()
                thread.join(5)

        monitor = _monitor()
        with pytest.raises(RuntimeError, match="still running"):
            scenario(monitor)
        release.clear()
        monkeypatch.setitem(SCENARIOS, "hanging", scenario)
        with pytest.raises(RuntimeError, match="still running"):
            run_race_check(["hanging"])
