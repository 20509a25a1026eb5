"""Tests for the lock-order check (CC001) of ``repro race-check``.

Every acquisition of an instrumented lock adds an edge from each lock
the thread already holds; cycles are potential deadlocks.  The seeded
fixtures take :class:`TrackedLock` pairs in chosen orders on threads
that run one after the other, so no schedule can actually deadlock —
the point of the check is that it needs none to.  The shipped scenarios
get their own "must be clean" and "must not be vacuous" tests at the
end (the acceptance gate for ``repro race-check``).
"""

import threading

import numpy as np
import pytest

from repro.analysis import AnalysisReport
from repro.analysis.findings import Severity
from repro.color.names import FLAG_PALETTE
from repro.images.generators import random_palette_image
from repro.shard import ShardedCatalog
from repro.testing.racecheck import (
    RaceMonitor,
    TrackedLock,
    instrument_sharded,
    lock_class,
    run_race_check,
)

#: The lock-class edges the shipped scenarios must keep observing: every
#: real edge of the static lock graph this check replaced (its three
#: edges into the checker's own guard excluded).
SHIPPED_CLASS_EDGES = {
    ("BoundsEngine._memo_lock", "OpTableManager._lock"),
    ("QueryService._index_lock", "BoundsEngine._memo_lock"),
    ("QueryService._index_lock", "MetricsRegistry._lock"),
    ("QueryService._index_lock", "OpTableManager._lock"),
    ("db.root_lock", "BoundsEngine._memo_lock"),
    ("service.rwlock", "BoundsEngine._memo_lock"),
    ("service.rwlock", "EventLog._lock"),
    ("service.rwlock", "MetricsRegistry._lock"),
    ("service.rwlock", "OpTableManager._lock"),
    ("service.rwlock", "QueryService._index_lock"),
    ("service.rwlock", "ResultCache._lock"),
    ("service.rwlock", "SlowQueryLog._lock"),
    ("shard.rwlock", "BoundsEngine._memo_lock"),
    ("shard.rwlock", "EventLog._lock"),
    ("shard.rwlock", "MetricsRegistry._lock"),
    ("shard.rwlock", "OpTableManager._lock"),
    ("shard.rwlock", "ShardWAL._lock"),
    ("shard.rwlock", "ShardedCatalog._alloc_lock"),
    ("shard.rwlock", "db.root_lock"),
    ("shard.rwlock", "persistence._ROOT_LOCKS_GUARD"),
    ("shard.rwlock", "shard.rwlock"),
    ("shard.rwlock", "shard.stats_lock"),
}


def _monitor() -> RaceMonitor:
    monitor = RaceMonitor()
    monitor._names[threading.get_ident()] = "main"
    return monitor


def _run(monitor: RaceMonitor, *workers) -> AnalysisReport:
    """Run ``workers`` one after another, each on its own thread."""
    for index, worker in enumerate(workers):
        monitor.join(monitor.spawn(worker, name=f"worker-{index}"))
    report = AnalysisReport(pass_name="racecheck")
    monitor.extend_report(report)
    return report


class _Pair:
    def __init__(self, monitor: RaceMonitor) -> None:
        self._front_lock = TrackedLock(
            threading.Lock(), "Pair._front_lock", monitor
        )
        self._back_lock = TrackedLock(threading.Lock(), "Pair._back_lock", monitor)

    def forward(self) -> None:
        with self._front_lock:
            with self._back_lock:
                pass

    def backward(self) -> None:
        with self._back_lock:
            with self._front_lock:
                pass

    def _take_back(self) -> None:
        with self._back_lock:
            pass

    def _take_front(self) -> None:
        with self._front_lock:
            pass

    def forward_via_call(self) -> None:
        with self._front_lock:
            self._take_back()

    def backward_via_call(self) -> None:
        with self._back_lock:
            self._take_front()


class _Nested:
    def __init__(self, monitor: RaceMonitor, inner_lock) -> None:
        self._nest_lock = TrackedLock(inner_lock, "Nested._nest_lock", monitor)

    def outer(self) -> None:
        with self._nest_lock:
            self.inner()

    def inner(self) -> None:
        with self._nest_lock:
            pass


class TestCycleDetection:
    def test_opposite_direct_orders_are_a_cycle(self):
        monitor = _monitor()
        pair = _Pair(monitor)
        report = _run(monitor, pair.forward, pair.backward)
        assert [f.code for f in report] == ["CC001"]
        finding = report.findings[0]
        assert finding.severity is Severity.ERROR
        assert finding.details["cycle"] == ["Pair._back_lock", "Pair._front_lock"]
        sites = finding.details["sites"]
        assert {(s["holding"], s["acquiring"]) for s in sites} == {
            ("Pair._front_lock", "Pair._back_lock"),
            ("Pair._back_lock", "Pair._front_lock"),
        }
        # Each edge names the line that took its second lock.
        assert all(s["site"].startswith(__file__ + ":") for s in sites)

    def test_interprocedural_cycle_via_self_calls(self):
        # Neither method nests two with-statements; the cycle only
        # exists across the calls, which a dynamic check follows for free.
        monitor = _monitor()
        pair = _Pair(monitor)
        report = _run(monitor, pair.forward_via_call, pair.backward_via_call)
        assert [f.code for f in report] == ["CC001"]
        assert set(report.findings[0].details["cycle"]) == {
            "Pair._front_lock",
            "Pair._back_lock",
        }

    def test_consistent_order_is_clean(self):
        monitor = _monitor()
        pair = _Pair(monitor)
        report = _run(monitor, pair.forward, pair.forward_via_call)
        assert report.clean
        assert monitor.lock_edges.keys() == {
            ("Pair._front_lock", "Pair._back_lock")
        }

    def test_mutex_self_reacquire_is_a_self_cycle(self):
        monitor = _monitor()
        nested = _Nested(monitor, threading.Lock())
        # Raises instead of hanging: the inner acquire would block for ever.
        with pytest.raises(RuntimeError, match="re-acquired"):
            nested.outer()
        report = AnalysisReport(pass_name="racecheck")
        monitor.extend_report(report)
        assert [f.code for f in report] == ["CC001"]
        assert report.findings[0].details["cycle"] == ["Nested._nest_lock"]
        assert "re-acquired" in report.findings[0].message
        # The outer hold was released on the way out.
        nested.inner()

    def test_rlock_self_reacquire_is_permitted(self):
        # Identical shape, but the lock is reentrant: no finding.
        monitor = _monitor()
        nested = _Nested(monitor, threading.RLock())
        report = _run(monitor, nested.outer)
        assert report.clean
        assert monitor.lock_edges == {}


class TestRuleFilterAndGraph:
    def test_graph_is_deterministic(self):
        def seeded() -> dict:
            monitor = _monitor()
            pair = _Pair(monitor)
            report = _run(monitor, pair.forward, pair.backward_via_call)
            return report.to_dict()

        first, second = seeded(), seeded()
        assert first == second
        assert first["counts"] == {"CC001": 1}


class TestShippedTree:
    def test_shipped_tree_is_clean(self):
        report = run_race_check()
        assert report.clean, report.describe()
        assert not report.by_code("CC001")

    def test_shipped_graph_is_not_vacuous(self):
        # Zero CC001 findings must mean "the orders are consistent", not
        # "no nested acquisition was observed": the scenarios must keep
        # exercising every lock order the service and shard tiers have.
        report = run_race_check()
        observed = set(report.class_edges())
        assert SHIPPED_CLASS_EDGES <= observed, sorted(
            SHIPPED_CLASS_EDGES - observed
        )
        assert report.to_dict()["class_edges"]

    def test_four_shard_save_orders_shard_locks_by_index(self, tmp_path):
        # The save pins every shard lock in index order: acyclic at
        # instance level, so it needs no exemption.
        monitor = _monitor()
        catalog = ShardedCatalog(4, root=tmp_path / "root")
        rng = np.random.default_rng(3)
        for _ in range(8):
            catalog.insert_image(random_palette_image(rng, 6, 6, FLAG_PALETTE))
        instrument_sharded(catalog, monitor)
        catalog.save()
        catalog.close()
        report = AnalysisReport(pass_name="racecheck")
        monitor.extend_report(report)
        assert report.clean, report.describe()
        shard_pairs = {
            (int(a[6:-8]), int(b[6:-8]))
            for a, b in monitor.lock_edges
            if lock_class(a) == lock_class(b) == "shard.rwlock"
        }
        assert shard_pairs == {(i, j) for i in range(4) for j in range(i + 1, 4)}
