"""The service's query log: one ``query`` event per read in the service's
event ring, and ``QueryService.slow_queries`` as a filtered read of it.

Latency runs on a fake clock that only the patched ``range_query``
advances, so a read takes exactly the seconds the test hands it.
"""

import dataclasses
import json
import sys
import threading

import pytest

from repro.core.query import RangeQuery
from repro.db.persistence import save_database
from repro.errors import ObservabilityError, ServiceError
from repro.obs import EventLog, tracing, validate_event_dict
from repro.service import QueryService


class StepClock:
    """A monotonic clock that moves only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_service(database, durations=(), **log_kwargs):
    """A one-worker service whose n-th uncached read takes
    ``durations[n]`` seconds (0 once they run out)."""
    clock = StepClock()
    pending = list(durations)
    original = database.range_query

    def timed_range_query(*args, **kwargs):
        clock.now += pending.pop(0) if pending else 0.0
        return original(*args, **kwargs)

    database.range_query = timed_range_query
    log_kwargs.setdefault("wall_clock", lambda: 1234.5)
    return QueryService(
        database, max_workers=1, clock=clock, event_log=EventLog(**log_kwargs)
    )


def query(index: int) -> RangeQuery:
    """A distinct constraint per index, so every read misses the cache."""
    return RangeQuery(index % 64, 0.0, 0.5 + index / 1000.0)


class TestGating:
    def test_threshold_is_inclusive(self, small_database):
        with make_service(small_database, durations=[0.5, 0.4999]) as service:
            service.execute(query(0))
            service.execute(query(1))
            assert [e.detail["seconds"] for e in service.slow_queries(0.5)] == [0.5]
            assert len(service.slow_queries(0.4999)) == 2

    def test_observe_freezes_the_entry(self, small_database):
        with make_service(small_database, durations=[0.25]) as service:
            with tracing():
                outcome = service.execute(query(0))
            (entry,) = service.slow_queries()
            assert entry.kind == "query" and entry.subsystem == "service"
            assert entry.detail == {
                "seconds": 0.25,
                "cache_hit": False,
                "strategies": ["vectorized_batch"],
                "constraints": [repr(query(0))],
            }
            assert entry.ts == 1234.5
            # The span tree stays on the result; the event carries its id.
            assert entry.trace_id == outcome.trace.attributes["trace_id"]
            with pytest.raises(dataclasses.FrozenInstanceError):
                entry.seq = 0


class TestRing:
    def test_capacity_bounds_retention_not_the_count(self, small_database):
        with make_service(small_database, capacity=3) as service:
            for index in range(10):
                service.execute(query(index))
            retained = service.slow_queries()
            assert len(retained) == 3
            assert service.events.stats()["emitted"] == 10
            assert [e.detail["constraints"] for e in retained] == [
                [repr(query(index))] for index in (7, 8, 9)
            ]

    def test_stats_are_json_scalars(self, small_database):
        with make_service(small_database, capacity=8) as service:
            service.execute(query(0))
            stats = service.metrics_snapshot()["events"]
            assert stats == {
                "capacity": 8,
                "emitted": 1,
                "enabled": 1,
                "retained": 1,
            }
            assert json.loads(json.dumps(stats)) == stats


class TestValidationAndDescribe:
    def test_bad_capacity_rejected(self, small_database):
        with pytest.raises(ObservabilityError):
            make_service(small_database, capacity=0)

    def test_negative_threshold_rejected(self, small_database):
        with make_service(small_database) as service:
            with pytest.raises(ServiceError):
                service.slow_queries(-1.0)

    def test_describe_empty_and_populated(self, small_database, tmp_path):
        from tests.test_cli import run_cli

        directory = tmp_path / "db"
        save_database(small_database, directory)
        code, output = run_cli(
            "serve-stats", str(directory), "--queries", "3",
            "--slow", "--slow-threshold", "3600",
        )
        assert code == 0
        assert "slow queries: 0 at or over 3600.0s" in output
        code, output = run_cli(
            "serve-stats", str(directory), "--queries", "3", "--slow",
        )
        assert code == 0
        assert "slow queries: 3 at or over 0.0s" in output
        assert output.count(" query ") == 3
        assert "vectorized_batch" in output

    def test_to_dict_round_trips_through_json(self, small_database):
        with make_service(small_database, durations=[0.002]) as service:
            service.execute(query(0))
            payload = json.loads(json.dumps(service.slow_queries()[0].to_dict()))
            assert validate_event_dict(payload) == []
            assert payload["detail"]["seconds"] == 0.002


class TestConcurrency:
    def test_concurrent_writers_drop_nothing_and_keep_entries_frozen(
        self, small_database
    ):
        workers, per_worker = 8, 50
        barrier = threading.Barrier(workers)
        errors = []
        service = QueryService(
            small_database, max_workers=4, event_log=EventLog(capacity=4096)
        )

        def pound(worker):
            try:
                barrier.wait()
                for index in range(per_worker):
                    service.execute(query(worker * per_worker + index))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=pound, args=(w,)) for w in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with service:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        entries = service.slow_queries()
        assert len(entries) == workers * per_worker
        assert service.events.stats()["emitted"] == workers * per_worker
        assert len({e.seq for e in entries}) == workers * per_worker
        seen = {e.detail["constraints"][0] for e in entries}
        assert len(seen) == workers * per_worker

    def test_concurrent_writers_respect_ring_capacity(self, small_database):
        service = QueryService(
            small_database, max_workers=4, event_log=EventLog(capacity=16)
        )
        threads = [
            threading.Thread(
                target=lambda: [service.execute(query(0)) for _ in range(100)]
            )
            for _ in range(4)
        ]
        with service:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert len(service.slow_queries()) == 16
            assert service.events.stats()["emitted"] == 400


class TestOneEventPerRead:
    def test_hits_misses_and_submits_each_record_one_event(self, small_database):
        with make_service(small_database) as service:
            service.execute(query(0))
            service.execute(query(0))
            service.submit(query(1)).result()
            service.explain_analyze(query(2))  # a diagnostic, not a read
            assert [e.detail["cache_hit"] for e in service.slow_queries()] == [
                False,
                True,
                False,
            ]
            assert service.metrics.counter("queries_total") == 3
