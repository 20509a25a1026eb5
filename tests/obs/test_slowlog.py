"""Slow-query log: threshold gating, ring bounds, snapshots."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import SlowQueryLog


def make_log(**kwargs):
    kwargs.setdefault("wall_clock", lambda: 1234.5)
    return SlowQueryLog(**kwargs)


class TestGating:
    def test_disabled_by_default_records_nothing(self):
        log = make_log()
        assert not log.enabled
        assert log.observe(["q"], 99.0, ["bwm"], False) is None
        assert len(log) == 0

    def test_threshold_is_inclusive(self):
        log = make_log(threshold=0.5)
        assert log.should_record(0.5)
        assert not log.should_record(0.4999)

    def test_observe_freezes_the_entry(self):
        log = make_log(threshold=0.0)
        entry = log.observe(
            ["RangeQuery(...)"], 0.25, ["bwm"], False, trace={"name": "query"}
        )
        assert entry.seconds == 0.25
        assert entry.strategies == ("bwm",)
        assert entry.recorded_at == 1234.5
        assert entry.trace == {"name": "query"}
        assert log.snapshot() == [entry]


class TestRing:
    def test_capacity_bounds_retention_not_the_count(self):
        log = make_log(capacity=3, threshold=0.0)
        for index in range(10):
            log.observe([f"q{index}"], 1.0, ["bwm"], False)
        assert len(log) == 3
        assert log.recorded == 10
        retained = [entry.constraints[0] for entry in log.snapshot()]
        assert retained == ["'q7'", "'q8'", "'q9'"]

    def test_clear_reports_dropped(self):
        log = make_log(capacity=4, threshold=0.0)
        for index in range(2):
            log.observe([f"q{index}"], 1.0, ["bwm"], False)
        assert log.clear() == 2
        assert len(log) == 0
        assert log.recorded == 2  # lifetime counter survives

    def test_stats_are_json_scalars(self):
        log = make_log(capacity=8, threshold=0.01)
        log.observe(["q"], 0.5, ["bwm"], True)
        assert log.stats() == {
            "recorded": 1,
            "retained": 1,
            "capacity": 8,
            "threshold_seconds": 0.01,
        }

    def test_disabled_threshold_sentinel(self):
        assert make_log().stats()["threshold_seconds"] == -1.0


class TestValidationAndDescribe:
    def test_bad_capacity_rejected(self):
        with pytest.raises(ObservabilityError):
            make_log(capacity=0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ObservabilityError):
            make_log(threshold=-1.0)

    def test_describe_empty_and_populated(self):
        log = make_log(threshold=0.0)
        assert "empty" in log.describe()
        log.observe(["'q'"], 0.002, ["vectorized_batch"], False)
        text = log.describe()
        assert "1 retained" in text
        assert "vectorized_batch" in text

    def test_to_dict_round_trips_through_json(self):
        import json

        log = make_log(threshold=0.0)
        entry = log.observe(["'q'"], 0.002, ["bwm"], False)
        assert json.loads(json.dumps(entry.to_dict()))["seconds"] == 0.002


class TestConcurrency:
    def test_concurrent_writers_drop_nothing_and_keep_entries_frozen(self):
        import threading

        log = SlowQueryLog(capacity=4096, threshold=0.0)
        workers, per_worker = 8, 50
        barrier = threading.Barrier(workers)
        errors = []

        def pound(worker):
            try:
                barrier.wait()
                for index in range(per_worker):
                    entry = log.observe(
                        [f"q-{worker}-{index}"],
                        worker + index / 1000.0,
                        ["bwm"],
                        False,
                    )
                    assert entry is not None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=pound, args=(w,))
            for w in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        entries = log.snapshot()
        assert len(entries) == workers * per_worker
        assert log.stats()["recorded"] == workers * per_worker
        seen = {entry.constraints[0] for entry in entries}
        assert len(seen) == workers * per_worker

    def test_concurrent_writers_respect_ring_capacity(self):
        import threading

        log = SlowQueryLog(capacity=16, threshold=0.0)
        threads = [
            threading.Thread(
                target=lambda: [
                    log.observe(["q"], 0.01, ["bwm"], False)
                    for _ in range(100)
                ]
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(log.snapshot()) == 16
        assert log.stats()["recorded"] == 400
