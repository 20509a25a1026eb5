"""SLO grading: thresholds, idle shards, rollups, recorded verdicts."""

import pytest

from repro.errors import ObservabilityError
from repro.obs.events import EventLog
from repro.obs.health import (
    VERDICTS,
    HealthMonitor,
    SLOPolicy,
    verdict_rank,
)
from repro.service import MetricsRegistry


class FakeCatalog:
    """The duck-typed surface HealthMonitor grades: metrics + signals."""

    def __init__(self, signals, histograms=None):
        self._signals = signals
        self._histograms = histograms or {}
        self.metrics = MetricsRegistry()
        self.events = EventLog(capacity=64)

    def metrics_snapshot(self):
        return {"counters": {}, "histograms": dict(self._histograms)}

    def health_signals(self):
        return [dict(raw) for raw in self._signals]


def idle_shard(index=0, **overrides):
    raw = {
        "shard": index, "queries_served": 0, "replay_failures": 0,
        "wal_depth": 0, "backlog": 0, "materialized": 0, "last_lsn": None,
    }
    raw.update(overrides)
    return raw


def latency_histogram(p95, count=10, total=None, **extra):
    data = {
        "count": count, "total": total if total is not None else p95 * count,
        "mean": p95, "min": p95, "max": p95, "p50": p95, "p95": p95,
        "p99": p95,
    }
    data.update(extra)
    return data


class TestPolicy:
    def test_defaults_validate(self):
        SLOPolicy()

    def test_red_below_yellow_rejected(self):
        with pytest.raises(ObservabilityError, match="red threshold below"):
            SLOPolicy(wal_depth_yellow=100, wal_depth_red=10)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ObservabilityError, match="non-negative"):
            SLOPolicy(backlog_yellow=-1)

    def test_verdict_rank_total_order(self):
        assert [verdict_rank(v) for v in VERDICTS] == [0, 1, 2]
        with pytest.raises(ObservabilityError, match="unknown health verdict"):
            verdict_rank("fuchsia")


class TestGrading:
    def test_healthy_idle_fleet_is_green(self):
        catalog = FakeCatalog([idle_shard(0), idle_shard(1)])
        report = HealthMonitor(catalog).report(record=False)
        assert report.verdict == "green"
        assert all(h.verdict == "green" for h in report.shards)
        assert all(h.reasons == () for h in report.shards)

    def test_idle_shard_skips_latency_signals(self):
        # p95 would be red, but with zero served queries the histogram is
        # stale/empty: no data is not an incident.
        catalog = FakeCatalog(
            [idle_shard(0)],
            {"shard_seconds.s00": latency_histogram(9.9, count=0, total=0.0)},
        )
        assert HealthMonitor(catalog).report(record=False).verdict == "green"

    def test_latency_p95_grades_yellow_then_red(self):
        policy = SLOPolicy(latency_p95_yellow=0.010, latency_p95_red=0.100)
        for p95, expected in ((0.005, "green"), (0.010, "yellow"),
                              (0.500, "red")):
            catalog = FakeCatalog(
                [idle_shard(0, queries_served=5)],
                {"shard_seconds.s00": latency_histogram(p95)},
            )
            report = HealthMonitor(catalog, policy).report(record=False)
            assert report.shard(0).verdict == expected, p95

    def test_lock_wait_fraction_grades(self):
        catalog = FakeCatalog(
            [idle_shard(0, queries_served=5)],
            {
                "shard_seconds.s00": latency_histogram(0.001, total=1.0),
                "shard_lock_wait_seconds.s00": latency_histogram(
                    0.001, total=0.7
                ),
            },
        )
        report = HealthMonitor(catalog).report(record=False)
        assert report.shard(0).verdict == "red"
        assert any("lock_wait_fraction" in r for r in report.shard(0).reasons)

    def test_lock_wait_fraction_needs_the_busy_floor(self):
        # 80% lock fraction over 2ms of cumulative busy time is the
        # fixed cost of uncontended acquisition around microsecond
        # queries, not contention: below the floor it is not graded.
        catalog = FakeCatalog(
            [idle_shard(0, queries_served=5)],
            {
                "shard_seconds.s00": latency_histogram(0.0004, total=0.002),
                "shard_lock_wait_seconds.s00": latency_histogram(
                    0.0003, total=0.0016
                ),
            },
        )
        report = HealthMonitor(catalog).report(record=False)
        assert report.shard(0).verdict == "green"
        # The signal itself is still published for the dashboard.
        assert report.shard(0).signals["lock_wait_fraction"] == (
            pytest.approx(0.8)
        )
        # Lowering the floor re-arms the grade on the same histograms.
        eager = SLOPolicy(lock_wait_min_busy_seconds=0.0)
        report = HealthMonitor(catalog, eager).report(record=False)
        assert report.shard(0).verdict == "red"

    def test_negative_busy_floor_rejected(self):
        with pytest.raises(ObservabilityError, match="non-negative"):
            SLOPolicy(lock_wait_min_busy_seconds=-0.1)

    def test_wal_depth_replay_failures_backlog_grade_without_traffic(self):
        policy = SLOPolicy()
        cases = (
            ({"wal_depth": policy.wal_depth_yellow}, "yellow", "wal_depth"),
            ({"replay_failures": policy.replay_failures_red}, "red",
             "replay_failures"),
            ({"backlog": policy.backlog_yellow}, "yellow", "backlog"),
        )
        for overrides, expected, signal in cases:
            catalog = FakeCatalog([idle_shard(0, **overrides)])
            report = HealthMonitor(catalog, policy).report(record=False)
            assert report.shard(0).verdict == expected, overrides
            assert any(signal in r for r in report.shard(0).reasons)

    def test_fleet_verdict_is_the_worst_shard(self):
        catalog = FakeCatalog([
            idle_shard(0),
            idle_shard(1, replay_failures=100),
            idle_shard(2, wal_depth=300),
        ])
        report = HealthMonitor(catalog).report(record=False)
        assert report.verdict == "red"
        assert [h.verdict for h in report.shards] == [
            "green", "red", "yellow",
        ]

    def test_report_to_dict_is_deterministic(self):
        catalog = FakeCatalog([idle_shard(1, wal_depth=256), idle_shard(0)])
        monitor = HealthMonitor(catalog)
        first = monitor.report(record=False).to_dict()
        second = monitor.report(record=False).to_dict()
        assert first == second
        assert "policy" in first and "shards" in first

    def test_describe_mentions_every_shard(self):
        catalog = FakeCatalog([idle_shard(0), idle_shard(1, backlog=9999)])
        text = HealthMonitor(catalog).report(record=False).describe()
        assert "fleet health: red" in text
        assert "shard 0: green" in text
        assert "shard 1: red" in text


class TestRecording:
    def test_record_sets_gauges_and_emits_events_for_non_green(self):
        catalog = FakeCatalog([idle_shard(0), idle_shard(1, wal_depth=500)])
        report = HealthMonitor(catalog).report()
        assert report.verdict == "yellow"
        assert catalog.metrics.gauge("health.worst") == 1.0
        assert catalog.metrics.gauge("health.shard.s00") == 0.0
        assert catalog.metrics.gauge("health.shard.s01") == 1.0
        verdicts = catalog.events.snapshot(kind="health.verdict")
        assert [e.shard for e in verdicts] == [1]
        assert "wal_depth" in verdicts[0].detail["reasons"]

    def test_unknown_shard_lookup_raises(self):
        catalog = FakeCatalog([idle_shard(0)])
        report = HealthMonitor(catalog).report(record=False)
        with pytest.raises(ObservabilityError, match="no health entry"):
            report.shard(5)
