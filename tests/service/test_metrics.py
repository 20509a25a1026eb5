"""Metrics: nearest-rank percentiles, histograms, registry, thread safety."""

import threading

import pytest

from repro.errors import ServiceError
from repro.service import LatencyHistogram, MetricsRegistry, percentile


class TestPercentile:
    def test_nearest_rank_on_a_hundred(self):
        values = list(range(1, 101))
        assert percentile(values, 0.50) == 50
        assert percentile(values, 0.95) == 95
        assert percentile(values, 0.99) == 99
        assert percentile(values, 1.00) == 100

    def test_single_observation_is_every_percentile(self):
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.99) == 7.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ServiceError):
            percentile([], 0.5)

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
    def test_bad_fraction_rejected(self, fraction):
        with pytest.raises(ServiceError):
            percentile([1.0], fraction)


class TestLatencyHistogram:
    def test_exact_aggregates(self):
        histogram = LatencyHistogram()
        for value in (3.0, 1.0, 2.0):
            histogram.record(value)
        snap = histogram.snapshot()
        assert snap.count == 3
        assert snap.total == 6.0
        assert snap.minimum == 1.0
        assert snap.maximum == 3.0
        assert snap.mean == 2.0
        assert snap.p50 == 2.0

    def test_empty_snapshot_is_zeroed(self):
        snap = LatencyHistogram().snapshot()
        assert snap.count == 0
        assert snap.mean == 0.0

    def test_reservoir_bounds_percentiles_but_not_aggregates(self):
        """Aggregates stay exact forever; percentiles cover recent samples."""
        histogram = LatencyHistogram(reservoir_size=4)
        for value in range(1, 11):
            histogram.record(float(value))
        snap = histogram.snapshot()
        assert snap.count == 10
        assert snap.total == 55.0
        assert snap.minimum == 1.0
        assert snap.maximum == 10.0
        # Reservoir holds 7..10; nearest-rank p50 of 4 samples is the 2nd.
        assert snap.p50 == 8.0

    def test_zero_reservoir_rejected(self):
        with pytest.raises(ServiceError):
            LatencyHistogram(reservoir_size=0)

    def test_as_dict_shape(self):
        histogram = LatencyHistogram()
        histogram.record(1.0)
        exported = histogram.snapshot().as_dict()
        assert set(exported) == {
            "count", "total", "mean", "min", "max", "p50", "p95", "p99",
        }


class TestLatencyHistogramEdgeCases:
    def test_single_sample_is_every_percentile_and_extreme(self):
        histogram = LatencyHistogram()
        histogram.record(0.125)
        snap = histogram.snapshot()
        assert snap.p50 == snap.p95 == snap.p99 == 0.125
        assert snap.minimum == snap.maximum == snap.mean == 0.125

    def test_reservoir_overflow_is_deterministic(self):
        """Eviction is strictly FIFO: same inputs, same snapshot, always."""
        def build():
            histogram = LatencyHistogram(reservoir_size=8)
            for value in range(100):
                histogram.record(float(value))
            return histogram.snapshot()

        first, second = build(), build()
        assert first == second
        # The reservoir holds exactly the newest 8 samples (92..99).
        assert first.p50 == 95.0
        assert first.p99 == 99.0
        assert first.minimum == 0.0  # aggregates are exact forever

    def test_snapshot_immutable_and_consistent_under_concurrent_record(self):
        """A snapshot taken mid-traffic is frozen and internally sane."""
        histogram = LatencyHistogram(reservoir_size=64)
        histogram.record(1.0)
        stop = threading.Event()

        def writer():
            value = 0
            while not stop.is_set():
                value += 1
                histogram.record(float(value % 7 + 1))

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            snapshots = [histogram.snapshot() for _ in range(200)]
        finally:
            stop.set()
            thread.join(timeout=30)
        for snap in snapshots:
            with pytest.raises(Exception):
                snap.count = 0  # frozen dataclass
            assert snap.count >= 1
            assert snap.minimum <= snap.p50 <= snap.p99 <= snap.maximum
            assert snap.total >= snap.count * snap.minimum


class TestMetricsRegistry:
    def test_counters_created_on_first_use(self):
        registry = MetricsRegistry()
        assert registry.counter("never") == 0
        assert registry.increment("hits") == 1
        assert registry.increment("hits", 4) == 5
        assert registry.counter("hits") == 5

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.increment("queries")
        registry.observe("latency", 0.25)
        snap = registry.snapshot()
        assert snap["counters"] == {"queries": 1}
        assert snap["histograms"]["latency"]["count"] == 1
        assert snap["histograms"]["latency"]["max"] == 0.25

    def test_snapshot_orders_names_deterministically(self):
        registry = MetricsRegistry()
        for name in ("zeta", "alpha", "mid"):
            registry.increment(name)
            registry.observe(f"h.{name}", 1.0)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["alpha", "mid", "zeta"]
        assert list(snap["histograms"]) == ["h.alpha", "h.mid", "h.zeta"]

    def test_observe_many_is_one_observe_per_pair(self):
        one, many = MetricsRegistry(), MetricsRegistry()
        pairs = [("a", 0.5), ("b", 2.0), ("a", 0.25)]
        for name, value in pairs:
            one.observe(name, value)
        many.observe_many(pairs)
        assert many.snapshot() == one.snapshot()
        # A name held by another kind refuses the whole call.
        many.increment("c")
        with pytest.raises(ServiceError):
            many.observe_many([("a", 1.0), ("c", 1.0)])
        assert many.histogram("a").snapshot().count == 2

    def test_concurrent_increments_do_not_lose_updates(self):
        registry = MetricsRegistry()
        threads = [
            threading.Thread(
                target=lambda: [registry.increment("n") for _ in range(1000)]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert registry.counter("n") == 8000

    def test_concurrent_observations_all_counted(self):
        registry = MetricsRegistry()
        threads = [
            threading.Thread(
                target=lambda: [registry.observe("t", 1.0) for _ in range(500)]
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        snap = registry.histogram("t").snapshot()
        assert snap.count == 2000
        assert snap.total == 2000.0
