"""Lock-safe metrics for the serving tiers.

A serving tier is only operable if it can report what it is doing; this
module provides the two primitives the query service and the sharded
catalog need — monotonically increasing **counters** (queries served,
cache hits, queries shed, deadlines missed) and
**latency histograms** with percentile snapshots (p50/p95/p99 of query
seconds).

Everything here is safe to call from any worker thread.  Recording is a
short critical section (one lock per registry); snapshots copy state
under the lock and do the sorting outside it, so a monitoring poller
never stalls the query path for long.

The histogram keeps a bounded reservoir of recent observations: exact
count/total/min/max forever, percentiles over the most recent
``reservoir_size`` samples — the standard trade so a long-lived service
does not grow memory with traffic.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, Tuple, Union

from repro.errors import ServiceError

#: Snapshot value type: counters are ints, histogram fields are floats.
MetricValue = Union[int, float]


def percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted sequence.

    ``fraction`` is in ``(0, 1]`` (0.95 = p95).  Nearest-rank keeps the
    value an actual observation rather than an interpolation, which is
    what operators expect from latency percentiles.
    """
    if not sorted_values:
        raise ServiceError("percentile of an empty sample")
    if not 0.0 < fraction <= 1.0:
        raise ServiceError(f"percentile fraction {fraction} outside (0, 1]")
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return float(sorted_values[rank - 1])


@dataclass(frozen=True)
class HistogramSnapshot:
    """Point-in-time summary of one latency histogram."""

    count: int
    total: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float

    @property
    def mean(self) -> float:
        """Average over *all* recorded values (not just the reservoir)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, MetricValue]:
        """Flat dict for JSON export."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


_EMPTY_SNAPSHOT = HistogramSnapshot(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


class LatencyHistogram:
    """Bounded-memory latency recorder with percentile snapshots."""

    def __init__(self, reservoir_size: int = 2048) -> None:
        if reservoir_size < 1:
            raise ServiceError("reservoir_size must be at least 1")
        # Short critical sections over counters; no catalog access.
        self._lock = threading.Lock()
        self._reservoir: Deque[float] = deque(maxlen=reservoir_size)
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def record(self, value: float) -> None:
        """Record one observation (seconds, but any unit works)."""
        with self._lock:
            self._reservoir.append(float(value))
            self._count += 1
            self._total += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def snapshot(self) -> HistogramSnapshot:
        """Immutable summary; percentiles over the recent reservoir."""
        with self._lock:
            if not self._count:
                return _EMPTY_SNAPSHOT
            sample = sorted(self._reservoir)
            count, total = self._count, self._total
            minimum, maximum = self._min, self._max
        return HistogramSnapshot(
            count=count,
            total=total,
            minimum=minimum,
            maximum=maximum,
            p50=percentile(sample, 0.50),
            p95=percentile(sample, 0.95),
            p99=percentile(sample, 0.99),
        )


class MetricsRegistry:
    """Named counters and latency histograms behind one lock.

    Counters and histograms are created on first use, so callers never
    pre-register names; :meth:`snapshot` returns a plain nested dict
    ready for JSON export or the ``repro serve-stats`` CLI.
    """

    def __init__(self, reservoir_size: int = 2048) -> None:
        # Short critical sections over counters; no catalog access.
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}
        self._kinds: Dict[str, str] = {}
        self._reservoir_size = reservoir_size

    def _claim(self, name: str, kind: str) -> None:
        """Reserve ``name`` for one metric kind (caller holds the lock).

        A name used as both, say, a counter and a gauge would render as
        two exposition families with the same name and conflicting
        types — exactly the scrape-breaking shape
        :func:`repro.obs.prometheus.validate_exposition` rejects — so
        the registry refuses it at record time, where the stack trace
        still points at the offender.
        """
        held = self._kinds.get(name)
        if held is None:
            self._kinds[name] = kind
        elif held != kind:
            raise ServiceError(
                f"metric {name!r} is already registered as a {held}; "
                f"cannot reuse it as a {kind}"
            )

    def increment(self, name: str, amount: int = 1) -> int:
        """Add ``amount`` to a counter; returns the new value."""
        with self._lock:
            self._claim(name, "counter")
            value = self._counters.get(name, 0) + amount
            self._counters[name] = value
            return value

    def counter(self, name: str) -> int:
        """Current counter value (0 for a never-incremented name)."""
        with self._lock:
            return self._counters.get(name, 0)

    def set_gauge(self, name: str, value: float) -> None:
        """Set a gauge — a value that can go up *or* down (worst health
        verdict, materialized images).  Unlike counters, a gauge
        reports its last-set value, not a running total."""
        with self._lock:
            self._claim(name, "gauge")
            self._gauges[name] = float(value)

    def gauge(self, name: str, default: float = 0.0) -> float:
        """Current gauge value (``default`` for a never-set name)."""
        with self._lock:
            return self._gauges.get(name, default)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into a named histogram."""
        self.histogram(name).record(value)

    def observe_many(self, observations: Iterable[Tuple[str, float]]) -> None:
        """Record ``(name, value)`` observations, taking the registry
        lock once for all of their histograms."""
        with self._lock:
            found = [(self._histogram(name), value) for name, value in observations]
        for histogram, value in found:
            histogram.record(value)

    def observations(self, name: str) -> int:
        """How many values histogram ``name`` recorded (0 for a
        never-observed name, which this does not create)."""
        with self._lock:
            histogram = self._histograms.get(name)
        return histogram._count if histogram is not None else 0

    def histogram(self, name: str) -> LatencyHistogram:
        """The named histogram, created on first use."""
        with self._lock:
            return self._histogram(name)

    def _histogram(self, name: str) -> LatencyHistogram:
        """:meth:`histogram` for a caller holding the lock."""
        histogram = self._histograms.get(name)
        if histogram is None:
            self._claim(name, "histogram")
            histogram = LatencyHistogram(self._reservoir_size)
            self._histograms[name] = histogram
        return histogram

    def snapshot(self) -> Dict[str, Dict[str, MetricValue]]:
        """``{"counters": {...}, "histograms": {name: {...}}}``.

        A ``"gauges"`` table is included only when at least one gauge
        has been set, so snapshots from gauge-free services (the common
        case) keep their historical shape.  Every inner dict is
        key-sorted so serialized snapshots are byte-for-byte
        deterministic regardless of creation order.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        snapshot: Dict[str, Dict[str, MetricValue]] = {
            "counters": {name: counters[name] for name in sorted(counters)},
            "histograms": {
                name: histograms[name].snapshot().as_dict()
                for name in sorted(histograms)
            },
        }
        if gauges:
            snapshot["gauges"] = {name: gauges[name] for name in sorted(gauges)}
        return snapshot
