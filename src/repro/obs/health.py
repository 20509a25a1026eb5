"""Per-shard health verdicts: SLO thresholds over the fleet's signals.

ROADMAP item 3's load shedder needs a *decision-grade* signal per shard
— not forty raw counters, but "shard 2 is red because its p95 blew the
latency SLO and its WAL is 5k records deep".  This module rolls the
signals the sharded catalog already measures into exactly that:

* :class:`SLOPolicy` — the thresholds.  Each signal has a yellow and a
  red bound; everything is a plain number so a deployment can tune the
  policy without touching code.
* :class:`HealthMonitor` — reads a live catalog (histograms from its
  metrics registry, WAL depth / replay failures / cold-row backlog
  from :meth:`~repro.shard.sharded.ShardedCatalog.health_signals`) and
  grades every shard.
* :class:`ShardHealth` / :class:`HealthReport` — the verdicts, with the
  *reasons* (which signal crossed which bound) attached, because a
  verdict you cannot explain is an alert nobody trusts.

Verdicts are the closed ordered set ``green < yellow < red``.  A shard
with no traffic grades on its non-latency signals only — "no data" is
not an incident.  The monitor also writes the verdicts back into the
catalog's registry as ``health.*`` gauges, so the unified exposition
carries them, and emits a ``health.verdict`` event for every non-green
shard so degradation lands in the same timeline as its likely causes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ObservabilityError

#: Verdicts in severity order; index = numeric severity (gauge value).
VERDICTS: Tuple[str, ...] = ("green", "yellow", "red")


def verdict_rank(verdict: str) -> int:
    """Numeric severity of a verdict (0 green, 1 yellow, 2 red)."""
    try:
        return VERDICTS.index(verdict)
    except ValueError:
        raise ObservabilityError(f"unknown health verdict {verdict!r}")


@dataclass(frozen=True)
class SLOPolicy:
    """Yellow/red thresholds for every graded per-shard signal.

    Defaults are sized for the repo's test corpora (milliseconds-scale
    queries, hundreds of WAL records); a real deployment tunes them.
    A signal goes yellow at ``>= *_yellow`` and red at ``>= *_red``.
    """

    #: Per-shard query latency (seconds, p95 of ``shard_seconds.sNN``).
    latency_p95_yellow: float = 0.050
    latency_p95_red: float = 0.250
    #: Fraction of shard query wall time spent waiting on the lock.
    lock_wait_fraction_yellow: float = 0.25
    lock_wait_fraction_red: float = 0.60
    #: Cumulative shard busy seconds below which the lock-wait fraction
    #: is not graded.  A ratio needs a meaningful denominator: under
    #: this floor the "wait" is the fixed cost of acquiring an
    #: uncontended lock around microsecond queries, not contention.
    lock_wait_min_busy_seconds: float = 0.010
    #: Unreplayed WAL records addressed to the shard.
    wal_depth_yellow: int = 256
    wal_depth_red: int = 4096
    #: WAL records the replayer had to skip as rejected (ever, per open).
    replay_failures_yellow: int = 1
    replay_failures_red: int = 16
    #: Edited images whose memo row is not valid (what a cold read sweeps).
    backlog_yellow: int = 512
    backlog_red: int = 4096
    #: Work units per query (p95 of ``shard_work_units.sNN``).
    work_units_p95_yellow: float = 200_000.0
    work_units_p95_red: float = 2_000_000.0

    def __post_init__(self) -> None:
        for name in (
            "latency_p95", "lock_wait_fraction", "wal_depth",
            "replay_failures", "backlog", "work_units_p95",
        ):
            yellow = getattr(self, f"{name}_yellow")
            red = getattr(self, f"{name}_red")
            if yellow < 0 or red < 0:
                raise ObservabilityError(
                    f"SLO thresholds must be non-negative: {name}"
                )
            if red < yellow:
                raise ObservabilityError(
                    f"SLO red threshold below yellow for {name}: "
                    f"{red} < {yellow}"
                )
        if self.lock_wait_min_busy_seconds < 0:
            raise ObservabilityError(
                "SLO thresholds must be non-negative: "
                "lock_wait_min_busy_seconds"
            )

    def to_dict(self) -> Dict[str, float]:
        return {
            name: getattr(self, name)
            for name in sorted(self.__dataclass_fields__)
        }


@dataclass(frozen=True)
class ShardHealth:
    """One shard's verdict plus the signals and reasons behind it."""

    shard: int
    verdict: str
    reasons: Tuple[str, ...]
    signals: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shard": self.shard,
            "verdict": self.verdict,
            "reasons": list(self.reasons),
            "signals": {key: self.signals[key] for key in sorted(self.signals)},
        }


@dataclass(frozen=True)
class HealthReport:
    """The fleet verdict: per-shard healths rolled up to the worst."""

    verdict: str
    shards: Tuple[ShardHealth, ...]
    policy: SLOPolicy

    def shard(self, index: int) -> ShardHealth:
        for health in self.shards:
            if health.shard == index:
                return health
        raise ObservabilityError(f"no health entry for shard {index}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "verdict": self.verdict,
            "shards": [health.to_dict() for health in self.shards],
            "policy": self.policy.to_dict(),
        }

    def describe(self) -> str:
        lines = [f"fleet health: {self.verdict}"]
        for health in self.shards:
            reason = "; ".join(health.reasons) if health.reasons else "ok"
            lines.append(
                f"  shard {health.shard}: {health.verdict} ({reason})"
            )
        return "\n".join(lines)


class HealthMonitor:
    """Grades a :class:`~repro.shard.sharded.ShardedCatalog` against SLOs.

    The catalog is duck-typed: anything with ``metrics_snapshot()``,
    ``health_signals()``, a ``metrics`` registry, and an ``events`` log
    can be monitored (which is what will let ROADMAP item 3's service
    processes reuse this unchanged).
    """

    def __init__(self, catalog: Any, policy: Optional[SLOPolicy] = None) -> None:
        self.catalog = catalog
        self.policy = policy if policy is not None else SLOPolicy()

    # ------------------------------------------------------------------
    def report(self, record: bool = True) -> HealthReport:
        """Grade every shard now.

        With ``record`` (the default) the verdicts are also written to
        the catalog registry as ``health.*`` gauges and any non-green
        shard emits a ``health.verdict`` event.
        """
        snapshot = self.catalog.metrics_snapshot()
        histograms: Dict[str, Dict[str, Any]] = snapshot.get("histograms", {})
        shards: List[ShardHealth] = []
        for raw in self.catalog.health_signals():
            shards.append(self._grade_shard(raw, histograms))
        worst = max(
            (verdict_rank(health.verdict) for health in shards), default=0
        )
        report = HealthReport(
            verdict=VERDICTS[worst], shards=tuple(shards), policy=self.policy
        )
        if record:
            self._record(report)
        return report

    # ------------------------------------------------------------------
    def _grade_shard(
        self, raw: Dict[str, Any], histograms: Dict[str, Dict[str, Any]]
    ) -> ShardHealth:
        index = int(raw["shard"])
        key = f"s{index:02d}"
        latency = histograms.get(f"shard_seconds.{key}", {})
        lock_wait = histograms.get(f"shard_lock_wait_seconds.{key}", {})
        work_units = histograms.get(f"shard_work_units.{key}", {})

        latency_p95 = float(latency.get("p95", 0.0))
        latency_count = int(latency.get("count", 0))
        busy = float(latency.get("total", 0.0))
        waiting = float(lock_wait.get("total", 0.0))
        lock_fraction = (waiting / busy) if busy > 0 else 0.0
        wu_p95 = float(work_units.get("p95", 0.0))

        signals: Dict[str, Any] = {
            "latency_p95": latency_p95,
            "latency_count": latency_count,
            "lock_wait_fraction": lock_fraction,
            "work_units_p95": wu_p95,
            "wal_depth": int(raw.get("wal_depth", 0)),
            "replay_failures": int(raw.get("replay_failures", 0)),
            "backlog": int(raw.get("backlog", 0)),
            "queries_served": int(raw.get("queries_served", 0)),
            "last_lsn": raw.get("last_lsn"),
        }

        reasons: List[str] = []
        severity = 0
        pol = self.policy
        # Latency signals only grade once the shard has served queries —
        # an idle shard is unknown, not unhealthy.
        if latency_count > 0:
            severity = max(severity, self._grade(
                "latency_p95", latency_p95,
                pol.latency_p95_yellow, pol.latency_p95_red, reasons,
                unit="s",
            ))
            if busy >= pol.lock_wait_min_busy_seconds:
                severity = max(severity, self._grade(
                    "lock_wait_fraction", lock_fraction,
                    pol.lock_wait_fraction_yellow,
                    pol.lock_wait_fraction_red,
                    reasons,
                ))
            severity = max(severity, self._grade(
                "work_units_p95", wu_p95,
                pol.work_units_p95_yellow, pol.work_units_p95_red, reasons,
            ))
        severity = max(severity, self._grade(
            "wal_depth", signals["wal_depth"],
            pol.wal_depth_yellow, pol.wal_depth_red, reasons,
        ))
        severity = max(severity, self._grade(
            "replay_failures", signals["replay_failures"],
            pol.replay_failures_yellow, pol.replay_failures_red, reasons,
        ))
        severity = max(severity, self._grade(
            "backlog", signals["backlog"],
            pol.backlog_yellow, pol.backlog_red, reasons,
        ))
        return ShardHealth(
            shard=index,
            verdict=VERDICTS[severity],
            reasons=tuple(reasons),
            signals=signals,
        )

    @staticmethod
    def _grade(
        name: str,
        value: float,
        yellow: float,
        red: float,
        reasons: List[str],
        unit: str = "",
    ) -> int:
        if value >= red:
            reasons.append(f"{name}={value:g}{unit} >= red {red:g}{unit}")
            return 2
        if value >= yellow:
            reasons.append(f"{name}={value:g}{unit} >= yellow {yellow:g}{unit}")
            return 1
        return 0

    def _record(self, report: HealthReport) -> None:
        metrics = getattr(self.catalog, "metrics", None)
        if metrics is not None:
            metrics.set_gauge("health.worst", float(verdict_rank(report.verdict)))
            for health in report.shards:
                metrics.set_gauge(
                    f"health.shard.s{health.shard:02d}",
                    float(verdict_rank(health.verdict)),
                )
        events = getattr(self.catalog, "events", None)
        if events is not None:
            for health in report.shards:
                if health.verdict == "green":
                    continue
                events.emit(
                    "health.verdict",
                    subsystem="health",
                    shard=health.shard,
                    verdict=health.verdict,
                    reasons="; ".join(health.reasons),
                )
