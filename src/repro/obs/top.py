"""``repro top`` — the fleet dashboard, rendered as plain text.

One screen that answers the operator's first four questions in order:
is the fleet healthy (per-shard verdicts with reasons), where is the
load (hottest shards), what was slow recently (the event ring's
``query`` events, with trace ids to pull), and what is the compactor
doing (recent materializations with their cycle's trace id).
Everything renders from a live
:class:`~repro.shard.sharded.ShardedCatalog` — which an on-disk root
becomes the moment ``ShardedCatalog.open`` returns — so the same code
path serves both "attach to the running thing" and "post-mortem a
root".

The functions here are pure renderers over ``(catalog, HealthReport)``;
the CLI owns the loop/interval/JSON concerns.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.health import HealthReport

#: Rows shown in the slow-query and compaction panels.
_PANEL_ROWS = 8


def _table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> List[str]:
    """Fixed-width columns: headers, a rule, one line per row."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(value.ljust(widths[i]) for i, value in enumerate(row)).rstrip()
    lines = [fmt(headers), fmt(["-" * width for width in widths])]
    lines.extend(fmt(row) for row in cells)
    return lines


def _ms(seconds: Any) -> str:
    return f"{float(seconds) * 1e3:.2f}ms"


def top_payload(
    catalog: Any, report: HealthReport, recent: int = _PANEL_ROWS
) -> Dict[str, Any]:
    """The dashboard's data as one JSON-ready dict (``repro top --json``)."""
    status = catalog.status()
    slow = sorted(
        catalog.recent_queries(),
        key=lambda entry: float(entry.get("seconds", 0.0)),
        reverse=True,
    )[:recent]
    compactions = [
        event.to_dict()
        for event in catalog.events.tail(recent, kind="compaction.materialized")
    ]
    return {
        "status": status,
        "health": report.to_dict(),
        "slowest_queries": slow,
        "recent_compactions": compactions,
        "events": catalog.events.stats(),
    }


def render_top(
    catalog: Any,
    report: HealthReport,
    recent: int = _PANEL_ROWS,
    now: Optional[float] = None,
) -> str:
    """Render one dashboard frame as plain text."""
    status = catalog.status()
    stamp = time.strftime(
        "%Y-%m-%d %H:%M:%S", time.localtime(now if now is not None else time.time())
    )
    lines: List[str] = [
        f"repro top — {stamp}",
        f"root: {status['root'] or '<ephemeral>'}  "
        f"shards: {status['shard_count']}  images: {status['images']}  "
        f"wal: {status['wal_entries']} record(s)  "
        f"fleet: {report.verdict.upper()}",
        "",
        "shard health",
    ]

    histograms = catalog.metrics_snapshot().get("histograms", {})
    rows = []
    for health in report.shards:
        signals = health.signals
        key = f"s{health.shard:02d}"
        latency = histograms.get(f"shard_seconds.{key}", {})
        rows.append(
            (
                health.shard,
                health.verdict,
                _ms(latency.get("p50", 0.0)),
                _ms(latency.get("p95", 0.0)),
                f"{float(signals.get('lock_wait_fraction', 0.0)) * 100:.1f}%",
                signals.get("wal_depth", 0),
                signals.get("backlog", 0),
                signals.get("replay_failures", 0),
                signals.get("queries_served", 0),
                "; ".join(health.reasons) if health.reasons else "-",
            )
        )
    lines.extend(
        _table(
            ("shard", "verdict", "p50", "p95", "lock%", "wal", "backlog",
             "replays", "queries", "reasons"),
            rows,
        )
    )

    hottest = sorted(
        report.shards,
        key=lambda health: int(health.signals.get("queries_served", 0)),
        reverse=True,
    )
    if hottest and int(hottest[0].signals.get("queries_served", 0)) > 0:
        busiest = ", ".join(
            f"shard {health.shard} ({health.signals.get('queries_served', 0)}q)"
            for health in hottest[:3]
            if int(health.signals.get("queries_served", 0)) > 0
        )
        lines.extend(["", f"hottest: {busiest}"])

    slow = sorted(
        catalog.recent_queries(),
        key=lambda entry: float(entry.get("seconds", 0.0)),
        reverse=True,
    )[:recent]
    lines.extend(["", f"slowest recent queries ({len(slow)})"])
    if slow:
        lines.extend(
            _table(
                ("kind", "seconds", "work_units", "matches", "slowest", "trace"),
                [
                    (
                        entry.get("kind", "?"),
                        _ms(entry.get("seconds", 0.0)),
                        f"{float(entry.get('work_units', 0.0)):.0f}",
                        entry.get("matches", 0),
                        (
                            f"s{entry['slowest_shard']:02d}"
                            if entry.get("slowest_shard") is not None
                            else "-"
                        ),
                        entry.get("trace_id") or "-",
                    )
                    for entry in slow
                ],
            )
        )
    else:
        lines.append("  (no queries recorded yet — run some, or pass --queries N)")

    compactions = catalog.events.tail(recent, kind="compaction.materialized")
    lines.extend(["", f"recent compactions ({len(compactions)})"])
    if compactions:
        lines.extend(
            _table(
                ("image", "shard", "saving", "trace"),
                [
                    (
                        event.image_id or "?",
                        event.shard if event.shard is not None else "-",
                        f"{float(event.detail.get('projected_saving', 0.0)):.0f}",
                        event.trace_id or "-",
                    )
                    for event in reversed(compactions)
                ],
            )
        )
    else:
        lines.append("  (none since this root opened)")

    return "\n".join(lines) + "\n"
