"""What the observability plane costs when it is actually on.

The fleet plane (PR 9) promises that tracing + wide events + per-shard
health grading ride along with production traffic.  That promise has a
number attached: with *everything* on — span trees per scatter-gather
query, a wide event per mutation/append/query, health grading every
round — the zipfian churn/query mix's p95 per-query latency must stay
within ``MAX_P95_OVERHEAD`` of the same mix with the plane off, plus a
small absolute slack (queries here are sub-millisecond, where a
relative-only bound just measures scheduler noise).

Both modes run the identical deterministic workload on identical
on-disk roots; result parity is asserted query by query — observability
must never change an answer, only describe it.

Modes are interleaved across ``REPEATS`` rounds (off, full, off, full,
…) and each mode keeps its best p95, so a background hiccup hits both
sides with equal probability instead of biasing one.

Artifacts: ``benchmarks/results/BENCH_observability.txt`` (human table)
and ``benchmarks/results/BENCH_observability.json`` (machine-readable
twin validated by ``repro.bench.schema`` in CI).

Environment knobs for CI smoke runs: ``REPRO_BENCH_OBS_SCALE``
(default 1.0), ``REPRO_BENCH_OBS_ROUNDS`` (churn/query rounds,
default 8), ``REPRO_BENCH_OBS_QUERIES`` (queries per round, default 6),
``REPRO_BENCH_OBS_REPEATS`` (interleaved repeats per mode, default 3).
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Tuple

import numpy as np
import pytest

from benchmarks.conftest import BENCH_SEED, write_json_result, write_result
from repro.bench.reporting import format_table
from repro.color.names import FLAG_PALETTE
from repro.core.query import RangeQuery
from repro.editing.operations import Combine, Define, Merge, Modify, Mutate
from repro.editing.sequence import EditSequence
from repro.images.generators import random_palette_image
from repro.obs import HealthMonitor, set_tracing
from repro.obs.metrics import percentile
from repro.shard import ShardedCatalog

SCALE = float(os.environ.get("REPRO_BENCH_OBS_SCALE", "1.0"))
ROUNDS = int(os.environ.get("REPRO_BENCH_OBS_ROUNDS", "8"))
QUERIES_PER_ROUND = int(os.environ.get("REPRO_BENCH_OBS_QUERIES", "6"))
REPEATS = int(os.environ.get("REPRO_BENCH_OBS_REPEATS", "3"))

BINARY_COUNT = max(4, int(20 * SCALE))
EDITED_COUNT = max(4, int(40 * SCALE))
CHURN_PER_ROUND = 3
SHARD_COUNT = 4

#: Acceptance: full-plane p95 latency <= off p95 * (1 + this) + slack.
MAX_P95_OVERHEAD = 0.05
#: Absolute slack (seconds) absorbing scheduler noise on sub-ms queries.
P95_ABS_SLACK = 0.002


def _random_image(rng: np.random.Generator):
    return random_palette_image(rng, 10, 12, FLAG_PALETTE)


def _random_sequence(rng: np.random.Generator, base_id: str) -> EditSequence:
    count = int(rng.integers(3, 8))
    ops: List[object] = []
    for _ in range(count):
        roll = int(rng.integers(0, 5))
        if roll == 0:
            ops.append(Define.of(1, 1, 8, 9))
        elif roll == 1:
            ops.append(Combine.box())
        elif roll == 2:
            old = FLAG_PALETTE[int(rng.integers(0, len(FLAG_PALETTE)))]
            new = FLAG_PALETTE[int(rng.integers(0, len(FLAG_PALETTE)))]
            ops.append(Modify(old, new))
        elif roll == 3:
            ops.append(Mutate.translation(int(rng.integers(-2, 3)), 1))
        else:
            ops.append(Merge(base_id, int(rng.integers(0, 3)), 1))
    return EditSequence(base_id, tuple(ops))


def _corpus(seed: int):
    rng = np.random.default_rng(seed)
    stream: List[Tuple[str, object, str]] = []
    base_ids = [f"flag-{index:04d}" for index in range(BINARY_COUNT)]
    for image_id in base_ids:
        stream.append(("binary", _random_image(rng), image_id))
    for index in range(EDITED_COUNT):
        base = base_ids[index % len(base_ids)]
        stream.append(
            ("edited", _random_sequence(rng, base), f"edit-{index:04d}")
        )
    return stream, base_ids


def _zipf_weights(count: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, count + 1)
    return weights / weights.sum()


def _run_mix(catalog, base_ids, seed, monitor=None):
    """The churn/query mix; returns (per-query seconds, match sets)."""
    rng = np.random.default_rng(seed)
    weights = _zipf_weights(len(base_ids))
    latencies: List[float] = []
    matches: List[frozenset] = []
    for _ in range(ROUNDS):
        for _ in range(CHURN_PER_ROUND):
            victim = base_ids[int(rng.choice(len(base_ids), p=weights))]
            catalog.update_image(victim, _random_image(rng))
        for _ in range(QUERIES_PER_ROUND):
            bin_index = int(rng.integers(0, catalog.quantizer.bin_count))
            pct_min = float(rng.uniform(0.0, 0.3))
            query = RangeQuery(bin_index, pct_min, pct_min + 0.4)
            started = time.perf_counter()
            result = catalog.range_query(query, method="rbm")
            latencies.append(time.perf_counter() - started)
            matches.append(frozenset(result.matches))
        if monitor is not None:
            monitor.report()
    return latencies, matches


def _stats(samples: List[float]) -> Dict[str, float]:
    ordered = sorted(samples)
    return {
        "count": len(ordered),
        "p50": percentile(ordered, 0.50),
        "p95": percentile(ordered, 0.95),
        "p99": percentile(ordered, 0.99),
        "mean": float(np.mean(ordered)),
    }


def _one_pass(mode: str, stream, base_ids, root) -> Dict[str, object]:
    """One full workload pass with the plane off or fully on."""
    catalog = ShardedCatalog(SHARD_COUNT, root=root)
    try:
        monitor = None
        if mode == "full":
            set_tracing(True)
            monitor = HealthMonitor(catalog)
        else:
            set_tracing(False)
            catalog.events.set_enabled(False)
        for kind, payload, image_id in stream:
            if kind == "binary":
                catalog.insert_image(payload, image_id=image_id)
            else:
                catalog.insert_edited(payload, image_id=image_id)
        latencies, matches = _run_mix(
            catalog, base_ids, BENCH_SEED + 91, monitor=monitor
        )
        events_emitted = catalog.events.stats()["emitted"]
        spans_folded = sum(
            value
            for name, value in catalog.metrics_snapshot()["counters"].items()
            if name.startswith("spans.")
        )
    finally:
        set_tracing(False)
        catalog.close()
    return {
        "latencies": latencies,
        "matches": matches,
        "events_emitted": int(events_emitted),
        "spans_folded": int(spans_folded),
    }


@pytest.fixture(scope="module")
def measurement(tmp_path_factory):
    stream, base_ids = _corpus(BENCH_SEED + 90)
    passes: Dict[str, List[Dict[str, object]]] = {"off": [], "full": []}
    for repeat in range(REPEATS):
        for mode in ("off", "full"):
            root = (
                tmp_path_factory.mktemp("bench-obs")
                / f"{mode}-{repeat}"
            )
            passes[mode].append(_one_pass(mode, stream, base_ids, root))

    # Observability never changes an answer: every pass of every mode
    # sees the identical deterministic stream, so match-set parity is
    # exact across all of them.
    reference = passes["off"][0]["matches"]
    for mode in ("off", "full"):
        for run in passes[mode]:
            assert run["matches"] == reference, f"parity broke in {mode}"

    results: Dict[str, Dict[str, object]] = {}
    for mode in ("off", "full"):
        per_pass = [_stats(run["latencies"]) for run in passes[mode]]
        best = min(per_pass, key=lambda stats: stats["p95"])
        results[mode] = {
            "best": best,
            "per_pass_p95": [stats["p95"] for stats in per_pass],
            "events_emitted": passes[mode][-1]["events_emitted"],
            "spans_folded": passes[mode][-1]["spans_folded"],
        }
    return results


def test_full_plane_overhead_within_budget(measurement):
    """The acceptance gate, plus the diffable artifacts."""
    off = measurement["off"]["best"]
    full = measurement["full"]["best"]
    assert off["count"] == full["count"] == ROUNDS * QUERIES_PER_ROUND

    # The plane must actually have been on: spans folded into metrics
    # and events emitted in full mode, neither in off mode.
    assert measurement["full"]["spans_folded"] > 0
    assert measurement["full"]["events_emitted"] > 0
    assert measurement["off"]["spans_folded"] == 0
    assert measurement["off"]["events_emitted"] == 0

    budget = off["p95"] * (1.0 + MAX_P95_OVERHEAD) + P95_ABS_SLACK
    overhead = full["p95"] / off["p95"] - 1.0 if off["p95"] > 0 else 0.0
    assert full["p95"] <= budget, (
        f"full-observability p95 {full['p95'] * 1e3:.3f}ms exceeds "
        f"budget {budget * 1e3:.3f}ms (off p95 {off['p95'] * 1e3:.3f}ms, "
        f"overhead {overhead:.1%})"
    )

    rows = [
        (
            mode,
            stats["count"],
            f"{stats['p50'] * 1e3:.3f}",
            f"{stats['p95'] * 1e3:.3f}",
            f"{stats['p99'] * 1e3:.3f}",
            f"{stats['mean'] * 1e3:.3f}",
            measurement[mode]["events_emitted"],
            measurement[mode]["spans_folded"],
        )
        for mode, stats in (("off", off), ("full", full))
    ]
    text = (
        format_table(
            (
                "plane", "queries", "p50 ms", "p95 ms", "p99 ms",
                "mean ms", "events", "spans",
            ),
            rows,
        )
        + f"\n\nfull-plane p95 overhead: {overhead:+.1%} "
        f"(budget {MAX_P95_OVERHEAD:.0%} + {P95_ABS_SLACK * 1e3:.0f}ms slack)"
    )
    write_result("BENCH_observability.txt", text)
    write_json_result(
        "BENCH_observability.json",
        {
            "scale": SCALE,
            "rounds": ROUNDS,
            "queries_per_round": QUERIES_PER_ROUND,
            "churn_per_round": CHURN_PER_ROUND,
            "repeats": REPEATS,
            "shard_count": SHARD_COUNT,
            "binary_count": BINARY_COUNT,
            "edited_count": EDITED_COUNT,
            "max_p95_overhead": MAX_P95_OVERHEAD,
            "p95_abs_slack_seconds": P95_ABS_SLACK,
            "tracing_off": off,
            "tracing_full": full,
            "per_pass_p95": {
                "off": measurement["off"]["per_pass_p95"],
                "full": measurement["full"]["per_pass_p95"],
            },
            "p95_overhead": overhead,
            "events_emitted_full": measurement["full"]["events_emitted"],
            "spans_folded_full": measurement["full"]["spans_folded"],
        },
    )


def test_traced_query_overhead_microbench(benchmark):
    """pytest-benchmark hook: one traced scatter-gather query, warm."""
    stream, _ = _corpus(BENCH_SEED + 92)
    catalog = ShardedCatalog(SHARD_COUNT)
    try:
        for kind, payload, image_id in stream:
            if kind == "binary":
                catalog.insert_image(payload, image_id=image_id)
            else:
                catalog.insert_edited(payload, image_id=image_id)
        query = RangeQuery(0, 0.0, 0.4)
        set_tracing(True)
        catalog.range_query(query, method="rbm")  # warm
        result = benchmark(lambda: catalog.range_query(query, method="rbm"))
        assert result.stats.histograms_checked > 0
    finally:
        set_tracing(False)
        catalog.close()
