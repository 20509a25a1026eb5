"""Per-layer metrics of the traced pass.

Times are mean milliseconds per call in the fastest traced round unless
said otherwise; counts are per round and must repeat exactly in every
traced round.  A layer a workload never enters reports 0 — that
``editing.instantiations`` is 0 on three workloads is itself the claim
that they bypass the executor.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro import RangeQuery
from repro.core.query import QueryResult
from repro.db.processors import KNNResult
from repro.service.executor import ServiceResult
from repro.shard import WAL_NAME, ShardedCatalog

from .spans import HARNESS, Span, call_totals, fold

#: Layers with a ``<layer>.self_pct`` metric: self time along the
#: blocking path as a share of the round's wall time.
LAYERS = (
    "querylang", "planner", "cache", "executor", "index", "router", "wal",
    "compactor", "processors", "bounds", "similarity", "editing", "color",
    "persistence", "database",
)

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("querylang.parse_ms", "ms", "lower"),
    ("querylang.parse_calls", "count", "lower"),
    ("planner.plan_ms", "ms", "lower"),
    ("planner.share.index_assisted", "ratio", "higher"),
    ("planner.share.vectorized_batch", "ratio", "lower"),
    ("planner.share.bwm", "ratio", "lower"),
    ("planner.share.linear_rbm", "ratio", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.flushes", "count", "lower"),
    ("cache.lookup_ms", "ms", "lower"),
    ("executor.hit_path_ms", "ms", "lower"),
    ("executor.hop_ms", "ms", "lower"),
    ("executor.miss_service_ms", "ms", "lower"),
    ("index.search_ms", "ms", "lower"),
    ("index.rebuild_ms", "ms", "lower"),
    ("index.rebuilds", "count", "lower"),
    ("router.overhead_ms", "ms", "lower"),
    ("router.lock_wait_ms", "ms", "lower"),
    ("router.shard_skew", "ratio", "lower"),
    ("router.knn_instantiated_4shard_over_1shard", "ratio", "lower"),
    ("wal.append_ms", "ms", "lower"),
    ("wal.appends", "count", "lower"),
    ("wal.bytes_per_mutation", "B", "lower"),
    ("wal.replay_ms", "ms", "lower"),
    ("wal.replayed_records", "count", "lower"),
    ("compactor.run_ms", "ms", "lower"),
    ("compactor.materialized_per_run", "count", "higher"),
    ("processors.range_ms", "ms", "lower"),
    ("processors.histograms_checked_per_query", "count", "lower"),
    ("processors.rules_applied_per_query", "count", "lower"),
    ("bwm.shortcut_ratio", "ratio", "higher"),
    ("bwm.speedup_over_rbm_pct", "%", "higher"),
    ("bounds.scalar_ms", "ms", "lower"),
    ("bounds.scalar_calls", "count", "lower"),
    ("bounds.sweep_ms", "ms", "lower"),
    ("bounds.sweep_calls", "count", "lower"),
    ("bounds.cache_hit_ratio", "ratio", "higher"),
    ("bounds.invalidated_per_mutation", "count", "lower"),
    ("sweep.speedup_over_rbm_x", "x", "higher"),
    ("similarity.knn_ms", "ms", "lower"),
    ("similarity.pruned_ratio", "ratio", "higher"),
    ("similarity.instantiated_per_query", "count", "lower"),
    ("editing.instantiate_ms", "ms", "lower"),
    ("editing.instantiations", "count", "lower"),
    ("color.histogram_ms", "ms", "lower"),
    ("color.histogram_calls", "count", "lower"),
    ("persistence.save_ms", "ms", "lower"),
    ("persistence.open_ms", "ms", "lower"),
    ("persistence.bytes_per_image", "B", "lower"),
    ("database.mutation_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("unattributed_pct", "%", "lower"),
) + tuple((f"{layer}.self_pct", "%", "lower") for layer in LAYERS)


Calls = Dict[str, Tuple[int, float]]


@dataclass
class TracedPass:
    """What the harness hands over after the traced rounds."""

    #: The traced rounds and, per round, the spans it recorded.
    rounds: List[object]
    spans: List[List[Span]]
    #: Spans of the traced set-up, and of the extras and end-of-run check.
    setup_spans: List[Span]
    tail_spans: List[Span] = field(default_factory=list)
    #: :func:`counters` before and after the *untraced* rounds of the
    #: pass (its seconds must not carry the wrappers' overhead).
    before: Dict[str, float] = field(default_factory=dict)
    after: Dict[str, float] = field(default_factory=dict)
    #: The router's recent-query ring right after the untraced rounds.
    recent: List[dict] = field(default_factory=list)
    #: Facts from ``Workload.extras`` and ``Workload.finish``.
    extras: Dict[str, float] = field(default_factory=dict)
    finish: Dict[str, float] = field(default_factory=dict)
    #: Label -> ``{"p50_ms", "samples", "round_s"}`` over the quiet
    #: repetitions of the untraced rounds (``round_s`` summed over ops).
    by_label: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Traced quiet round over untraced quiet round, minus one.
    overhead: float = 0.0

    @property
    def fastest(self) -> int:
        """The traced round whose spans are folded and exported."""
        return min(range(len(self.rounds)), key=lambda i: sum(self.rounds[i].latencies))  # type: ignore[attr-defined]

    def unequal_counts(self) -> bool:
        """Whether any traced round made a different number of calls."""
        per_round = [
            {name: calls for name, (calls, _) in call_totals(spans).items()}
            for spans in self.spans
        ]
        return any(counts != per_round[0] for counts in per_round)


def counters(workload: object) -> Dict[str, float]:
    """Running totals of the program's own public counters."""
    stats = [engine.cache_stats() for engine in workload.engines()]  # type: ignore[attr-defined]
    totals: Dict[str, float] = Counter()
    for key in ("hits", "misses", "invalidated_entries", "invalidation_calls"):
        totals[key] = sum(each[key] for each in stats)
    front = workload.front  # type: ignore[attr-defined]
    if isinstance(front, ShardedCatalog):
        for name, histogram in front.metrics.snapshot()["histograms"].items():
            if name.startswith("shard_lock_wait_seconds."):
                totals["lock_wait_s"] += histogram["total"]
                totals["lock_waits"] += histogram["count"]
        if front.root is not None:
            totals["wal_bytes"] = (Path(front.root) / WAL_NAME).stat().st_size
            totals["wal_appends"] = front.metrics.counter("wal.appends")
    return totals


def _mean_ms(calls: Calls, name: str) -> float:
    count, seconds = calls.get(name, (0, 0.0))
    return seconds * 1e3 / count if count else 0.0


def _count(calls: Calls, name: str) -> int:
    return calls.get(name, (0, 0.0))[0]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _merge(*folds: Calls) -> Calls:
    merged: Calls = {}
    for calls in folds:
        for name, (count, seconds) in calls.items():
            have = merged.get(name, (0, 0.0))
            merged[name] = (have[0] + count, have[1] + seconds)
    return merged


def layer_metrics(workload: object, traced: TracedPass) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced pass."""
    ops = workload.ops  # type: ignore[attr-defined]
    round_ = traced.rounds[traced.fastest]
    results = round_.results  # type: ignore[attr-defined]
    wall = sum(round_.latencies)  # type: ignore[attr-defined]
    layers, calls = fold(traced.spans[traced.fastest])
    setup_calls = fold(traced.setup_spans)[1]
    # Set-up, extras and the end-of-run check: where the layers that no
    # round enters (index build, save, open, replay) get their spans.
    outside = _merge(setup_calls, fold(traced.tail_spans)[1])
    with_setup = _merge(calls, setup_calls)
    delta = {key: traced.after[key] - traced.before.get(key, 0) for key in traced.after}
    per_round = {label: each["round_s"] for label, each in traced.by_label.items()}
    p50_ms = {label: each["p50_ms"] for label, each in traced.by_label.items()}

    served = [(round_.latencies[i], r) for i, r in enumerate(results) if isinstance(r, ServiceResult)]  # type: ignore[attr-defined]
    missed = [r for _, r in served if not r.cache_hit]
    plans = Counter(plan.strategy.value for r in missed for plan in r.plans)
    reads = [
        (op.kind, r)
        for op, r in zip(ops, results)
        if isinstance(op.spec, RangeQuery) and isinstance(r, QueryResult)
    ]
    ranges = [r for _, r in reads]
    # ShardedCatalog.range_query defaults to BWM, as MultimediaDatabase's does.
    bwm = [r for kind, r in reads if kind != "rbm"]
    base_ids = {image_id for image_id, _ in workload.corpus.bases}  # type: ignore[attr-defined]
    knns = [r for r in results if isinstance(r, KNNResult)]
    compactions = [r for op, r in zip(ops, results) if op.kind == "compaction" and r and isinstance(r[0], str)]
    shard_seconds = [list(q["shard_seconds"].values()) for q in traced.recent]
    opens, open_s = outside.get("router.open", (0, 0.0))
    load_s = outside.get("persistence.open", (0, 0.0))[1]

    metrics: Dict[str, float] = {
        "querylang.parse_ms": _mean_ms(calls, "querylang.parse"),
        "querylang.parse_calls": _count(calls, "querylang.parse"),
        "planner.plan_ms": _mean_ms(calls, "planner.plan"),
        "cache.hit_ratio": _ratio(len(served) - len(missed), len(served)),
        "cache.flushes": _count(calls, "cache.flush"),
        "cache.lookup_ms": _mean_ms(calls, "cache.lookup"),
        "executor.hit_path_ms": _mean([s for s, r in served if r.cache_hit]) * 1e3,
        "executor.hop_ms": _mean([s - r.seconds for s, r in served]) * 1e3,
        "executor.miss_service_ms": _mean([r.seconds for r in missed]) * 1e3,
        "index.search_ms": _mean_ms(outside, "index.search"),
        "index.rebuild_ms": _mean_ms(outside, "index.rebuild"),
        "index.rebuilds": _count(outside, "index.rebuild"),
        "router.overhead_ms": _mean([q["seconds"] - max(s) for q, s in zip(traced.recent, shard_seconds)]) * 1e3,
        "router.lock_wait_ms": _ratio(delta.get("lock_wait_s", 0.0), delta.get("lock_waits", 0)) * 1e3,
        "router.shard_skew": _mean([max(s) / statistics.fmean(s) for s in shard_seconds]),
        "router.knn_instantiated_4shard_over_1shard": traced.extras.get("knn_4shard_over_1shard", 0.0),
        "wal.append_ms": _mean_ms(calls, "wal.append"),
        "wal.appends": _count(calls, "wal.append"),
        "wal.bytes_per_mutation": _ratio(delta.get("wal_bytes", 0), delta.get("wal_appends", 0)),
        # ShardedCatalog.open minus the shard loads inside it: reading,
        # verifying and re-applying the WAL.
        "wal.replay_ms": _ratio(open_s - load_s, opens) * 1e3,
        "wal.replayed_records": traced.finish.get("replayed_records", 0),
        "compactor.run_ms": _mean_ms(calls, "compactor.run"),
        "compactor.materialized_per_run": _mean([len(r) for r in compactions]),
        "processors.range_ms": _mean_ms(calls, "processors.range"),
        "processors.histograms_checked_per_query": _mean([r.stats.histograms_checked for r in ranges]),
        "processors.rules_applied_per_query": _mean([r.stats.rules_applied for r in ranges]),
        "bwm.shortcut_ratio": _ratio(
            sum(r.stats.edited_accepted_without_rules for r in bwm),
            sum(len(r.matches - base_ids) for r in bwm),
        ),
        # The paper's headline, from the same ten queries under both methods.
        "bwm.speedup_over_rbm_pct": _ratio(per_round.get("rbm", 0.0) - per_round.get("bwm", 0.0), per_round.get("rbm", 0.0)) * 100,
        "bounds.scalar_ms": _mean_ms(calls, "bounds.scalar"),
        "bounds.scalar_calls": _count(calls, "bounds.scalar"),
        "bounds.sweep_ms": _mean_ms(calls, "bounds.sweep"),
        "bounds.sweep_calls": _count(calls, "bounds.sweep"),
        "bounds.cache_hit_ratio": _ratio(delta["hits"], delta["hits"] + delta["misses"]),
        "bounds.invalidated_per_mutation": _ratio(delta["invalidated_entries"], delta["invalidation_calls"]),
        "sweep.speedup_over_rbm_x": _ratio(p50_ms.get("rbm", 0.0), p50_ms.get("batch", 0.0)),
        "similarity.knn_ms": _mean_ms(calls, "similarity.knn"),
        "similarity.pruned_ratio": _ratio(
            sum(r.stats.edited_pruned for r in knns),
            sum(r.stats.edited_pruned + r.stats.edited_instantiated for r in knns),
        ),
        "similarity.instantiated_per_query": _mean([r.stats.edited_instantiated for r in knns]),
        "editing.instantiate_ms": _mean_ms(calls, "editing.instantiate"),
        "editing.instantiations": _count(calls, "editing.instantiate"),
        # Set-up and one round together: ingest is where most images are
        # histogrammed, mutations and kNN where the rest are.
        "color.histogram_ms": _mean_ms(with_setup, "color.histogram"),
        "color.histogram_calls": _count(with_setup, "color.histogram"),
        "persistence.save_ms": _mean_ms(outside, "persistence.save"),
        "persistence.open_ms": _mean_ms(outside, "persistence.open"),
        "persistence.bytes_per_image": traced.finish.get("bytes_per_image", 0.0),
        "database.mutation_ms": _mean_ms(calls, "database.mutation"),
        "trace.overhead_pct": traced.overhead * 100,
        "unattributed_pct": (wall - sum(s for layer, s in layers.items() if layer != HARNESS)) / wall * 100,
    }
    for strategy in ("index_assisted", "vectorized_batch", "bwm", "linear_rbm"):
        metrics[f"planner.share.{strategy}"] = _ratio(plans[strategy], sum(plans.values()))
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = layers.get(layer, 0.0) / wall * 100
    return metrics
