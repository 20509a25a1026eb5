"""Measurement: identical rounds, quiet-repetition timing, the gate.

One closed-loop client in one process, pinned to one CPU.  A run is

1. corpus generation, then ``prepare`` (the oracle and the seeded
   inputs: the benchmark's own work, untimed);
2. one set-up: a fresh front end loaded through its public API, and both
   warm-up rounds — ``setup_s`` is this plus corpus generation;
3. identical rounds until ``--seconds`` have passed;
4. the equal-work check and the correctness gate, outside the timing.

Every round executes the same fixed op list and restores the state it
found, and the harness *fails* the run if any round's deterministic
counts (work units, matches, instantiations, cache hits) differ from the
first round's.  That makes the rounds repetitions of one another, which
is what makes the next rule sound.

**Quiet repetitions.**  Op ``i`` of the list is the same call against
the same state in every round, so its latencies are repetitions of one
measurement.  Every timing metric is computed from the wall-clock
latencies of each op's *quiet* repetitions — the fastest tenth, at least
``MIN_QUIET`` — pooled, and from nothing else.  Interference on a shared
box only ever adds time; what the program itself causes — misses,
post-invalidation re-walks — is in every repetition of the ops it hits
and survives the selection.  (ISSUE 13 selected whole rounds; README.md
has the runs that made the grain finer.)
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import RangeQuery
from repro.core.query import QueryResult
from repro.db.processors import KNNResult
from repro.service.executor import ServiceResult

from .corpus import Ledger
from .layers import TracedPass, counters, layer_metrics
from .spans import Recorder, export
from .workloads import WORKLOADS, Op, Workload

#: Untimed rounds that end the set-up (lazy work lands in the first).
WARMUP_ROUNDS = 2
#: Fewest timed rounds, whatever ``--seconds`` says, and fewest quiet
#: repetitions of an op.
MIN_ROUNDS = 8
MIN_QUIET = 4
#: Rounds of the traced pass that run under the timing wrappers.
TRACED_ROUNDS = 8
#: A p95 is reported only over at least this many pooled samples.
P95_SAMPLES = 200
#: Range queries the gate checks per workload, and edited ids it
#: instantiates for the no-false-negative check.
GATE_QUERIES = 16
GATE_EDITED = 200


@dataclass
class Round:
    """One execution of the op list."""

    latencies: List[float]
    #: ``work_counts`` of every result; what the equal-work check reads.
    counts: List[Tuple[object, ...]]
    #: Kept only where something reads them later (the newest round,
    #: traced rounds): thousands of match sets are most of the heap.
    results: Optional[List[object]] = field(repr=False, default=None)


def pin_to_one_cpu() -> Optional[int]:
    """Pin the process to its highest allowed CPU; returns which.

    The program's own pools keep their defaults; their threads inherit
    the pin.  ISSUE 13 measured the 4-shard scatter path at a 24% spread
    between runs unpinned, 12% pinned.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def work_counts(result: object) -> Tuple[object, ...]:
    """The deterministic counts a result carries for free."""
    if isinstance(result, QueryResult):
        stats = result.stats
        return (stats.histograms_checked + stats.rules_applied, len(result.matches))
    if isinstance(result, KNNResult):
        return (result.stats.edited_instantiated, len(result.neighbors))
    if isinstance(result, ServiceResult):
        return (result.cache_hit, len(result.result.matches))
    if isinstance(result, (list, tuple)):
        return tuple(work_counts(item) for item in result)
    return (result,) if isinstance(result, (bool, str)) else ()


def run_round(ops: Sequence[Op], ledger: Ledger, recorder: Optional[Recorder] = None) -> Round:
    """Execute one round; a raising op is a failed op with no result."""
    latencies = [0.0] * len(ops)
    results: List[object] = [None] * len(ops)
    clock = time.perf_counter
    for index, op in enumerate(ops):
        if recorder is not None:
            recorder.begin_op(index)
        before = clock()
        try:
            results[index] = op.call()
        except Exception:  # boundary: count it, keep measuring
            ledger.note_failure()
        latencies[index] = clock() - before
        if recorder is not None:
            recorder.end_op()
    ledger.attempted += len(ops)
    return Round(latencies, [work_counts(r) for r in results], results)


def timed_rounds(workload: Workload, ledger: Ledger, seconds: float, min_rounds: int) -> List[Round]:
    """Identical rounds until ``seconds`` have passed (at least ``min_rounds``)."""
    rounds: List[Round] = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        if rounds:
            rounds[-1].results = None
        rounds.append(run_round(workload.ops, ledger))
    return rounds


def quiet(rounds: Sequence[Round]) -> List[List[float]]:
    """Per op of the list, the latencies of its quiet repetitions.

    The fastest tenth of the op's repetitions, at least ``MIN_QUIET``.
    """
    keep = max(MIN_QUIET, len(rounds) // 10)
    return [
        sorted(each.latencies[index] for each in rounds)[:keep]
        for index in range(len(rounds[0].latencies))
    ]


def quiet_round_seconds(rounds: Sequence[Round]) -> float:
    """What one round takes when every op takes its quiet mean."""
    return sum(statistics.fmean(sample) for sample in quiet(rounds))


def unequal_rounds(rounds: Sequence[Round]) -> List[int]:
    """Indexes of rounds whose counts differ from the first round's."""
    return [i for i, each in enumerate(rounds) if each.counts != rounds[0].counts]


def end_to_end(workload: Workload, labels: Sequence[str], rounds: Sequence[Round]) -> Tuple[Dict[str, float], Dict[str, object]]:
    """The timing metrics this workload defines, and the run's facts.

    Every op of a round counts towards ``ops_per_s``: the compaction
    cycle and the undo half of every mutation pair are calls a client
    of the round makes like any other.
    """
    ops = workload.ops
    samples_of = quiet(rounds)

    def pooled(wanted: Sequence[str]) -> List[float]:
        """Quiet milliseconds per query answered, of the ops so labelled."""
        return [
            seconds * 1e3 / ops[i].queries
            for i, label in enumerate(labels)
            if label in wanted
            for seconds in samples_of[i]
        ]

    quiet_round_s = quiet_round_seconds(rounds)
    metrics = {"ops_per_s": len(ops) / quiet_round_s}
    samples: Dict[str, int] = {"ops_per_s": sum(len(sample) for sample in samples_of)}
    for name, wanted in workload.medians.items():
        sample = pooled(wanted)
        metrics[name], samples[name] = statistics.median(sample), len(sample)
    for name, wanted in workload.p95s.items():
        sample = pooled(wanted)
        samples[name] = len(sample)
        if len(sample) >= P95_SAMPLES:
            metrics[name] = float(np.percentile(sample, 95))
    facts: Dict[str, object] = {
        "rounds": len(rounds),
        "quiet_repetitions": len(samples_of[0]),
        "ops_per_round": len(ops),
        "quiet_round_s": quiet_round_s,
        "disturbance": statistics.median(sum(each.latencies) for each in rounds) / quiet_round_s,
        "samples": samples,
        "by_label": {},
    }
    for label in sorted(set(labels)):
        sample = pooled((label,))
        facts["by_label"][label] = {  # type: ignore[index]
            "p50_ms": statistics.median(sample),
            "samples": len(sample),
            # Seconds of the quiet round spent in this label's calls.
            "round_s": sum(
                statistics.fmean(samples_of[i]) for i, other in enumerate(labels) if other == label
            ),
        }
    executes = [label for label in labels if label in ("hit", "miss")]
    if executes:
        facts["hit_ratio"] = executes.count("hit") / len(executes)
    return metrics, facts


def gate(workload: Workload, last: Round) -> Tuple[List[str], List[RangeQuery]]:
    """Check the last round's answers, and extras, against the oracle.

    A sample of the reads must have the oracle's match sets under both
    ``bwm`` and ``rbm``, every kNN its neighbours; sampled edited images must never be missing from a
    result their exact histogram satisfies; one kNN must equal the
    exhaustive method.  Returns the problems and the range queries used.
    """
    oracle = workload.oracle
    problems: List[str] = []

    def expect(spec: object, found: frozenset, what: str) -> None:
        run = oracle.text_query if isinstance(spec, str) else oracle.range_query
        for method in ("rbm", "bwm"):
            if run(spec, method=method).matches != found:
                problems.append(f"{what} {spec!r}: differs from oracle {method}")

    # A read issued between a mutation and its undo saw a catalog the
    # oracle does not hold, so a mutating workload's reads are issued
    # again now that the round has restored the state.
    results = last.results
    if any(op.kind == "mutation" for op in workload.ops):
        results = [
            workload.ledger.call(op.call) if op.spec is not None else None
            for op in workload.ops
        ]
    # Every distinct call a round made, with what it was answered; a
    # batch counts as its queries, a service answer as what it wraps.
    answered: List[Tuple[object, object]] = []
    seen = set()
    for op, result in zip(workload.ops, results):
        if op.spec is None or result is None or (op.kind, id(op.spec)) in seen:
            continue
        seen.add((op.kind, id(op.spec)))
        if isinstance(result, KNNResult):
            if result.neighbors != oracle.knn(op.spec, len(result.neighbors)).neighbors:
                problems.append("knn: differs from the oracle's")
        elif isinstance(op.spec, tuple):
            answered.extend(zip(op.spec, result))
        else:
            answered.append((op.spec, result.result if isinstance(result, ServiceResult) else result))
    rng = np.random.default_rng(workload.seed + 1)
    checked: Dict[RangeQuery, frozenset] = {}
    for pick in rng.choice(len(answered), size=min(GATE_QUERIES, len(answered)), replace=False):
        spec, result = answered[int(pick)]
        expect(spec, result.matches, "read")  # type: ignore[attr-defined]
        if isinstance(spec, RangeQuery):
            checked[spec] = result.matches  # type: ignore[attr-defined]
    # Extras on bins the oracle has already walked, through the front end.
    bins = sorted({query.bin_index for query in checked}) or [workload.bin_of("red")]
    while len(checked) < GATE_QUERIES:
        query = RangeQuery.at_least(bins[int(rng.integers(len(bins)))], float(rng.uniform(0.05, 0.6)))
        if query not in checked:
            checked[query] = workload.front_range_query(query)
            expect(query, checked[query], "gate query")

    edited_ids = [image_id for image_id, _ in workload.corpus.edited]
    sample = rng.choice(len(edited_ids), size=min(GATE_EDITED, len(edited_ids)), replace=False)
    for pick in sample:
        image_id = edited_ids[int(pick)]
        exact = oracle.exact_histogram(image_id)
        for query, matches in checked.items():
            if query.matches_histogram(exact) and image_id not in matches:
                problems.append(f"false negative: {image_id} satisfies {query!r}")

    front = workload.knn_front()
    if front is not None:
        raster = workload.corpus.bases[int(rng.integers(len(workload.corpus.bases)))][1]
        if front.knn(raster, 5).neighbors != front.knn(raster, 5, method="exact").neighbors:
            problems.append("knn(bounded) differs from knn(exact)")
    return problems, list(checked)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, scratch: Path) -> Dict[str, object]:
    """One full run of one workload; returns its report."""
    cpu = pin_to_one_cpu()
    ledger = Ledger()
    workload: Workload = WORKLOADS[name](seed, smoke, ledger, scratch)
    recorder = Recorder() if trace else None
    min_rounds = MIN_QUIET if smoke else MIN_ROUNDS
    started = time.perf_counter()
    workload.generate()
    corpus_s = time.perf_counter() - started
    workload.prepare()
    prepare_s = time.perf_counter() - started - corpus_s

    # The traced set-up is traced too: ingest, save and index build are
    # layers no round enters.
    if recorder is not None:
        recorder.install()
    started = time.perf_counter()
    workload.setup()
    warm = [run_round(workload.ops, ledger) for _ in range(WARMUP_ROUNDS)][-1]
    setup_s = corpus_s + time.perf_counter() - started
    if recorder is not None:
        recorder.uninstall()
    labels = [workload.label(op, result) for op, result in zip(workload.ops, warm.results or [])]

    # The traced pass spends half its time untraced: the baseline for
    # the tracing overhead, and where seconds-valued counters of the
    # program are read, free of the wrappers' cost.
    before = counters(workload)
    rounds = timed_rounds(workload, ledger, seconds / 2 if trace else seconds, min_rounds)
    traced: Optional[TracedPass] = None
    if recorder is not None:
        traced = TracedPass([], [], setup_spans=recorder.take(), before=before, after=counters(workload))
        if hasattr(workload.front, "recent_queries"):
            traced.recent = workload.front.recent_queries()[-len(workload.ops):]
        recorder.install()
        for _ in range(MIN_QUIET if smoke else TRACED_ROUNDS):
            traced.rounds.append(run_round(workload.ops, ledger, recorder))
            traced.spans.append(recorder.take())

    problems: List[str] = []
    every = rounds + (traced.rounds if traced else [])
    unequal = unequal_rounds([warm] + every)
    if unequal:
        problems.append(f"rounds {unequal} did not do the same work as the warm-up round")
    if traced is not None and traced.unequal_counts():
        problems.append("call counts differ between traced rounds")
    gate_problems, gate_queries = gate(workload, every[-1])
    problems += gate_problems

    # The extras and the end-of-run check stay traced, so more layers
    # that no round enters (index search, open, replay) get their spans.
    if traced is not None:
        traced.extras = workload.extras()
    finish_problems, finish_facts = workload.finish(gate_queries)
    problems += finish_problems
    if traced is not None and recorder is not None:
        traced.finish, traced.tail_spans = finish_facts, recorder.take()
        recorder.uninstall()
    workload.close()

    metrics, facts = end_to_end(workload, labels, rounds)
    metrics["setup_s"] = setup_s
    if "reopen_s" in finish_facts:
        metrics["reopen_s"] = finish_facts["reopen_s"]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["failed_ops_pct"] = 100.0 * ledger.failed / ledger.attempted
    if workload.hit_ratio_range is not None:
        low, high = workload.hit_ratio_range
        if not low <= facts["hit_ratio"] <= high:  # type: ignore[operator]
            problems.append(f"hit ratio {facts['hit_ratio']:.2f} outside [{low}, {high}]")
    layers: Dict[str, float] = {}
    spans: List[dict] = []
    if traced is not None:
        traced.by_label = facts["by_label"]  # type: ignore[assignment]
        traced.overhead = quiet_round_seconds(traced.rounds) / facts["quiet_round_s"] - 1.0  # type: ignore[operator]
        layers = layer_metrics(workload, traced)
        spans = export(traced.spans[traced.fastest])

    facts.update(prepare_s=prepare_s, pinned_cpu=cpu, images=len(workload.corpus))
    return {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "smoke": smoke,
        "trace": trace,
        "correct": not problems and ledger.failed == 0,
        "problems": problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "errors": ledger.errors,
        "end_to_end": metrics,
        "per_layer": layers,
        "facts": facts,
        "spans": spans,
    }
