"""Cost-aware background warming of hot, long edit sequences.

The §5 cost model says an edited image costs its sequence length in
Table 1 rule applications every time a query's BOUNDS walk reaches it
cold.  The compactor pays that walk ahead of the reads: it picks the
sequences worth warming — long chains on shards that are actually
serving queries, in color regions the catalog is dense in — and fills
each winner's memo row with the owning shard's own engine, under the
shard's read lock: the one-id all-bins sweep a read would run, so a row
that is already valid costs nothing.  The winner is then recorded in the
shard's in-memory ``materialized`` ledger.  Nothing is journaled: the
row is derived state, recomputed by the next read after a reopen.
:meth:`Compactor.rollback` dirties the row again and drops it from the
ledger.

Warming never changes results: the memo is consulted transparently by
both the scalar and all-bins query paths, and the fill is the one a
read does — the parity tests in ``tests/shard/test_compactor.py``
assert byte-identical query results with the compactor on and off.

Scoring
-------
For an edited image with an ``n``-op sequence on a shard that has
served ``q`` queries::

    score = q x n x COST_RULE x demand_weight

``demand_weight`` leans on :class:`repro.db.statistics.DatabaseStatistics`:
the estimated fraction of catalog images with meaningful mass in the
candidate's base dominant bin.  A dense color region means range
queries on those bins keep visiting the cluster, so its long sequences
pay off first; a lonely region decays toward the floor weight.  A base
that is itself an edited image has no stored histogram and weighs 1.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.db.catalog import Catalog
from repro.db.statistics import DatabaseStatistics
from repro.errors import ShardError
from repro.obs.trace import maybe_tracer
from repro.shard.sharded import ShardedCatalog

#: §5 cost of one Table 1 rule application, in work units.
COST_RULE = 1.0

#: Weight floor so sparse color regions still compact eventually.
_WEIGHT_FLOOR = 0.25

#: "Meaningful mass" threshold for the demand estimate: the fraction of
#: catalog images holding at least this much of the candidate's
#: dominant bin.
_DOMINANT_MASS = 0.10


@dataclass(frozen=True)
class CompactionPolicy:
    """What the compactor considers worth warming.

    Parameters
    ----------
    min_ops:
        Sequences shorter than this are never warmed — a one-op
        sequence costs one rule per walk, which the memo cache already
        amortizes well.
    max_per_cycle:
        Fills per :meth:`Compactor.run_once` across all shards, so one
        cycle's time stays bounded.
    min_score:
        Candidates scoring below this are left alone (a shard that has
        served no queries scores 0 — nothing compacts until demand
        exists).
    require_demand:
        When True (default), shards that have served no queries are not
        compacted at all — the background loop only spends time where
        reads are happening.  ``repro shards --compact-now``
        sets it False: an operator asking for a cycle wants the rows
        filled now, ahead of the demand.
    """

    min_ops: int = 2
    max_per_cycle: int = 4
    min_score: float = 1.0
    require_demand: bool = True

    def __post_init__(self) -> None:
        if self.min_ops < 1:
            raise ShardError(f"min_ops must be >= 1, got {self.min_ops}")
        if self.max_per_cycle < 1:
            raise ShardError(
                f"max_per_cycle must be >= 1, got {self.max_per_cycle}"
            )


@dataclass(frozen=True)
class CompactionReport:
    """What one compaction cycle did."""

    candidates_considered: int
    materialized: Tuple[str, ...]
    skipped_stale: int
    projected_saving: float


@dataclass(frozen=True)
class _Candidate:
    shard_index: int
    image_id: str
    score: float


@dataclass
class _CompactorState:
    cycles: int = 0
    total_materialized: int = 0
    last_report: Optional[CompactionReport] = None
    lock: threading.Lock = field(default_factory=threading.Lock)


class Compactor:
    """Background materializer for a :class:`ShardedCatalog`.

    Run it as a daemon thread (:meth:`start` / :meth:`stop`) or drive
    cycles synchronously with :meth:`run_once` (what the CLI's
    ``repro shards --compact-now`` and the benchmarks do).

    Each fill runs under the owning shard's read lock, so it always
    computes the current state; the one staleness left is a winner
    deleted between scoring and fill, which is skipped
    (``skipped_stale``).
    """

    def __init__(
        self,
        catalog: ShardedCatalog,
        policy: Optional[CompactionPolicy] = None,
        interval: float = 0.25,
    ) -> None:
        if interval <= 0:
            raise ShardError(f"interval must be positive, got {interval}")
        self.catalog = catalog
        self.policy = policy if policy is not None else CompactionPolicy()
        self.interval = interval
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._state = _CompactorState()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the background loop (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._loop, name="shard-compactor", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the background loop and join the thread."""
        self._stop_event.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
        self._thread = None

    def _loop(self) -> None:
        while not self._stop_event.wait(self.interval):
            try:
                self.run_once()
            except ShardError:
                # The catalog closed underneath us; the loop is done.
                return

    # ------------------------------------------------------------------
    # One cycle
    # ------------------------------------------------------------------
    def run_once(self) -> CompactionReport:
        """Score, then fill the winners' rows — one bounded cycle."""
        tracer = maybe_tracer("compaction")
        with tracer.span("compaction.cycle"):
            with tracer.span("compaction.score"):
                considered, chosen = self._score_candidates()
            materialized: List[str] = []
            skipped_stale = 0
            projected_total = 0.0
            for candidate in chosen:
                with tracer.span(
                    "compaction.materialize", image_id=candidate.image_id
                ):
                    filled = self._materialize(candidate)
                if filled:
                    materialized.append(candidate.image_id)
                    projected_total += candidate.score
                else:
                    skipped_stale += 1
        self.catalog._gauge_ledger()
        self.catalog.metrics.increment("compaction.runs")
        if skipped_stale:
            self.catalog.metrics.increment(
                "compaction.skipped_stale", skipped_stale
            )
        report = CompactionReport(
            candidates_considered=considered,
            materialized=tuple(materialized),
            skipped_stale=skipped_stale,
            projected_saving=projected_total,
        )
        # One wide event per cycle, carrying the cycle's trace id — the
        # same id the per-image ``compaction.materialized`` events were
        # stamped with, so the whole cycle reassembles from the event
        # log alone.
        self.catalog.events.emit(
            "compaction.cycle",
            subsystem="compactor",
            trace_id=tracer.trace_id,
            candidates=considered,
            materialized=len(materialized),
            skipped_stale=skipped_stale,
            projected_saving=round(projected_total, 3),
        )
        with self._state.lock:
            self._state.cycles += 1
            self._state.total_materialized += len(materialized)
            self._state.last_report = report
        return report

    def rollback(self, image_id: str) -> bool:
        """Dirty one warmed row and drop it from the ledger; True if it
        was in the ledger.  Journals nothing."""
        shard = self.catalog._owning_shard(image_id)
        with shard.lock.write_locked():
            if image_id not in shard.materialized:
                return False
            shard.database.engine.invalidate(image_id)
            self.catalog._prune_ledger(shard)
            self._note(
                "compaction.rolled_back", shard=shard.index, image_id=image_id
            )
        return True

    def _note(self, kind: str, **fields: Any) -> None:
        """Count and emit one fill or retraction."""
        self.catalog.metrics.increment(kind)
        self.catalog.events.emit(kind, subsystem="compactor", **fields)

    def status(self) -> Dict[str, object]:
        """Cycle counters plus the last report, for the CLI."""
        with self._state.lock:
            last = self._state.last_report
            return {
                "running": self._thread is not None
                and self._thread.is_alive(),
                "cycles": self._state.cycles,
                "total_materialized": self._state.total_materialized,
                "last_report": None
                if last is None
                else {
                    "candidates_considered": last.candidates_considered,
                    "materialized": list(last.materialized),
                    "skipped_stale": last.skipped_stale,
                    "projected_saving": last.projected_saving,
                },
            }

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _score_candidates(self) -> Tuple[int, List[_Candidate]]:
        """Count the candidates that pass the policy; return the best.

        Work is done once per distinct value, not per edited image: a
        demand weight per base, a selectivity per dominant bin (both
        local to this call), and only the ``max_per_cycle`` winners are
        built, best score first, ties by shard then id.
        """
        policy = self.policy
        scored: List[Tuple[float, int, str]] = []
        for shard in self.catalog._shards:
            with shard.lock.read_locked():
                served = self.catalog._queries_served(shard)
                if served == 0 and policy.require_demand:
                    continue
                hotness = max(1, served)
                catalog = shard.database.catalog
                statistics = DatabaseStatistics(shard.database)
                base_weights: Dict[str, float] = {}
                bin_weights: Dict[int, float] = {}
                for image_id in catalog.edited_ids():
                    if image_id in shard.materialized:
                        continue
                    sequence = catalog.edited_record(image_id).sequence
                    ops = len(sequence)
                    if ops < policy.min_ops:
                        continue
                    base_id = sequence.base_id
                    weight = base_weights.get(base_id)
                    if weight is None:
                        weight = base_weights[base_id] = self._demand_weight(
                            catalog, base_id, statistics, bin_weights
                        )
                    score = hotness * ops * COST_RULE * weight
                    if score < policy.min_score:
                        continue
                    scored.append((-score, shard.index, image_id))
        winners = heapq.nsmallest(policy.max_per_cycle, scored)
        return len(scored), [
            _Candidate(index, image_id, -negated)
            for negated, index, image_id in winners
        ]

    @staticmethod
    def _demand_weight(
        catalog: Catalog,
        base_id: str,
        statistics: DatabaseStatistics,
        bin_weights: Dict[int, float],
    ) -> float:
        """How much of the catalog shares the base's color region."""
        if not catalog.is_binary(base_id):
            return 1.0  # an edited base has no stored histogram: neutral
        # The dominant bin of the counts is that of the fractions.
        dominant = int(catalog.histogram_of(base_id).counts.argmax())
        weight = bin_weights.get(dominant)
        if weight is None:
            selectivity = statistics.bin_statistics(
                dominant
            ).estimate_selectivity(_DOMINANT_MASS, 1.0)
            weight = bin_weights[dominant] = max(_WEIGHT_FLOOR, float(selectivity))
        return weight

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def _materialize(self, candidate: _Candidate) -> bool:
        """Fill the winner's memo row, as a read would; False when the
        winner was deleted after scoring."""
        shard = self.catalog._shards[candidate.shard_index]
        with shard.lock.read_locked():
            if not shard.database.catalog.contains(candidate.image_id):
                return False
            shard.database.engine.bounds_all_bins_batch((candidate.image_id,))
            # Recorded under the same read lock: no writer can dirty the
            # row before it is in the ledger.
            shard.materialized[candidate.image_id] = float(candidate.score)
            self._note(
                "compaction.materialized",
                shard=shard.index,
                image_id=candidate.image_id,
                projected_saving=float(candidate.score),
            )
        return True
