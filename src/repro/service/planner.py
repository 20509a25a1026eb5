"""Cost-based query planning over the library's execution strategies.

The repo accumulated four ways to answer one color range query, each
fastest in a different regime:

* ``LINEAR_RBM`` — the paper's §3 baseline: check every binary
  histogram, walk every edited image's rules for the queried bin.
* ``BWM`` — the paper's §4 contribution: cluster short-circuiting skips
  the rule walks of bound-widening images whose base already matches.
* ``VECTORIZED_BATCH`` — one columnar sweep over the whole catalog's
  op table (:mod:`repro.core.optable`): every edited image's interval
  matrix in a single structure-of-arrays pass; with the dependency-aware
  memo warm, repeat traffic is a column gather and two compares.
* ``INDEX_ASSISTED`` — the PR-2 builders: a point index over binary
  histograms plus a bounds-interval index over edited images turn the
  whole query into two spatial lookups — unbeatable while fresh, but a
  catalog mutation staleness them and a rebuild costs full walks.

Every strategy provably returns the **same result set** (the scalar RBM
oracle's — property-tested), so the planner is free to pick purely on
estimated cost.  Costs are in abstract work units anchored to the §5
work metric: one histogram check = 1, one scalar rule application = 1.
Estimates come from :class:`repro.db.statistics.DatabaseStatistics`
selectivity (how often a cluster base matches → BWM's short-circuit
rate), catalog cardinalities and operation counts (rule-walk volume),
and the live engine's memo occupancy (how much of the all-bins sweep
is already paid for).

The chosen plan is inspectable: :class:`ExplainedPlan` carries the
estimated cost of *every* alternative plus a one-line reason each, in
the spirit of a relational EXPLAIN.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.core.query import QueryStats, RangeQuery
from repro.db.statistics import DatabaseStatistics
from repro.errors import QueryError, ServiceError

logger = logging.getLogger(__name__)


class Strategy(enum.Enum):
    """Execution strategies the planner chooses among."""

    LINEAR_RBM = "linear_rbm"
    BWM = "bwm"
    VECTORIZED_BATCH = "vectorized_batch"
    INDEX_ASSISTED = "index_assisted"


#: Deterministic tie-break order (earlier wins on equal cost): prefer the
#: structure-free baseline, then the paper's method, then the engineered
#: paths that depend on warm state.
_TIE_BREAK = {
    Strategy.LINEAR_RBM: 0,
    Strategy.BWM: 1,
    Strategy.VECTORIZED_BATCH: 2,
    Strategy.INDEX_ASSISTED: 3,
}


@dataclass(frozen=True)
class CatalogProfile:
    """The cardinalities the cost model consumes, snapshotted at plan time."""

    binary_count: int
    edited_count: int
    total_operations: int
    main_edited: int
    unclassified: int

    @property
    def mean_operations(self) -> float:
        """Average edit-sequence length (0 with no edited images)."""
        if not self.edited_count:
            return 0.0
        return self.total_operations / self.edited_count


@dataclass(frozen=True)
class PlanAlternative:
    """One considered strategy with its estimated cost and rationale."""

    strategy: Strategy
    estimated_cost: float
    reason: str


@dataclass(frozen=True)
class PlanActuals:
    """Post-execution measurements for one plan — the ANALYZE half.

    Work units use the planner's own cost constants over the executed
    query's :class:`~repro.core.query.QueryStats`, so *estimated vs.
    actual* compares like with like; ``estimation_error`` is their
    ratio (> 1 means the planner under-estimated).
    """

    #: The strategy that actually ran (the plan's, or the cache).
    executed_strategy: str
    #: Wall seconds for this constraint's execution.
    seconds: float
    #: Actual work in the planner's §5-anchored units.
    actual_work_units: float
    #: Result-set size for this constraint.
    matches: int
    #: Whether the whole query was served from the result cache.
    cache_hit: bool
    #: Bounds-engine memo hits consumed during execution.
    bounds_cache_hits: int
    #: The executed query's raw work counters.
    stats: QueryStats
    #: Candidate images excluded by bounds alone (from attribution;
    #: -1 when attribution was not collected).
    images_pruned: int = -1
    #: Cluster short-circuits taken by the BWM stage (0 elsewhere).
    clusters_short_circuited: int = 0

    @staticmethod
    def work_units(stats: QueryStats) -> float:
        """§5 work units of one execution's counters."""
        return (
            stats.histograms_checked * CostBasedPlanner.COST_HISTOGRAM
            + stats.rules_applied * CostBasedPlanner.COST_RULE
        )

    def estimation_error(self, estimated_cost: float) -> float:
        """``actual / estimated`` (∞ when the estimate was zero)."""
        if estimated_cost <= 0.0:
            return math.inf if self.actual_work_units else 1.0
        return self.actual_work_units / estimated_cost

    def to_dict(self) -> Dict[str, object]:
        return {
            "executed_strategy": self.executed_strategy,
            "seconds": self.seconds,
            "actual_work_units": self.actual_work_units,
            "matches": self.matches,
            "cache_hit": self.cache_hit,
            "bounds_cache_hits": self.bounds_cache_hits,
            "images_pruned": self.images_pruned,
            "clusters_short_circuited": self.clusters_short_circuited,
            "histograms_checked": self.stats.histograms_checked,
            "bounds_computed": self.stats.bounds_computed,
            "rules_applied": self.stats.rules_applied,
        }


@dataclass(frozen=True)
class ExplainedPlan:
    """The planner's decision for one query, with its alternatives.

    ``alternatives`` contains every candidate (including the chosen one)
    sorted cheapest first, so ``alternatives[0].strategy == strategy``.
    ``actuals`` is ``None`` for a plain EXPLAIN and carries the
    post-execution measurements after EXPLAIN ANALYZE
    (:meth:`repro.service.QueryService.explain_analyze`).
    """

    query: RangeQuery
    strategy: Strategy
    estimated_cost: float
    selectivity: float
    profile: CatalogProfile
    alternatives: Tuple[PlanAlternative, ...]
    actuals: Optional[PlanActuals] = None

    def analyzed(self, actuals: PlanActuals) -> "ExplainedPlan":
        """A copy of this plan carrying post-execution actuals."""
        return replace(self, actuals=actuals)

    def alternative(self, strategy: Strategy) -> PlanAlternative:
        """The considered entry for one strategy."""
        for candidate in self.alternatives:
            if candidate.strategy is strategy:
                return candidate
        raise ServiceError(f"strategy {strategy} was not considered")

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (``repro explain --json``)."""
        return {
            "query": repr(self.query),
            "strategy": self.strategy.value,
            "estimated_cost": self.estimated_cost,
            "selectivity": self.selectivity,
            "alternatives": [
                {
                    "strategy": candidate.strategy.value,
                    "estimated_cost": candidate.estimated_cost,
                    "reason": candidate.reason,
                }
                for candidate in self.alternatives
            ],
            "actuals": (
                self.actuals.to_dict() if self.actuals is not None else None
            ),
        }

    def describe(self) -> str:
        """Human-readable PLAN output (one line per alternative)."""
        lines = [
            f"PLAN {self.query!r}",
            f"  chosen: {self.strategy.value} "
            f"(cost {self.estimated_cost:.1f}, "
            f"selectivity {self.selectivity:.3f})",
        ]
        for candidate in self.alternatives:
            marker = "*" if candidate.strategy is self.strategy else " "
            lines.append(
                f"  {marker} {candidate.strategy.value:<17} "
                f"{candidate.estimated_cost:>10.1f}  {candidate.reason}"
            )
        if self.actuals is not None:
            actual = self.actuals
            lines.append(
                f"  executed: {actual.executed_strategy} in "
                f"{actual.seconds * 1e3:.3f}ms "
                f"({'result-cache hit' if actual.cache_hit else 'computed'})"
            )
            lines.append(
                f"  actual work: {actual.actual_work_units:.1f} units vs "
                f"{self.estimated_cost:.1f} estimated "
                f"(x{actual.estimation_error(self.estimated_cost):.2f}); "
                f"{actual.stats.histograms_checked} histograms, "
                f"{actual.stats.rules_applied} rules, "
                f"{actual.bounds_cache_hits} memo hits"
            )
            pruned = (
                f"{actual.images_pruned} images pruned"
                if actual.images_pruned >= 0
                else "pruning not attributed"
            )
            lines.append(
                f"  matches: {actual.matches}; {pruned}; "
                f"{actual.clusters_short_circuited} clusters short-circuited"
            )
        return "\n".join(lines)


class CostBasedPlanner:
    """Chooses the cheapest strategy for each range query.

    Planning is O(1) in the catalog: the profile is read from counters
    the catalog and the BWM structure keep as they change, and the
    selectivity statistics — a summary of *binary* histograms — are kept
    until the bounds engine's invalidation events report a change to a
    binary image (an edited-only write leaves them current).  Detach
    with :meth:`close` when discarding a planner before its database.
    """

    #: One exact histogram check against the query range.
    COST_HISTOGRAM = 1.0
    #: One scalar (single-bin) Table 1 rule application.
    COST_RULE = 1.0
    #: One op advanced by the columnar batched sweep, all bins at once.
    #: Calibrated in PR 7 from bench_bounds_kernel's 10k-image 64-bin
    #: corpus — warm-table sweep ~2.5us/op against ~17.8us per scalar
    #: (single-bin) rule — and unchanged since.  The current run of that
    #: bench (results/bounds_kernel.json) gives ~1.1us/op against ~9.8us
    #: per scalar rule (ratio 0.12): the sweep got cheaper when seeding
    #: and result packing became gathers, the value deliberately did not
    #: move with it (re-calibrating shifts planner shares; its own issue).
    COST_BATCHED_RULE = 0.15
    #: Fixed per-sweep overhead (state allocation, plan lookup, base
    #: fetch) paid once per batch regardless of catalog size; calibrated
    #: at ~2.1ms on tiny catalogs ~= 120 scalar rules, today ~1.0ms for a
    #: 24-image sweep.  This is what keeps tiny catalogs on the classic
    #: strategies.
    COST_BATCH_SETUP = 120.0
    #: Serving one memoized all-bins interval from the engine cache.
    COST_CACHE_HIT = 0.05
    #: Visiting one index node / leaf entry during a spatial lookup.
    COST_INDEX_VISIT = 2.0

    def __init__(
        self,
        database,
        statistics: Optional[DatabaseStatistics] = None,
    ) -> None:
        self._database = database
        self._statistics = (
            statistics if statistics is not None else DatabaseStatistics(database)
        )
        #: ``binary_count`` when the statistics were last taken; ``None``
        #: while they are stale.
        self._summarized_binaries: Optional[int] = None
        database.engine.add_invalidation_listener(self._on_invalidation)

    def close(self) -> None:
        """Stop listening to engine invalidation events."""
        self._database.engine.remove_invalidation_listener(self._on_invalidation)

    def _on_invalidation(self, image_id: Optional[str]) -> None:
        # Stale when a binary image changed: the id is one now (insert,
        # update) or the count says one went (delete) — or all may have.
        catalog = self._database.catalog
        if (
            image_id is None
            or catalog.is_binary(image_id)
            or catalog.binary_count != self._summarized_binaries
        ):
            self._summarized_binaries = None

    # ------------------------------------------------------------------
    # Model inputs
    # ------------------------------------------------------------------
    def profile(self) -> CatalogProfile:
        """Current catalog cardinalities, read from running counters."""
        catalog = self._database.catalog
        structure = self._database.bwm_structure
        return CatalogProfile(
            binary_count=catalog.binary_count,
            edited_count=catalog.edited_count,
            total_operations=catalog.total_operations,
            main_edited=structure.main_edited_count,
            unclassified=structure.unclassified_count,
        )

    def selectivity(self, query: RangeQuery) -> float:
        """Estimated fraction of binary images matching ``query``.

        Falls back to an uninformative 0.5 when no statistics exist
        (empty catalog) — both BWM terms then sit mid-range, which keeps
        the decision on the cardinality terms alone.
        """
        binary_count = self._database.catalog.binary_count
        if not binary_count:
            return 0.5
        if self._summarized_binaries is None:
            self._statistics.refresh()
            self._summarized_binaries = binary_count
        try:
            stats = self._statistics.bin_statistics(query.bin_index)
        except QueryError:
            return 0.5
        return stats.estimate_selectivity(query.pct_min, query.pct_max)

    def _memoized_images(self, profile: CatalogProfile) -> Tuple[int, int]:
        """How many ``(edited, binary)`` images hold a valid memo row.

        Rows are not tagged by kind and either kind is read by the same
        column compare, so the split only has to add up: valid rows are
        credited to the edited population first (the dear ones to miss),
        the remainder to the binary one.
        """
        engine = self._database.engine
        if not engine.cache_enabled:
            return 0, 0
        valid = engine.cache_stats()["vector_entries"]
        edited = min(valid, profile.edited_count)
        return edited, min(valid - edited, profile.binary_count)

    # ------------------------------------------------------------------
    # Costing
    # ------------------------------------------------------------------
    def plan(
        self,
        query: RangeQuery,
        index_fresh: bool = False,
    ) -> ExplainedPlan:
        """Cost every strategy for ``query`` and pick the cheapest.

        ``index_fresh`` tells the planner whether the serving layer holds
        point + interval indexes built since the last catalog mutation;
        without them INDEX_ASSISTED is charged its full rebuild.
        """
        self._database.quantizer.validate_bin(query.bin_index)
        profile = self.profile()
        s = self.selectivity(query)
        candidates = (
            self._cost_linear_rbm(profile),
            self._cost_bwm(profile, s),
            self._cost_vectorized(profile),
            self._cost_index_assisted(profile, s, index_fresh),
        )
        ordered = tuple(
            sorted(
                candidates,
                key=lambda c: (c.estimated_cost, _TIE_BREAK[c.strategy]),
            )
        )
        chosen = ordered[0]
        return ExplainedPlan(
            query=query,
            strategy=chosen.strategy,
            estimated_cost=chosen.estimated_cost,
            selectivity=s,
            profile=profile,
            alternatives=ordered,
        )

    def _cost_linear_rbm(self, profile: CatalogProfile) -> PlanAlternative:
        cost = (
            profile.binary_count * self.COST_HISTOGRAM
            + profile.total_operations * self.COST_RULE
        )
        return PlanAlternative(
            Strategy.LINEAR_RBM,
            cost,
            f"{profile.binary_count} histogram checks + "
            f"{profile.total_operations} scalar rules",
        )

    def _cost_bwm(self, profile: CatalogProfile, s: float) -> PlanAlternative:
        mean_ops = profile.mean_operations
        cluster_ops = mean_ops * profile.main_edited
        unclassified_ops = mean_ops * profile.unclassified
        # A cluster short-circuits when its base matches (probability ≈
        # the query's selectivity); only failing clusters pay rules.
        rules = (1.0 - s) * cluster_ops + unclassified_ops
        cost = profile.binary_count * self.COST_HISTOGRAM + rules * self.COST_RULE
        return PlanAlternative(
            Strategy.BWM,
            cost,
            f"short-circuits ~{s:.0%} of {profile.main_edited} clustered "
            f"images; {profile.unclassified} unclassified always walk",
        )

    def _cost_vectorized(self, profile: CatalogProfile) -> PlanAlternative:
        cached, cached_binary = self._memoized_images(profile)
        uncached = profile.edited_count - cached
        # Fully-memoized traffic never enters the sweep, so the fixed
        # setup is only charged while some image still needs computing.
        setup = self.COST_BATCH_SETUP if uncached > 0 else 0.0
        # A memoized binary image is a row of the same matrix, read by
        # the same column compare as a memoized edited one.
        cost = (
            (profile.binary_count - cached_binary) * self.COST_HISTOGRAM
            + setup
            + uncached * profile.mean_operations * self.COST_BATCHED_RULE
            + (cached + cached_binary) * self.COST_CACHE_HIT
        )
        return PlanAlternative(
            Strategy.VECTORIZED_BATCH,
            cost,
            f"{cached}/{profile.edited_count} interval matrices memoized; "
            f"{uncached} swept by one columnar pass",
        )

    def _cost_index_assisted(
        self, profile: CatalogProfile, s: float, index_fresh: bool
    ) -> PlanAlternative:
        # Two spatial lookups: tree descent (log-ish node visits) plus
        # one visit per reported match/candidate.  Edited candidates are
        # conservatively estimated at the binary selectivity plus slack
        # for interval (not point) boxes overlapping the slab.
        binary_matches = s * profile.binary_count
        edited_candidates = min(1.0, s + 0.25) * profile.edited_count
        search = (
            self.COST_INDEX_VISIT
            * (
                math.log2(profile.binary_count + 2)
                + math.log2(profile.edited_count + 2)
            )
            + binary_matches
            + edited_candidates
        )
        if index_fresh:
            return PlanAlternative(
                Strategy.INDEX_ASSISTED,
                search,
                "point + interval indexes fresh; two spatial lookups",
            )
        cached, _ = self._memoized_images(profile)
        uncached = profile.edited_count - cached
        # The interval-index rebuild rides the same columnar sweep.
        rebuild = (
            profile.binary_count * self.COST_HISTOGRAM
            + (self.COST_BATCH_SETUP if uncached > 0 else 0.0)
            + uncached * profile.mean_operations * self.COST_BATCHED_RULE
            + (profile.binary_count + profile.edited_count) * self.COST_INDEX_VISIT
        )
        return PlanAlternative(
            Strategy.INDEX_ASSISTED,
            search + rebuild,
            "indexes stale: lookup cost plus a full rebuild",
        )

    # ------------------------------------------------------------------
    def plan_counts(self, plans) -> Dict[str, int]:
        """Histogram of chosen strategies over an iterable of plans."""
        counts: Dict[str, int] = {}
        for plan in plans:
            counts[plan.strategy.value] = counts.get(plan.strategy.value, 0) + 1
        return counts
