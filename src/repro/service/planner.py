"""The service's query plan: a fixed strategy per constraint.

:class:`~repro.service.QueryService` always serves a memoizing engine
(:meth:`repro.core.bounds.BoundsEngine.enable_memo`), and on such an
engine a range query is answered by the batch processors of
:mod:`repro.core.batch` — a validity check over the memo rows, a column
gather and two compares — whichever method is asked for.  So which
strategy runs is not a cost decision:

* ``VECTORIZED_BATCH`` — the plan of every unforced constraint:
  :class:`~repro.core.batch.BatchRBMProcessor` over the memo rows, with
  the columnar op-table sweep filling the rows a write dirtied;
* ``BWM`` — the paper's §4 method, forced with ``strategy="bwm"``: the
  same column compare with Figure 2's cluster short-circuit applied as
  a ``queries x clusters`` mask;
* ``INDEX_ASSISTED`` — forced with ``strategy="index_assisted"``: two
  spatial lookups over the service's point and interval indexes.

Every strategy returns the scalar RBM oracle's result set
(property-tested), so forcing one changes latency only.  EXPLAIN names
the plan; EXPLAIN ANALYZE attaches :class:`PlanActuals` — what ran, how
long it took and the §5 work it did.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.core.query import QueryStats, RangeQuery


class Strategy(enum.Enum):
    """Execution strategies the service can run."""

    BWM = "bwm"
    VECTORIZED_BATCH = "vectorized_batch"
    INDEX_ASSISTED = "index_assisted"


@dataclass(frozen=True)
class PlanActuals:
    """Post-execution measurements for one plan — the ANALYZE half."""

    #: The strategy that actually ran (the plan's, or the cache).
    executed_strategy: str
    #: Wall seconds for this constraint's execution.
    seconds: float
    #: Actual work in §5 units (:meth:`work_units`).
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
        """§5 work units of one execution's counters: one per histogram
        check, one per scalar rule application."""
        return float(stats.histograms_checked + stats.rules_applied)

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
    """The plan for one constraint.

    ``actuals`` is ``None`` for a plain EXPLAIN and carries the
    post-execution measurements after EXPLAIN ANALYZE
    (:meth:`repro.service.QueryService.explain_analyze`).
    """

    query: RangeQuery
    strategy: Strategy
    actuals: Optional[PlanActuals] = None

    def analyzed(self, actuals: PlanActuals) -> "ExplainedPlan":
        """A copy of this plan carrying post-execution actuals."""
        return replace(self, actuals=actuals)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (``repro explain --json``)."""
        return {
            "query": repr(self.query),
            "strategy": self.strategy.value,
            "actuals": (
                self.actuals.to_dict() if self.actuals is not None else None
            ),
        }

    def describe(self) -> str:
        """Human-readable PLAN output."""
        lines = [f"PLAN {self.query!r}", f"  strategy: {self.strategy.value}"]
        if self.actuals is not None:
            actual = self.actuals
            lines.append(
                f"  executed: {actual.executed_strategy} in "
                f"{actual.seconds * 1e3:.3f}ms "
                f"({'result-cache hit' if actual.cache_hit else 'computed'})"
            )
            lines.append(
                f"  actual work: {actual.actual_work_units:.1f} units; "
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
    """Plans each constraint of a service query.

    The plan is fixed (see the module docstring): planning validates the
    constraint's bin and reads nothing else, so it costs the same on any
    catalog.  The benchmark's traced pass times :meth:`plan` as the
    planner layer under this name.
    """

    def __init__(self, database) -> None:
        self._database = database

    def plan(self, query: RangeQuery) -> ExplainedPlan:
        """The plan of one unforced constraint: ``VECTORIZED_BATCH``."""
        self._database.quantizer.validate_bin(query.bin_index)
        return ExplainedPlan(query, Strategy.VECTORIZED_BATCH)
