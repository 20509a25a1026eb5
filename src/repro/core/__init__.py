"""The paper's contribution: Table 1 rules, BOUNDS, RBM, and BWM."""

from repro.core.bounds import (
    AllBinsBounds,
    BoundsEngine,
    BoundsMatrix,
    BoundsStore,
    PixelBounds,
)
from repro.core.bwm import BWMProcessor, BWMStructure, OrderedIdSet
from repro.core.classify import (
    first_non_widening,
    is_bound_widening,
    sequence_is_bound_widening,
)
from repro.core.batch import BatchBWMProcessor, BatchRBMProcessor
from repro.core.optable import (
    BatchRuleContext,
    BatchRuleState,
    CatalogOpTable,
    OpTableManager,
    SweepOutcome,
    apply_rule_batched,
    sweep_table,
)
from repro.core.query import (
    CatalogView,
    ConjunctiveQuery,
    QueryResult,
    QueryStats,
    RangeQuery,
)
from repro.core.rbm import RBMProcessor
from repro.core.rules import (
    RuleContext,
    RuleState,
    apply_rule,
    describe_rule,
    initial_state,
)

__all__ = [
    "AllBinsBounds",
    "BWMProcessor",
    "BWMStructure",
    "BoundsEngine",
    "BoundsMatrix",
    "BatchBWMProcessor",
    "BatchRBMProcessor",
    "BatchRuleContext",
    "BatchRuleState",
    "BoundsStore",
    "CatalogOpTable",
    "CatalogView",
    "OpTableManager",
    "SweepOutcome",
    "ConjunctiveQuery",
    "OrderedIdSet",
    "PixelBounds",
    "QueryResult",
    "QueryStats",
    "RBMProcessor",
    "RangeQuery",
    "RuleContext",
    "RuleState",
    "apply_rule",
    "apply_rule_batched",
    "sweep_table",
    "describe_rule",
    "first_non_widening",
    "initial_state",
    "is_bound_widening",
    "sequence_is_bound_widening",
]
