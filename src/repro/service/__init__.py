"""repro.service — the concurrent query-serving front end of the MMDBMS.

The library beneath this package answers one color range query several
ways (scalar RBM, BWM, the batch processors over the bounds memo, and
the spatial-index builders), all returning the same result set.  This
package is the layer that *serves* them: every constraint runs the
batch processors over the memo unless the caller forces BWM or the
spatial indexes, a bounded thread pool executes plans concurrently with
admission control and deadlines,
a normalized-query LRU+TTL cache short-circuits repeat traffic (wired
into the dependency-aware ``engine.invalidate`` channel so it can never
go stale), and a lock-safe metrics registry reports what the service is
doing.

Quick start::

    from repro.service import QueryService

    # Serving turns db's bounds memo on (as ``ShardedCatalog`` does for
    # its shards); a bare ``MultimediaDatabase()`` keeps it off.
    service = QueryService(db, max_workers=4)
    outcome = service.execute("at least 25% blue")
    print(outcome.plans[0].describe(), outcome.result.sorted_ids())
    print(service.metrics_snapshot())
    service.shutdown()
"""

from repro.obs.metrics import (
    HistogramSnapshot,
    LatencyHistogram,
    MetricsRegistry,
    percentile,
)
from repro.service.cache import CacheKey, ResultCache, cache_key
from repro.service.executor import (
    AnalyzedQuery,
    QueryService,
    ReadWriteLock,
    ServiceResult,
)
from repro.service.planner import (
    CostBasedPlanner,
    ExplainedPlan,
    PlanActuals,
    Strategy,
)

__all__ = [
    "AnalyzedQuery",
    "CacheKey",
    "CostBasedPlanner",
    "ExplainedPlan",
    "HistogramSnapshot",
    "LatencyHistogram",
    "MetricsRegistry",
    "PlanActuals",
    "QueryService",
    "ReadWriteLock",
    "ResultCache",
    "ServiceResult",
    "Strategy",
    "cache_key",
    "percentile",
]
