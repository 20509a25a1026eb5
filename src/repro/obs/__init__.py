"""repro.obs — observability for the query-serving stack.

The paper's contribution is an argument about *where time goes* (BWM
wins because most Table 1 rules only widen bounds, §4–§5); this package
makes the production stack answer the same question about itself:

* :mod:`repro.obs.trace` — context-local :class:`Tracer` with nestable
  :class:`Span` trees threaded through the full query path
  (``parse → plan → admission → lock-wait → execute → cache-publish``),
  exportable as JSON trace trees or Chrome ``trace_event`` files.  A
  global switch (:func:`set_tracing`) swaps in a no-op tracer so the
  disabled path stays out of the hot loop.
* :mod:`repro.obs.attribution` — per-query prune attribution: every
  candidate image's outcome (``pruned | must-check | exact``), the rule
  kinds applied, and which operation last widened ``[HB_min, HB_max]``
  past the query range.
* :mod:`repro.obs.metrics` — the lock-safe counter / gauge / latency-
  histogram registry every serving tier records into.
* :mod:`repro.obs.prometheus` — text-exposition rendering of the
  service metrics snapshot, plus a promtool-style validator.
* :mod:`repro.obs.events` — the structured wide-event log: one JSONL
  record per mutation, WAL append/replay, checkpoint, compaction, and
  query, ring-buffered in memory and streamed to ``events.jsonl`` on
  disk-backed roots.  It is also the query log: each read of either
  front end is one ``query`` event, and recent or slow queries are
  filtered reads of the ring.
* :mod:`repro.obs.health` — per-shard SLO monitors grading latency
  percentiles, lock-wait fractions, WAL depth, replay failures, and
  cold-row backlog into green/yellow/red verdicts.
* :mod:`repro.obs.top` — the ``repro top`` dashboard renderer.

Quick start::

    from repro.obs import tracing

    with tracing():
        outcome = service.execute("at least 25% blue")  # a QueryService
    print(outcome.trace.to_dict())           # the span tree
    print(service.prometheus_metrics())      # scrapeable exposition
"""

from repro.obs.attribution import (
    AttributionReport,
    ImageAttribution,
    OpAttribution,
    PruneOutcome,
    attribute_image,
    attribute_query,
)
from repro.obs.events import (
    EVENT_KINDS,
    EVENT_SCHEMA_VERSION,
    Event,
    EventLog,
    read_events_jsonl,
    validate_event_dict,
)
from repro.obs.health import (
    HealthMonitor,
    HealthReport,
    ShardHealth,
    SLOPolicy,
)
from repro.obs.prometheus import (
    render_prometheus,
    validate_exposition,
)
from repro.obs.top import render_top, top_payload
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    Span,
    Tracer,
    current_span,
    current_trace_id,
    maybe_tracer,
    new_trace_id,
    set_tracing,
    to_chrome_trace,
    tracing,
    tracing_enabled,
)

__all__ = [
    "AttributionReport",
    "EVENT_KINDS",
    "EVENT_SCHEMA_VERSION",
    "Event",
    "EventLog",
    "HealthMonitor",
    "HealthReport",
    "ImageAttribution",
    "NULL_SPAN",
    "NULL_TRACER",
    "OpAttribution",
    "PruneOutcome",
    "SLOPolicy",
    "ShardHealth",
    "Span",
    "Tracer",
    "attribute_image",
    "attribute_query",
    "current_span",
    "current_trace_id",
    "maybe_tracer",
    "new_trace_id",
    "read_events_jsonl",
    "render_prometheus",
    "render_top",
    "set_tracing",
    "to_chrome_trace",
    "top_payload",
    "tracing",
    "tracing_enabled",
    "validate_event_dict",
    "validate_exposition",
]
