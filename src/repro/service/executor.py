"""`QueryService` — the concurrent query-serving front end of the MMDBMS.

One service object owns a :class:`~repro.service.planner.CostBasedPlanner`
(a fixed plan), a :class:`~repro.service.cache.ResultCache`, a
:class:`~repro.obs.metrics.MetricsRegistry`, and a bounded thread
pool, and turns the library's single-threaded query machinery into a
serving layer:

* **Admission control** — at most ``max_workers + queue_depth`` queries
  may be in flight; beyond that :meth:`QueryService.submit` sheds load
  with a typed :class:`~repro.errors.ServiceOverloadedError` instead of
  letting latency collapse for everyone.
* **Deadlines** — a query carries an optional deadline; if it is still
  queued when the deadline passes, the worker refuses to start it
  (:class:`~repro.errors.QueryTimeoutError`), and a synchronous caller
  stops waiting at the same point.
* **Consistency** — queries run under the read side of a
  readers-writer lock; catalog mutations go through the service's
  mutation wrappers, which take the write side.  Mutations ride the
  database's dependency-aware ``engine.invalidate`` path, whose events
  clear the result cache and stale the spatial indexes — so a result
  computed *or cached* before a mutation is never served after it.
* **Graceful shutdown** — :meth:`QueryService.shutdown` stops admitting
  new queries immediately but drains everything already admitted.
* **A memoizing engine** — the service turns the bounds memo of the
  database it serves on (:meth:`repro.core.bounds.BoundsEngine.enable_memo`),
  so a result-cache miss reads memo rows by column instead of
  re-applying Table 1 to the whole catalog, and the first miss after a
  write fills only the rows that write dirtied.  Invalidation is the
  database's own (every mutator ends in ``engine.invalidate``), so a
  write made out of band under :meth:`QueryService.write_locked` keeps
  the memo right too.

An unforced constraint runs ``VECTORIZED_BATCH``; ``strategy=`` forces
``bwm`` or ``index_assisted``.  Every strategy returns the scalar RBM
oracle's exact result set, so forcing one affects latency only.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.core.query import QueryResult, QueryStats, RangeQuery
from repro.db.processors import and_merge
from repro.errors import (
    QueryTimeoutError,
    ServiceError,
    ServiceOverloadedError,
    ServiceShutdownError,
)
from repro.index.builders import (
    build_binary_histogram_index,
    build_edited_bounds_index,
    edited_range_candidates,
)
from repro.index.mbr import MBR
from repro.obs.attribution import AttributionReport, attribute_query
from repro.obs.events import Event, EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import render_prometheus
from repro.obs.trace import Span, Tracer, maybe_tracer
from repro.querylang.parser import parse_constraints
from repro.rwlock import ReadWriteLock
from repro.service.cache import ResultCache, cache_key
from repro.service.planner import (
    CostBasedPlanner,
    ExplainedPlan,
    PlanActuals,
    Strategy,
)

logger = logging.getLogger(__name__)

#: What callers may pass as a query: a parsed constraint, several
#: AND-composed constraints, or querylang text.
QueryLike = Union[RangeQuery, Sequence[RangeQuery], str]


@dataclass(frozen=True)
class ServiceResult:
    """What the service returns for one query."""

    #: The normalized constraints that were executed.
    constraints: Tuple[RangeQuery, ...]
    #: The result set (identical to the scalar RBM oracle's).
    result: QueryResult
    #: One plan per constraint (the plans that *produced* the cached
    #: value when ``cache_hit``).
    plans: Tuple[ExplainedPlan, ...]
    #: Whether the result came from the result cache.
    cache_hit: bool
    #: Wall-clock seconds from worker start to completion.
    seconds: float
    #: The query's span tree when tracing was enabled, else ``None``.
    trace: Optional[Span] = None

    @property
    def strategy(self) -> Strategy:
        """The strategy of the (first) executed plan."""
        return self.plans[0].strategy


@dataclass(frozen=True)
class AnalyzedQuery:
    """What :meth:`QueryService.explain_analyze` returns.

    Every plan carries :class:`~repro.service.planner.PlanActuals`
    (actual work, the strategy that actually executed, cache hits,
    latency), ``attribution`` holds one per-constraint
    prune-attribution report (or ``None`` per constraint when disabled),
    and ``trace`` is the full span tree — EXPLAIN ANALYZE is always
    traced regardless of the global switch.
    """

    constraints: Tuple[RangeQuery, ...]
    result: QueryResult
    plans: Tuple[ExplainedPlan, ...]
    attribution: Tuple[Optional[AttributionReport], ...]
    trace: Span
    seconds: float

    def describe(self) -> str:
        """The relational-style EXPLAIN ANALYZE rendering."""
        lines: List[str] = []
        for index, plan in enumerate(self.plans):
            lines.append(plan.describe())
            report = self.attribution[index]
            if report is not None:
                lines.append(report.describe())
        lines.append(
            f"TOTAL {len(self.result)} matches in {self.seconds * 1e3:.3f}ms"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready form (plans flattened through their actuals)."""
        return {
            "constraints": [repr(c) for c in self.constraints],
            "matches": sorted(self.result.matches),
            "seconds": self.seconds,
            "plans": [
                {
                    "strategy": plan.strategy.value,
                    "actuals": (
                        plan.actuals.to_dict() if plan.actuals else None
                    ),
                }
                for plan in self.plans
            ],
            "attribution": [
                report.to_dict() if report is not None else None
                for report in self.attribution
            ],
            "trace": self.trace.to_dict(),
        }


class QueryService:
    """Concurrent, planned, cached query execution over one database.

    Parameters
    ----------
    database:
        The :class:`repro.db.database.MultimediaDatabase` to serve; its
        engine memoizes from here on (it stays on after
        :meth:`shutdown`).  Mutations **must** go through this
        service's wrappers
        (:meth:`insert_image`, :meth:`insert_edited`, ...) while the
        service is live; direct database mutation bypasses the
        readers-writer lock.
    max_workers:
        Worker threads executing queries.
    queue_depth:
        Admitted-but-not-running queries allowed beyond the workers;
        submissions past ``max_workers + queue_depth`` in flight are
        shed with :class:`ServiceOverloadedError`.
    default_timeout:
        Deadline in seconds applied when a call passes none.
    cache_capacity / cache_ttl:
        Result cache sizing (see :class:`ResultCache`).
    prebuild_indexes:
        Build the point + interval indexes at construction, so a query
        forced to INDEX_ASSISTED finds them fresh.  The build is one
        all-bins BOUNDS sweep plus two STR-packed R-trees — about 35 ms
        for 1,000 binary and 3,000 edited images on a 2-vCPU VM — and
        the first forced INDEX_ASSISTED query after any write pays it
        again (:meth:`refresh_indexes`).
    clock:
        Monotonic time source (injectable for deadline/TTL tests).

    Every argument is checked before the database is touched: a refused
    construction leaves its engine's memo switch and invalidation
    listeners as it found them.
    """

    def __init__(
        self,
        database,
        *,
        max_workers: int = 4,
        queue_depth: int = 16,
        default_timeout: Optional[float] = None,
        cache_capacity: int = 256,
        cache_ttl: Optional[float] = None,
        prebuild_indexes: bool = False,
        clock: Callable[[], float] = time.monotonic,
        event_log: Optional[EventLog] = None,
    ) -> None:
        if max_workers < 1:
            raise ServiceError("max_workers must be at least 1")
        if queue_depth < 0:
            raise ServiceError("queue_depth must be non-negative")
        # Both constructors validate their arguments; neither touches
        # the engine.
        self.cache = ResultCache(
            capacity=cache_capacity, ttl=cache_ttl, clock=clock
        )
        self._database = database
        # A long-lived front end asks for the memo; up to ``max_workers``
        # readers then share it under the read lock (fills serialize on
        # the engine's own lock, valid rows are read lock-free).
        database.engine.enable_memo()
        self._clock = clock
        self._default_timeout = default_timeout
        self.planner = CostBasedPlanner(database)
        self.metrics = MetricsRegistry()
        #: Wide-event log for the service tier: one ``query`` event per
        #: :meth:`execute` / :meth:`submit` (what :meth:`slow_queries`
        #: reads) and one ``mutation`` event per write.  Pass a shared
        #: :class:`EventLog` to merge this service's timeline with a
        #: catalog's; by default each service keeps a private ring so
        #: tests stay isolated.
        self.events = event_log if event_log is not None else EventLog(capacity=256)
        self.cache.attach_to_engine(database.engine)
        self._rwlock = ReadWriteLock()
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-query"
        )
        # Admission counter only; never held across catalog access.
        self._admission = threading.Lock()
        self._in_flight = 0
        self._capacity = max_workers + queue_depth
        self._closed = False
        # Guards lazy index builds, which already run under the read lock.
        self._index_lock = threading.Lock()
        self._point_index = None
        self._interval_index = None
        self._indexes_fresh = False
        database.engine.add_invalidation_listener(self._on_invalidation)
        if prebuild_indexes:
            self.refresh_indexes()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=True)

    def shutdown(self, wait: bool = True) -> None:
        """Refuse new queries, drain in-flight ones, release threads.

        Idempotent.  With ``wait=True`` (default) the call returns only
        after every admitted query has completed — the graceful drain.
        """
        with self._admission:
            already = self._closed
            self._closed = True
        self._pool.shutdown(wait=wait)
        if not already:
            self.cache.detach()
            self._database.engine.remove_invalidation_listener(
                self._on_invalidation
            )

    def _on_invalidation(self, image_id) -> None:
        self._indexes_fresh = False

    # ------------------------------------------------------------------
    # Query entry points
    # ------------------------------------------------------------------
    def submit(
        self,
        query: QueryLike,
        *,
        timeout: Optional[float] = None,
        strategy: Optional[Union[Strategy, str]] = None,
        expand_to_bases: bool = False,
    ) -> "Future[ServiceResult]":
        """Admit a query for asynchronous execution.

        Returns a future resolving to a :class:`ServiceResult`.  Raises
        :class:`ServiceOverloadedError` (shed) or
        :class:`ServiceShutdownError` *synchronously* when the query is
        not admitted at all.
        """
        return self._admit(query, timeout, strategy, expand_to_bases, [])

    def _admit(
        self,
        query: QueryLike,
        timeout: Optional[float],
        strategy: Optional[Union[Strategy, str]],
        expand_to_bases: bool,
        timed_out: List[bool],
    ) -> "Future[ServiceResult]":
        """:meth:`submit`; ``timed_out`` is the marker the query's worker
        shares with a waiting :meth:`execute` (see :meth:`_count_timeout`)."""
        # One branch when tracing is off: NULL_TRACER's methods are
        # constant-time no-ops, so the disabled path allocates nothing.
        tracer = maybe_tracer("query")
        with tracer.span("parse"):
            constraints = self._normalize(query)
        forced = self._normalize_strategy(strategy)
        timeout = timeout if timeout is not None else self._default_timeout
        deadline = self._clock() + timeout if timeout is not None else None
        # Opened on the submitting thread, closed by the worker: its
        # duration is the admission-queue wait.
        admission = tracer.start_span("admission")
        with self._admission:
            if self._closed:
                raise ServiceShutdownError(
                    "query service is shutting down; submission refused"
                )
            if self._in_flight >= self._capacity:
                self.metrics.increment("queries_shed")
                logger.warning(
                    "load shed: %d queries in flight at capacity %d",
                    self._in_flight,
                    self._capacity,
                )
                raise ServiceOverloadedError(
                    f"service overloaded: {self._in_flight} queries in "
                    f"flight at capacity {self._capacity}"
                )
            self._in_flight += 1
        try:
            future = self._pool.submit(
                self._run, constraints, deadline, forced, expand_to_bases,
                tracer, admission, timed_out,
            )
        except BaseException as exc:
            with self._admission:
                self._in_flight -= 1
            if isinstance(exc, RuntimeError):
                # Lost the race with a concurrent shutdown(): the pool
                # refused the work after our admission check passed.
                raise ServiceShutdownError(
                    "query service shut down during submission"
                ) from None
            raise
        future.add_done_callback(self._release_slot)
        return future

    def _count_timeout(self, timed_out: List[bool]) -> None:
        """Count a query in ``queries_timed_out`` once, whichever of its
        waiter (:meth:`execute`) and its worker notices the deadline first."""
        with self._admission:
            first = not timed_out
            timed_out.append(True)
        if first:
            self.metrics.increment("queries_timed_out")

    def execute(
        self,
        query: QueryLike,
        *,
        timeout: Optional[float] = None,
        strategy: Optional[Union[Strategy, str]] = None,
        expand_to_bases: bool = False,
    ) -> ServiceResult:
        """Admit a query and wait for its result.

        The wait honors the deadline: when it passes while the query is
        still queued or running, :class:`QueryTimeoutError` is raised
        (the in-flight work is not interrupted — Python threads cannot
        be preempted — but its slot drains normally).
        """
        timeout = timeout if timeout is not None else self._default_timeout
        timed_out: List[bool] = []
        future = self._admit(query, timeout, strategy, expand_to_bases, timed_out)
        try:
            # Grace on top of the deadline so the worker-side check
            # (which fires exactly at the deadline) reports first.
            wait = timeout + 0.25 if timeout is not None else None
            return future.result(timeout=wait)
        except FutureTimeoutError:
            self._count_timeout(timed_out)
            raise QueryTimeoutError(
                f"query still running after its {timeout:.3f}s deadline"
            ) from None

    def _release_slot(self, future: "Future[ServiceResult]") -> None:
        with self._admission:
            self._in_flight -= 1

    @property
    def in_flight(self) -> int:
        """Queries admitted but not yet finished."""
        with self._admission:
            return self._in_flight

    @property
    def database(self):
        """The served database.  Read-only access is always safe; any
        mutation must happen under :meth:`write_locked` (the mutation
        wrappers below do this for you)."""
        return self._database

    @contextmanager
    def write_locked(self):
        """Hold the write side of the service's readers-writer lock.

        For out-of-band catalog mutators (or a save of the served
        database) that need the same queries-drained exclusivity the
        built-in mutation wrappers get.
        Keep the critical section short: every query waits while it is
        held, and writer preference means new readers queue behind it.
        """
        with self._rwlock.write_locked():
            yield

    # ------------------------------------------------------------------
    # Normalization
    # ------------------------------------------------------------------
    def _normalize(self, query: QueryLike) -> Tuple[RangeQuery, ...]:
        if isinstance(query, str):
            return parse_constraints(query, self._database.quantizer)
        if isinstance(query, RangeQuery):
            constraints: Tuple[RangeQuery, ...] = (query,)
        else:
            constraints = tuple(query)
        if not constraints:
            raise ServiceError("a query needs at least one constraint")
        for constraint in constraints:
            if not isinstance(constraint, RangeQuery):
                raise ServiceError(f"not a range constraint: {constraint!r}")
            self._database.quantizer.validate_bin(constraint.bin_index)
        return constraints

    @staticmethod
    def _normalize_strategy(
        strategy: Optional[Union[Strategy, str]]
    ) -> Optional[Strategy]:
        if strategy is None or isinstance(strategy, Strategy):
            return strategy
        try:
            return Strategy(strategy)
        except ValueError:
            names = ", ".join(s.value for s in Strategy)
            raise ServiceError(
                f"unknown strategy {strategy!r}; expected one of {names}"
            ) from None

    # ------------------------------------------------------------------
    # Worker path
    # ------------------------------------------------------------------
    def _run(
        self,
        constraints: Tuple[RangeQuery, ...],
        deadline: Optional[float],
        forced: Optional[Strategy],
        expand_to_bases: bool,
        tracer,
        admission,
        timed_out: List[bool],
    ) -> ServiceResult:
        tracer.finish_span(admission)
        start = self._clock()
        if deadline is not None and start >= deadline:
            self._count_timeout(timed_out)
            logger.warning(
                "query timed out in the admission queue (deadline %.3f)",
                deadline,
            )
            raise QueryTimeoutError(
                "query deadline passed while waiting in the admission queue"
            )
        key = cache_key(constraints, expand_to_bases)
        lock_wait = tracer.start_span("lock-wait")
        with self._rwlock.read_locked():
            tracer.finish_span(lock_wait)
            with tracer.span("cache-lookup"):
                cached = self.cache.get(key)
            if cached is not None:
                result, plans = cached
                seconds = self._clock() - start
                trace = self._finish_trace(tracer, cache_hit=True)
                self._record(
                    constraints, plans, seconds, cache_hit=True, trace=trace
                )
                return ServiceResult(
                    constraints, result, plans, True, seconds, trace
                )
            with tracer.span("plan"):
                plans = tuple(
                    self._plan(constraint, forced) for constraint in constraints
                )
            with tracer.span("execute") as execute_span:
                result = self._execute_plans(constraints, plans, expand_to_bases)
                if execute_span:
                    execute_span.set(
                        "strategies", [p.strategy.value for p in plans]
                    ).set("matches", len(result)).set(
                        "rules_applied", result.stats.rules_applied
                    )
            # Stored while still holding the read lock: a mutation (write
            # lock) cannot interleave between compute and publish, so the
            # cache never readmits a result from before an invalidation.
            with tracer.span("cache-publish"):
                self.cache.put(key, (result, plans))
        seconds = self._clock() - start
        trace = self._finish_trace(tracer, cache_hit=False)
        self._record(constraints, plans, seconds, cache_hit=False, trace=trace)
        return ServiceResult(constraints, result, plans, False, seconds, trace)

    def _finish_trace(self, tracer, cache_hit: bool) -> Optional[Span]:
        """Close a query's trace; fold span durations into the metrics.

        Returns the finished root span, or ``None`` when tracing was
        disabled (the null tracer finishes to ``None``).
        """
        root = tracer.finish()
        if root is None:
            return None
        root.set("cache_hit", cache_hit)
        for span in root.iter_spans():
            self.metrics.increment(f"spans.{span.name}")
            self.metrics.observe(f"span_seconds.{span.name}", span.duration)
        return root

    def _plan(
        self, constraint: RangeQuery, forced: Optional[Strategy]
    ) -> ExplainedPlan:
        plan = self.planner.plan(constraint)
        return plan if forced is None else ExplainedPlan(constraint, forced)

    def _execute_plans(
        self,
        constraints: Tuple[RangeQuery, ...],
        plans: Tuple[ExplainedPlan, ...],
        expand_to_bases: bool,
    ) -> QueryResult:
        results = [
            self._execute_one(constraint, plan)
            for constraint, plan in zip(constraints, plans)
        ]
        return and_merge(self._database.catalog, results, expand_to_bases)

    def _execute_one(self, query: RangeQuery, plan: ExplainedPlan) -> QueryResult:
        if plan.strategy is Strategy.INDEX_ASSISTED:
            return self._execute_indexed(query)
        # The served engine memoizes, so either method is one batch of
        # one through its batch processor (BatchRBMProcessor for
        # VECTORIZED_BATCH, BatchBWMProcessor for BWM).
        method = "bwm" if plan.strategy is Strategy.BWM else "rbm"
        return self._database.range_query(query, method=method)

    # ------------------------------------------------------------------
    # EXPLAIN / EXPLAIN ANALYZE
    # ------------------------------------------------------------------
    def explain(
        self,
        query: QueryLike,
        *,
        strategy: Optional[Union[Strategy, str]] = None,
    ) -> Tuple[ExplainedPlan, ...]:
        """Plan ``query`` without executing anything.

        One :class:`~repro.service.planner.ExplainedPlan` per normalized
        constraint.  Use :meth:`explain_analyze` to also execute and
        attach actuals.
        """
        constraints = self._normalize(query)
        forced = self._normalize_strategy(strategy)
        with self._rwlock.read_locked():
            return tuple(
                self._plan(constraint, forced) for constraint in constraints
            )

    def explain_analyze(
        self,
        query: QueryLike,
        *,
        strategy: Optional[Union[Strategy, str]] = None,
        expand_to_bases: bool = False,
        with_attribution: bool = True,
    ) -> AnalyzedQuery:
        """Plan, execute, and measure one query — the ANALYZE companion
        to :meth:`explain`.

        Runs synchronously on the calling thread under the read lock
        (it is a diagnostic, so it bypasses admission control and the
        result cache: the point is to measure the *plan*, not the
        cache).  Every returned plan carries
        :class:`~repro.service.planner.PlanActuals` — actual work
        units, the strategy that actually executed, latency,
        bounds-memo hits — and, with ``with_attribution`` (default), a
        per-constraint prune-attribution report whose outcome counts sum
        exactly to the candidate images evaluated.  The query is always
        traced, regardless of the global tracing switch.
        """
        constraints = self._normalize(query)
        forced = self._normalize_strategy(strategy)
        engine = self._database.engine
        tracer = Tracer("explain_analyze")
        lock_wait = tracer.start_span("lock-wait")
        with self._rwlock.read_locked():
            tracer.finish_span(lock_wait)
            with tracer.span("plan"):
                base_plans = tuple(
                    self._plan(constraint, forced) for constraint in constraints
                )
            plans: List[ExplainedPlan] = []
            results: List[QueryResult] = []
            reports: List[Optional[AttributionReport]] = []
            for index, (constraint, plan) in enumerate(
                zip(constraints, base_plans)
            ):
                # This thread's hits only: a concurrent reader's
                # would be counted too in ``engine.cache_hits``.
                hits_before = engine.thread_cache_hits
                started = self._clock()
                with tracer.span(
                    "execute", constraint=index, strategy=plan.strategy.value
                ):
                    result = self._execute_one(constraint, plan)
                elapsed = self._clock() - started
                report: Optional[AttributionReport] = None
                if with_attribution:
                    with tracer.span("attribute", constraint=index):
                        report = attribute_query(
                            self._database.catalog, engine, constraint
                        )
                    report.record_metrics(self.metrics)
                actuals = PlanActuals(
                    executed_strategy=plan.strategy.value,
                    seconds=elapsed,
                    actual_work_units=PlanActuals.work_units(result.stats),
                    matches=len(result),
                    cache_hit=False,
                    bounds_cache_hits=engine.thread_cache_hits - hits_before,
                    stats=result.stats,
                    images_pruned=(
                        report.outcome_counts()["pruned"]
                        if report is not None
                        else -1
                    ),
                    clusters_short_circuited=(
                        result.stats.clusters_short_circuited
                    ),
                )
                plans.append(plan.analyzed(actuals))
                results.append(result)
                reports.append(report)
            with tracer.span("merge"):
                merged = and_merge(
                    self._database.catalog, results, expand_to_bases
                )
        root = tracer.finish()
        self.metrics.increment("explain_analyze_total")
        return AnalyzedQuery(
            constraints=constraints,
            result=merged,
            plans=tuple(plans),
            attribution=tuple(reports),
            trace=root,
            seconds=root.duration,
        )

    # ------------------------------------------------------------------
    # Index-assisted path
    # ------------------------------------------------------------------
    def refresh_indexes(self) -> None:
        """(Re)build the point + interval indexes from the live catalog."""
        with self._index_lock:
            database = self._database
            self._point_index = build_binary_histogram_index(
                database.catalog, "rtree"
            )
            self._interval_index = build_edited_bounds_index(
                database.catalog, database.engine, "rtree"
            )
            self._indexes_fresh = True
            self.metrics.increment("index_rebuilds")

    @property
    def indexes_fresh(self) -> bool:
        """Whether the spatial indexes reflect the current catalog."""
        return self._indexes_fresh

    def _execute_indexed(self, query: RangeQuery) -> QueryResult:
        if not self._indexes_fresh:
            self.refresh_indexes()
        quantizer = self._database.quantizer
        slab = MBR.slab(
            quantizer.bin_count,
            query.bin_index,
            query.pct_min,
            query.pct_max,
            domain_lo=0.0,
            domain_hi=1.0,
        )
        binary = self._point_index.search(slab)
        edited = edited_range_candidates(
            self._interval_index, quantizer.bin_count, query
        )
        stats = QueryStats()
        stats.histograms_checked = len(binary)
        return QueryResult(frozenset(binary) | frozenset(edited), stats)

    # ------------------------------------------------------------------
    # Mutations (write side of the lock)
    # ------------------------------------------------------------------
    def insert_image(self, image, image_id: Optional[str] = None) -> str:
        """Insert a binary image; drains/queues around running queries."""
        with self._rwlock.write_locked():
            assigned = self._database.insert_image(image, image_id=image_id)
        self._record_mutation("insert_image", assigned)
        return assigned

    def insert_edited(self, sequence, image_id: Optional[str] = None) -> str:
        """Insert an edited image (edit sequence)."""
        with self._rwlock.write_locked():
            assigned = self._database.insert_edited(sequence, image_id=image_id)
        self._record_mutation("insert_edited", assigned)
        return assigned

    def delete_edited(self, image_id: str) -> None:
        """Delete an edited image."""
        with self._rwlock.write_locked():
            self._database.delete_edited(image_id)
        self._record_mutation("delete_edited", image_id)

    def delete_image(self, image_id: str) -> None:
        """Delete a binary image (fails while derived images reference it)."""
        with self._rwlock.write_locked():
            self._database.delete_image(image_id)
        self._record_mutation("delete_image", image_id)

    def update_image(self, image_id: str, image) -> None:
        """Replace a binary image's raster."""
        with self._rwlock.write_locked():
            self._database.update_image(image_id, image)
        self._record_mutation("update_image", image_id)

    def _record_mutation(self, op: str, image_id: str) -> None:
        self.metrics.increment("mutations")
        self.events.emit(
            "mutation", subsystem="service", image_id=image_id, op=op
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _record(
        self,
        constraints: Tuple[RangeQuery, ...],
        plans: Tuple[ExplainedPlan, ...],
        seconds: float,
        cache_hit: bool,
        trace: Optional[Span] = None,
    ) -> None:
        self.metrics.increment("queries_total")
        self.metrics.observe("query_seconds", seconds)
        # The query log: one event per read, hit or miss.  The span tree
        # stays on ServiceResult.trace; the event carries its id.
        self.events.emit(
            "query",
            subsystem="service",
            trace_id=(
                trace.attributes.get("trace_id") if trace is not None else None
            ),
            seconds=round(seconds, 6),
            cache_hit=cache_hit,
            strategies=[plan.strategy.value for plan in plans],
            constraints=[repr(constraint) for constraint in constraints],
        )
        if cache_hit:
            self.metrics.increment("result_cache_hits")
            return
        self.metrics.increment("result_cache_misses")
        for plan in plans:
            self.metrics.increment(f"plans.{plan.strategy.value}")

    def slow_queries(self, min_seconds: float = 0.0) -> List[Event]:
        """The service's retained ``query`` events that took at least
        ``min_seconds``, oldest-first (``0`` lists every one the event
        ring still holds)."""
        if min_seconds < 0:
            raise ServiceError(
                f"slow-query threshold must be non-negative, got {min_seconds}"
            )
        return [
            event
            for event in self.events.snapshot(kind="query")
            if event.subsystem == "service"
            and event.detail["seconds"] >= min_seconds
        ]

    def metrics_snapshot(self) -> dict:
        """One dict with service, cache, engine, and event-log counters.

        Shape: ``counters`` / ``histograms`` from the metrics registry,
        plus ``result_cache`` (LRU/TTL hit/miss counters),
        ``bounds_cache`` (the engine's memo counters, with the number
        of valid memo rows as ``vector_entries``), ``service`` (capacity
        and load), and ``events`` (the event ring's counters).  Every
        level is key-sorted, so serializing the snapshot is deterministic
        even without ``sort_keys`` — successive scrapes diff cleanly.
        """
        snapshot = self.metrics.snapshot()
        snapshot["result_cache"] = dict(sorted(self.cache.stats().items()))
        snapshot["bounds_cache"] = dict(
            sorted(self._database.engine.cache_stats().items())
        )
        snapshot["service"] = {
            "capacity": self._capacity,
            "closed": self._closed,
            "in_flight": self.in_flight,
            "indexes_fresh": self._indexes_fresh,
        }
        snapshot["events"] = self.events.stats()
        return dict(sorted(snapshot.items()))

    def prometheus_metrics(self, prefix: str = "repro") -> str:
        """The metrics snapshot in Prometheus text-exposition format.

        Serve this from a ``/metrics`` endpoint (or dump it with
        ``repro serve-stats --prometheus``); it passes the
        promtool-style validator in :mod:`repro.obs.prometheus`.
        """
        return render_prometheus(self.metrics_snapshot(), prefix=prefix)
