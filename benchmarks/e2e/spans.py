"""Timing wrappers around each layer's public functions, and the fold.

The traced pass records spans from the benchmark's own files: it swaps a
timing wrapper in for each function listed in :data:`TARGETS`, keeps the
spans in memory, and folds *self time* per layer — a span's duration
minus what its child spans cover.  ``repro.obs`` tracing stays off;
consuming the program's own span tree is a later issue.

With one client nothing contends, so a faster layer saves at most its
self-time share of the path the caller blocks on.  Spans on another
thread (a scatter-pool worker, the service's worker) hang below whatever
the client thread had open when they started; per op, only the slowest
such thread is on the blocking path, and only its spans are charged.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: ``(layer, span name, module, attribute path)``.  Functions that other
#: modules import by name are listed once per importing module, because
#: that module's global is what its callers resolve.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("querylang", "querylang.parse", "repro.querylang.parser", "parse_conjunctive_query"),
    ("planner", "planner.plan", "repro.service.planner", "CostBasedPlanner.plan"),
    ("cache", "cache.lookup", "repro.service.cache", "ResultCache.get"),
    ("cache", "cache.publish", "repro.service.cache", "ResultCache.put"),
    ("cache", "cache.flush", "repro.service.cache", "ResultCache.clear"),
    ("executor", "executor.execute", "repro.service.executor", "QueryService.execute"),
    ("executor", "executor.mutation", "repro.service.executor", "QueryService.insert_edited"),
    ("executor", "executor.mutation", "repro.service.executor", "QueryService.delete_edited"),
    ("index", "index.rebuild", "repro.service.executor", "QueryService.refresh_indexes"),
    ("index", "index.search", "repro.index.rtree", "RTree.search"),
    ("router", "router.read", "repro.shard.sharded", "ShardedCatalog.range_query"),
    ("router", "router.read", "repro.shard.sharded", "ShardedCatalog.conjunctive_query"),
    ("router", "router.read", "repro.shard.sharded", "ShardedCatalog.text_query"),
    ("router", "router.read", "repro.shard.sharded", "ShardedCatalog.range_query_batch"),
    ("router", "router.read", "repro.shard.sharded", "ShardedCatalog.knn"),
    ("router", "router.read", "repro.shard.sharded", "ShardedCatalog.similarity_range"),
    ("router", "router.mutation", "repro.shard.sharded", "ShardedCatalog.insert_image"),
    ("router", "router.mutation", "repro.shard.sharded", "ShardedCatalog.insert_edited"),
    ("router", "router.mutation", "repro.shard.sharded", "ShardedCatalog.delete_edited"),
    ("router", "router.mutation", "repro.shard.sharded", "ShardedCatalog.update_image"),
    ("router", "router.checkpoint", "repro.shard.sharded", "ShardedCatalog.save"),
    ("router", "router.open", "repro.shard.sharded", "ShardedCatalog.open"),
    ("wal", "wal.append", "repro.shard.wal", "ShardWAL.append"),
    ("compactor", "compactor.run", "repro.shard.compactor", "Compactor.run_once"),
    ("compactor", "compactor.rollback", "repro.shard.compactor", "Compactor.rollback"),
    ("processors", "processors.range", "repro.core.rbm", "RBMProcessor.process"),
    ("processors", "processors.range", "repro.core.bwm", "BWMProcessor.process"),
    ("processors", "processors.batch", "repro.core.batch", "BatchRBMProcessor.process_batch"),
    ("processors", "processors.batch", "repro.core.batch", "BatchBWMProcessor.process_batch"),
    ("bounds", "bounds.scalar", "repro.core.bounds", "BoundsEngine.bounds"),
    ("bounds", "bounds.sweep", "repro.core.bounds", "BoundsEngine.bounds_all_bins_batch"),
    ("bounds", "bounds.invalidate", "repro.core.bounds", "BoundsEngine.invalidate"),
    ("similarity", "similarity.knn", "repro.db.processors", "SimilaritySearch.knn_bounded"),
    ("similarity", "similarity.knn", "repro.db.processors", "SimilaritySearch.range_search"),
    ("editing", "editing.instantiate", "repro.editing.executor", "EditExecutor.instantiate"),
    ("color", "color.histogram", "repro.color.histogram", "ColorHistogram.of_image"),
    ("persistence", "persistence.save", "repro.db.persistence", "save_database"),
    ("persistence", "persistence.save", "repro.shard.sharded", "save_database"),
    ("persistence", "persistence.open", "repro.db.persistence", "load_database"),
    ("persistence", "persistence.open", "repro.shard.sharded", "load_database"),
    ("database", "database.mutation", "repro.db.database", "MultimediaDatabase.insert_image"),
    ("database", "database.mutation", "repro.db.database", "MultimediaDatabase.insert_edited"),
    ("database", "database.mutation", "repro.db.database", "MultimediaDatabase.delete_edited"),
    ("database", "database.mutation", "repro.db.database", "MultimediaDatabase.update_image"),
)

#: The layer of the span the harness opens around every op; its self
#: time is what no wrapped function accounts for.
HARNESS = "harness"

#: Leaf functions called tens of thousands of times a round.  A span
#: object per call cost more than the call (a cached ``bounds`` lookup
#: takes 0.7 us; tracing ``sharded_churn`` slowed its rounds by 89%), so
#: their calls are rolled up into the enclosing span: count and seconds.
ROLLED_UP = frozenset({"bounds.scalar"})

LAYER_OF = {name: layer for layer, name, _, _ in TARGETS}


class Span:
    """One timed call: name, start, end, parent, and the op it served."""

    __slots__ = ("name", "layer", "start", "end", "parent", "op", "thread", "rollup")

    def __init__(self, name: str, layer: str, parent: Optional["Span"], op: int, thread: int):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.thread = thread
        self.start = 0.0
        self.end = 0.0
        #: ``name -> [calls, seconds]`` of rolled-up leaf calls made
        #: directly from this span.
        self.rollup: Optional[Dict[str, List[float]]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Installs the wrappers and keeps finished spans in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._client = threading.get_ident()
        self._client_stack: List[Span] = []
        self._local.stack = self._client_stack
        self._op = -1
        self._installed: List[Tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------
    def install(self) -> None:
        """Swap a timing wrapper in for every target."""
        for layer, name, module_name, path in TARGETS:
            owner: object = importlib.import_module(module_name)
            *holders, attribute = path.split(".")
            for holder in holders:
                owner = getattr(owner, holder)
            # vars() keeps staticmethod/classmethod wrappers visible.
            original = vars(owner)[attribute]
            wrap = self._wrap_leaf if name in ROLLED_UP else self._wrap
            if isinstance(original, (staticmethod, classmethod)):
                wrapped: object = type(original)(wrap(original.__func__, layer, name))
            else:
                wrapped = wrap(original, layer, name)
            setattr(owner, attribute, wrapped)
            self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def _wrap(self, function: Callable[..., object], layer: str, name: str) -> Callable[..., object]:
        spans = self.spans
        clock = time.perf_counter
        ident = threading.get_ident

        @functools.wraps(function)
        def traced(*args: object, **kwargs: object) -> object:
            span = self._open(name, layer, ident())
            span.start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                span.end = clock()
                self._local.stack.pop()
                spans.append(span)

        return traced

    def _wrap_leaf(self, function: Callable[..., object], layer: str, name: str) -> Callable[..., object]:
        local = self._local
        clock = time.perf_counter

        @functools.wraps(function)
        def counted(*args: object, **kwargs: object) -> object:
            stack = getattr(local, "stack", None)
            if not stack:
                return function(*args, **kwargs)  # nobody to charge it to
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                seconds = clock() - started
                parent = stack[-1]
                if parent.rollup is None:
                    parent.rollup = {}
                entry = parent.rollup.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += seconds

        return counted

    def _open(self, name: str, layer: str, thread: int) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent: Optional[Span] = stack[-1]
        elif thread != self._client and self._client_stack:
            # First span on a worker thread: it serves whatever the one
            # client has open right now.
            parent = self._client_stack[-1]
        else:
            parent = None
        span = Span(name, layer, parent, self._op, thread)
        stack.append(span)
        return span

    # -- per-op root spans --------------------------------------------------
    def begin_op(self, index: int) -> None:
        self._op = index
        span = self._open("op", HARNESS, self._client)
        span.start = time.perf_counter()

    def end_op(self) -> None:
        span = self._client_stack.pop()
        span.end = time.perf_counter()
        self.spans.append(span)

    def take(self) -> List[Span]:
        """The spans recorded since the last call, oldest first."""
        taken = self.spans[:]
        del self.spans[: len(taken)]
        return taken


def blocking_spans(spans: Sequence[Span]) -> List[Span]:
    """Spans on the path the client blocks on.

    All client-thread spans, plus — per op — the spans of the one worker
    thread that was busy longest.
    """
    client = [span for span in spans if span.name == "op"]
    client_thread = client[0].thread if client else None
    busy: Dict[Tuple[int, int], float] = {}
    for span in spans:
        crosses = span.parent is not None and span.parent.thread != span.thread
        if span.thread != client_thread and crosses:
            key = (span.op, span.thread)
            busy[key] = busy.get(key, 0.0) + span.duration
    slowest: Dict[int, int] = {}
    for (op, thread), seconds in busy.items():
        if op not in slowest or seconds > busy[(op, slowest[op])]:
            slowest[op] = thread
    return [
        span
        for span in spans
        if span.thread == client_thread or slowest.get(span.op) == span.thread
    ]


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """``id(span) -> duration minus the time its child spans cover``."""
    remaining = {id(span): span.duration for span in spans}
    for span in spans:
        if span.parent is not None and id(span.parent) in remaining:
            remaining[id(span.parent)] -= span.duration
    return remaining


def call_totals(spans: Sequence[Span]) -> Dict[str, Tuple[int, float]]:
    """``span name -> (calls, summed duration)``, rolled-up calls included."""
    totals: Dict[str, Tuple[int, float]] = {}

    def add(name: str, calls: float, seconds: float) -> None:
        count, total = totals.get(name, (0, 0.0))
        totals[name] = (count + int(calls), total + seconds)

    for span in spans:
        add(span.name, 1, span.duration)
        for name, (calls, seconds) in (span.rollup or {}).items():
            add(name, calls, seconds)
    return totals


def fold(spans: Sequence[Span]) -> Tuple[Dict[str, float], Dict[str, Tuple[int, float]]]:
    """Self seconds per layer along the blocking path; calls per name.

    The calls are over *all* spans, parallel ones included: a call count
    is work done, not time waited for.
    """
    path = blocking_spans(spans)
    remaining = self_times(path)
    layers: Dict[str, float] = {}
    for span in path:
        own = remaining[id(span)]
        for name, (_, seconds) in (span.rollup or {}).items():
            own -= seconds
            layers[LAYER_OF[name]] = layers.get(LAYER_OF[name], 0.0) + seconds
        layers[span.layer] = layers.get(span.layer, 0.0) + own
    return layers, call_totals(spans)


def export(spans: Sequence[Span]) -> List[dict]:
    """JSON-ready spans; ``parent`` is an index into the same list."""
    index = {id(span): position for position, span in enumerate(spans)}
    return [
        {
            "name": span.name,
            "layer": span.layer,
            "start": span.start,
            "end": span.end,
            "parent": index.get(id(span.parent)) if span.parent is not None else None,
            "op": span.op,
            "thread": span.thread,
            "rollup": span.rollup,
        }
        for span in spans
    ]
