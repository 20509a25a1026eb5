"""Low-overhead query tracing: nestable spans with two export formats.

The paper's whole argument is about *where time goes* (§5 measures work,
not just wall time), and the serving stack accumulated enough moving
parts — parser, planner, admission queue, readers-writer lock, four
execution strategies, result cache — that an aggregate latency histogram
can no longer answer "why was this query slow?".  This module provides
the span primitive the query service and the shard router thread
through their query paths:

* :class:`Span` — one named, timed phase with attributes, children, and
  a parent link; ``duration`` is wall time, ``self_time`` subtracts the
  children (so a trace tree accounts for every microsecond exactly once).
* :class:`Tracer` — builds one span tree per query.  Spans nest through
  a context-manager API (:meth:`Tracer.span`) or explicitly
  (:meth:`Tracer.start_span` / :meth:`Tracer.finish_span`) for phases
  that start on one thread and end on another (the admission queue wait).
* **Context-local current span** — :func:`current_span` lets deep layers
  annotate the active span without plumbing a tracer through every
  signature; it is a :class:`contextvars.ContextVar`, so concurrent
  queries on different threads never see each other's spans.
* **Global switch** — :func:`set_tracing` / :func:`tracing_enabled`.
  When tracing is off, :func:`maybe_tracer` returns the singleton
  :data:`NULL_TRACER` whose every method is a constant-time no-op, so
  the disabled hot path pays one branch and zero allocations per query.

Export: :meth:`Span.to_dict` gives a JSON trace tree;
:func:`to_chrome_trace` renders one or more trees as a Chrome
``trace_event`` file (load it in ``chrome://tracing`` or Perfetto).
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Union

from repro.errors import ObservabilityError

#: Microseconds per second (Chrome trace_event timestamps are in µs).
_US = 1e6

_enabled = False
_enabled_lock = threading.Lock()

#: Process-wide trace-id allocator.  ``itertools.count`` is thread-safe
#: under the GIL (one atomic ``__next__`` per id), so ids stay unique
#: across concurrent queries without a lock on the hot path.
_trace_ids = itertools.count(1)


def new_trace_id() -> str:
    """A fresh process-unique trace id (``trace-00000007``-style).

    Trace ids are the cross-subsystem lineage key: the sharded catalog
    stamps them onto WAL records, and the wide-event log carries them on
    every event (a compaction cycle's events all carry the cycle's id) —
    so a slow query, the WAL record behind it, and the background work
    that preceded it all join on one value.
    """
    return f"trace-{next(_trace_ids):08d}"


def set_tracing(enabled: bool) -> bool:
    """Turn tracing on or off globally; returns the previous setting."""
    global _enabled
    with _enabled_lock:
        previous = _enabled
        _enabled = bool(enabled)
    return previous


def tracing_enabled() -> bool:
    """Whether :func:`maybe_tracer` currently returns live tracers."""
    return _enabled


@contextmanager
def tracing(enabled: bool = True):
    """Temporarily toggle tracing (tests and one-off diagnostics)::

        with tracing():
            outcome = service.execute("at least 25% blue")
        print(outcome.trace.to_dict())
    """
    previous = set_tracing(enabled)
    try:
        yield
    finally:
        set_tracing(previous)


class Span:
    """One named, timed phase of a query, with attributes and children.

    Spans are created by a :class:`Tracer`; ``start``/``end`` are
    ``time.perf_counter()`` readings (seconds).  An unfinished span has
    ``end is None``.
    """

    __slots__ = ("name", "start", "end", "attributes", "children", "parent")

    def __init__(self, name: str, start: float, parent: Optional["Span"] = None) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attributes: Dict[str, Any] = {}
        self.children: List["Span"] = []
        self.parent = parent

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Wall seconds from start to end (0.0 while unfinished)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the children's durations (time spent *here*).

        Never negative: clamped at zero so clock jitter between nested
        ``perf_counter`` reads cannot produce a nonsensical value.
        """
        return max(0.0, self.duration - sum(c.duration for c in self.children))

    def set(self, key: str, value: Any) -> "Span":
        """Attach one attribute; returns ``self`` for chaining."""
        self.attributes[key] = value
        return self

    def iter_spans(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def child(self, name: str) -> "Span":
        """The first direct child with ``name`` (for tests and reports)."""
        for candidate in self.children:
            if candidate.name == name:
                return candidate
        raise ObservabilityError(
            f"span {self.name!r} has no child {name!r} "
            f"(children: {[c.name for c in self.children]})"
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready trace tree rooted at this span.

        Times are seconds relative to *this* span's start, so the tree
        is self-contained and diffs cleanly between runs.
        """
        return self._to_dict(self.start)

    def _to_dict(self, origin: float) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start - origin,
            "duration": self.duration,
            "self_time": self.self_time,
            "attributes": dict(self.attributes),
            "children": [c._to_dict(origin) for c in self.children],
        }

    def __repr__(self) -> str:
        state = f"{self.duration * 1e3:.3f}ms" if self.finished else "open"
        return f"Span({self.name!r}, {state}, {len(self.children)} children)"


#: Context-local handle to the innermost live span, so deep layers can
#: annotate without threading a tracer through every call signature.
_current_span: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_current_span", default=None
)


class _NullSpan:
    """The do-nothing span returned wherever tracing is disabled."""

    __slots__ = ()
    name = "null"
    start = 0.0
    end = 0.0
    attributes: Dict[str, Any] = {}
    children: List[Span] = []
    parent = None
    finished = True
    duration = 0.0
    self_time = 0.0

    def set(self, key: str, value: Any) -> "_NullSpan":
        return self

    def iter_spans(self):
        return iter(())

    def to_dict(self) -> Dict[str, Any]:
        return {}

    def __repr__(self) -> str:
        return "NULL_SPAN"

    def __bool__(self) -> bool:
        # Lets callers write ``if span:`` to skip attribute formatting work.
        return False


#: Shared no-op span (falsy, immutable, reusable).
NULL_SPAN = _NullSpan()


def current_span() -> Union[Span, _NullSpan]:
    """The innermost span opened on this context, or :data:`NULL_SPAN`.

    Always safe to call and always safe to ``.set()`` on the result —
    outside any traced region the attributes land on the shared no-op.
    """
    span = _current_span.get()
    return span if span is not None else NULL_SPAN


class Tracer:
    """Builds one span tree for one query.

    A tracer is *not* shared between concurrent queries — each query
    gets its own (that is what keeps recording lock-free).  A single
    query may hand its tracer across threads (submit thread → worker
    thread) as long as the handoff is sequential, which the service's
    future-based lifecycle guarantees.
    """

    __slots__ = ("root", "trace_id", "_stack", "_clock")

    def __init__(
        self,
        name: str = "query",
        clock: Callable[[], float] = time.perf_counter,
        trace_id: Optional[str] = None,
    ) -> None:
        self._clock = clock
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self.root = Span(name, clock())
        self.root.attributes["trace_id"] = self.trace_id
        self._stack: List[Span] = [self.root]

    # ------------------------------------------------------------------
    @property
    def current(self) -> Span:
        """The innermost open span (the root until children open)."""
        return self._stack[-1]

    @contextmanager
    def span(self, name: str, **attributes: Any):
        """Open a child span for the ``with`` body; close it on exit.

        The span is also published to :func:`current_span` for the
        body's dynamic extent.
        """
        span = self.start_span(name, **attributes)
        token = _current_span.set(span)
        try:
            yield span
        finally:
            _current_span.reset(token)
            self.finish_span(span)

    def start_span(self, name: str, **attributes: Any) -> Span:
        """Open a child span explicitly (for cross-thread phases)."""
        span = Span(name, self._clock(), parent=self.current)
        if attributes:
            span.attributes.update(attributes)
        self.current.children.append(span)
        self._stack.append(span)
        return span

    def finish_span(self, span: Span) -> Span:
        """Close an explicitly started span (and any still-open children)."""
        end = self._clock()
        while self._stack:
            top = self._stack.pop()
            if top.end is None:
                top.end = end
            if top is span:
                return span
        raise ObservabilityError(
            f"span {span.name!r} is not open on this tracer"
        )

    def finish(self) -> Span:
        """Close every open span and return the finished root."""
        end = self._clock()
        while self._stack:
            top = self._stack.pop()
            if top.end is None:
                top.end = end
        return self.root


class _NullTracer:
    """Constant-time stand-in used when tracing is globally disabled."""

    __slots__ = ()
    root = NULL_SPAN
    current = NULL_SPAN
    trace_id: Optional[str] = None

    @contextmanager
    def span(self, name: str, **attributes: Any):
        yield NULL_SPAN

    def start_span(self, name: str, **attributes: Any) -> _NullSpan:
        return NULL_SPAN

    def finish_span(self, span: Any) -> _NullSpan:
        return NULL_SPAN

    def finish(self) -> None:
        return None

    def __repr__(self) -> str:
        return "NULL_TRACER"

    def __bool__(self) -> bool:
        return False


#: Shared no-op tracer (falsy, stateless, reusable).
NULL_TRACER = _NullTracer()


def maybe_tracer(
    name: str = "query", trace_id: Optional[str] = None
) -> Union[Tracer, _NullTracer]:
    """A live :class:`Tracer` when tracing is enabled, else :data:`NULL_TRACER`."""
    return Tracer(name, trace_id=trace_id) if _enabled else NULL_TRACER


def current_trace_id() -> Optional[str]:
    """The trace id of the trace enclosing this call, or ``None``.

    Walks from the context-local :func:`current_span` to its root, where
    :class:`Tracer` stamps the id.  This is how subsystems that never
    see the tracer object (the WAL, the compactor's per-image events)
    inherit lineage: they call this at the moment they write a
    record, and outside any traced region it cheaply returns ``None``.
    """
    span = _current_span.get()
    if span is None:
        return None
    while span.parent is not None:
        span = span.parent
    value = span.attributes.get("trace_id")
    return str(value) if value is not None else None


# ----------------------------------------------------------------------
# Chrome trace_event export
# ----------------------------------------------------------------------
def to_chrome_trace(
    spans: Union[Span, Sequence[Span]],
    process_name: str = "repro",
) -> Dict[str, Any]:
    """Render finished span trees as a Chrome ``trace_event`` document.

    The returned dict serializes directly with :func:`json.dumps` and
    loads in ``chrome://tracing`` / Perfetto.  Each root tree becomes
    one "thread" row (``tid`` = tree index) of complete events
    (``ph="X"``) with microsecond timestamps relative to the earliest
    root, so concurrent queries line up on a shared clock.
    """
    roots = [spans] if isinstance(spans, Span) else list(spans)
    if not roots:
        raise ObservabilityError("no spans to export")
    origin = min(root.start for root in roots)
    events: List[Dict[str, Any]] = [
        {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
         "args": {"name": process_name}},
    ]
    for tid, root in enumerate(roots):
        for span in root.iter_spans():
            events.append(
                {
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "name": span.name,
                    "ts": (span.start - origin) * _US,
                    "dur": span.duration * _US,
                    "args": dict(span.attributes),
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
