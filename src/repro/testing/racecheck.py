"""Dynamic concurrency checking: lock usage and lock order, observed on
the same instrumented locks.

Opt-in instrumentation wraps the repo's locks and shared structures and
records which locks each thread holds at every acquisition and access.

* **Usage** (``CC004``): the classic Eraser lockset algorithm (Savage et
  al.).  A location's *candidate lockset* starts as "whatever the first
  sharing access held" and is intersected at every subsequent access;
  when it goes empty while the location is written by multiple threads,
  no single lock protected it — a data race on *every* run of the racy
  code, not just on the schedules a stress test happens to provoke.
* **Order** (``CC001``): every acquisition adds an edge from each lock
  the thread already holds to the one it takes, between lock *instances*
  (``shard[0].rwlock`` → ``shard[1].rwlock``, so a lock family always
  taken in index order is acyclic).  A cycle is two orders that can
  deadlock on some schedule, even though this run did not; a
  non-reentrant :class:`TrackedLock` re-acquired by its holder is a
  self-cycle, recorded and raised instead of hanging.  The graph covers
  the paths the scenarios exercise, callables and listeners included;
  the ``test_shipped_graph_is_not_vacuous`` floor test pins the edges
  they must observe.

Refinements over plain Eraser:

* The Virgin → Exclusive → Shared → Shared-Modified state machine
  suppresses single-thread initialization noise.
* Light happens-before edges: threads spawned through
  :meth:`RaceMonitor.spawn` / joined through :meth:`RaceMonitor.join`
  transfer exclusive ownership across fork/join.  This is a harness,
  not a vector-clock TSan: other edges (queues, events) are not
  modeled, so code using them needs its accesses genuinely locked to
  stay quiet — which is the repo's discipline anyway.
* Read accesses intersect against *all* held locks; write accesses only
  against write-held ones — writing under the read side of a
  :class:`~repro.rwlock.ReadWriteLock` is not synchronization.

Both report through the shared
:class:`~repro.analysis.findings.AnalysisReport` machinery.  ``repro
race-check`` runs the built-in stress scenarios (metrics registry,
event ring, query service, sharded catalog) and must report neither; a
worker that raises or outlives its join fails the run.
"""

from __future__ import annotations

import contextlib
import os
import re
import sys
import threading
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    MutableMapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro import rwlock as _rwlock_module
from repro.analysis.ast_lint import LintRule
from repro.analysis.findings import AnalysisReport, Finding, Severity

#: The lock-order rule (same shape as the AST linter's registry).
LOCK_ORDER_RULE = LintRule(
    code="CC001",
    summary="lock-order cycle (potential deadlock)",
    path_scope="",
    fix_hint=(
        "acquire the locks of the cycle in one global order everywhere "
        "(a family of like locks in ascending index order)"
    ),
)

#: Frames skipped when attributing an event to a source site: this
#: module, and the lock plumbing an instrumented acquisition runs through.
_PLUMBING_FILES = frozenset(
    {__file__, _rwlock_module.__file__, contextlib.__file__}
)

#: ``(holding, acquiring)`` lock ids.
Edge = Tuple[str, str]


def _caller_site() -> str:
    """``path:line`` of the nearest frame outside the lock plumbing."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if filename not in _PLUMBING_FILES:
            return f"{filename}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>:0"


def lock_class(lock_id: str) -> str:
    """The class of a lock instance id: ``shard[1].rwlock`` → ``shard.rwlock``."""
    return re.sub(r"\[[^\]]*\]", "", lock_id)


def _cycles(edges: Iterable[Edge]) -> List[Tuple[str, ...]]:
    """The strongly connected components that contain a cycle, each as
    a sorted tuple, in sorted order (a self-edge is a one-lock cycle)."""
    successors: Dict[str, Set[str]] = {}
    for holding, acquiring in edges:
        successors.setdefault(holding, set()).add(acquiring)
    reachable: Dict[str, Set[str]] = {}
    for start in successors:
        seen: Set[str] = set()
        stack = list(successors[start])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(successors.get(node, ()))
        reachable[start] = seen
    components = {
        tuple(sorted(m for m in reachable[node] if node in reachable.get(m, ())))
        for node in successors
        if node in reachable[node]
    }
    return sorted(components)


@dataclass
class _HeldLocks:
    """Per-thread multiset of held locks, split by mode."""

    read: Dict[str, int] = field(default_factory=dict)
    write: Dict[str, int] = field(default_factory=dict)

    def acquire(self, lock_id: str, mode: str) -> None:
        table = self.write if mode == "write" else self.read
        table[lock_id] = table.get(lock_id, 0) + 1

    def release(self, lock_id: str, mode: str) -> None:
        table = self.write if mode == "write" else self.read
        count = table.get(lock_id, 0) - 1
        if count > 0:
            table[lock_id] = count
        else:
            table.pop(lock_id, None)

    def write_held(self) -> Set[str]:
        return set(self.write)

    def any_held(self) -> Set[str]:
        return set(self.read) | set(self.write)

    def holds(self, lock_id: str) -> bool:
        return lock_id in self.write or lock_id in self.read


@dataclass
class _LocationState:
    """Eraser state for one tracked location."""

    state: str = "virgin"  # exclusive / shared / shared-modified / reported
    owner: int = 0
    last_clock: int = 0
    lockset: Optional[Set[str]] = None


@dataclass(frozen=True)
class Race:
    """One detected lockset violation."""

    structure: str
    operation: str  # "read" or "write"
    thread: str
    first_thread: str
    site: str

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class RaceCheckReport(AnalysisReport):
    """A race-check report: the findings plus the lock-order edges seen.

    The edges are the evidence that a clean CC001 verdict is not
    vacuous; ``class_edges`` folds lock instances into their classes.
    """

    #: ``(holding, acquiring)`` lock ids -> first acquisition site.
    lock_edges: Dict[Edge, str] = field(default_factory=dict)

    def class_edges(self) -> List[Edge]:
        return sorted({(lock_class(a), lock_class(b)) for a, b in self.lock_edges})

    def describe(self, limit: Optional[int] = None) -> str:
        edges = len(self.lock_edges)
        return f"{super().describe(limit)}\n  lock order: {edges} edges observed"

    def to_dict(self) -> Dict[str, Any]:
        payload = super().to_dict()
        payload["lock_edges"] = [
            {"holding": holding, "acquiring": acquiring, "site": site}
            for (holding, acquiring), site in sorted(self.lock_edges.items())
        ]
        payload["class_edges"] = [f"{a} -> {b}" for a, b in self.class_edges()]
        return payload


class RaceMonitor:
    """Collects lock and access events; runs the lockset algorithm and
    keeps the lock-order graph.

    One monitor per scenario.  All its own state is guarded by a single
    internal mutex — the monitor serializes tracked accesses, which
    perturbs timing but never the lockset verdict (the algorithm is
    schedule-independent by construction).
    """

    def __init__(self) -> None:
        self._guard = threading.Lock()
        self._clock = 0
        self._local = threading.local()
        self._names: Dict[int, str] = {}
        self._started: Dict[int, int] = {}
        self._joined: Dict[int, int] = {}
        self._failures: Dict[int, BaseException] = {}
        self._locations: Dict[str, _LocationState] = {}
        self._races: List[Race] = []
        self._edges: Dict[Edge, str] = {}
        self.accesses = 0

    # -- clocks and threads --------------------------------------------
    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _held(self) -> _HeldLocks:
        held = getattr(self._local, "held", None)
        if held is None:
            held = _HeldLocks()
            self._local.held = held
        return held

    def thread_name(self, ident: Optional[int] = None) -> str:
        ident = threading.get_ident() if ident is None else ident
        return self._names.get(ident, f"thread-{ident}")

    def spawn(
        self,
        target: Callable[..., None],
        *args: Any,
        name: str,
    ) -> threading.Thread:
        """Start ``target`` on a new thread with a fork edge recorded;
        an exception it raises is kept for :meth:`join`."""
        with self._guard:
            birth = self._tick()

        def runner() -> None:
            ident = threading.get_ident()
            with self._guard:
                self._names[ident] = name
                self._started[ident] = birth
            try:
                target(*args)
            except BaseException as exc:  # re-raised by join()
                with self._guard:
                    self._failures[ident] = exc

        thread = threading.Thread(target=runner, name=name, daemon=True)
        thread.start()
        return thread

    def join(self, thread: threading.Thread, timeout: float = 30.0) -> None:
        """Join ``thread`` with the join edge recorded; raise what its
        target raised, or ``RuntimeError`` (recording no edge) when it is
        still running after ``timeout`` seconds — a deadlock must fail."""
        thread.join(timeout)
        if thread.is_alive():
            raise RuntimeError(
                f"race-check worker {thread.name!r} still running after "
                f"{timeout:g}s (deadlocked or hung)"
            )
        ident = thread.ident
        if ident is None:
            return
        with self._guard:
            self._joined[ident] = self._tick()
            failure = self._failures.pop(ident, None)
        if failure is not None:
            raise failure

    # -- lock events (called by instrumented locks) ----------------------
    def before_mutex_acquire(self, lock_id: str) -> None:
        """Called before a blocking acquire of a non-reentrant lock: when
        the thread already holds it, record the self-cycle and raise
        instead of blocking for ever."""
        if self._held().holds(lock_id):
            site = _caller_site()
            with self._guard:
                self._edges.setdefault((lock_id, lock_id), site)
            raise RuntimeError(
                f"{lock_id} re-acquired by the thread holding it at {site} "
                f"(self-deadlock on a non-reentrant lock)"
            )

    def on_acquire(self, lock_id: str, mode: str) -> None:
        held = self._held()
        if not held.holds(lock_id):  # re-entry orders nothing
            with self._guard:
                for holding in held.any_held():
                    if (holding, lock_id) not in self._edges:
                        self._edges[(holding, lock_id)] = _caller_site()
        held.acquire(lock_id, mode)

    def on_release(self, lock_id: str, mode: str) -> None:
        self._held().release(lock_id, mode)

    # -- accesses ---------------------------------------------------------
    def on_access(
        self,
        structure: str,
        key: Optional[object],
        is_write: bool,
    ) -> None:
        location_id = (
            structure if key is None else f"{structure}[{key!r}]"
        )
        held = self._held()
        relevant = held.write_held() if is_write else held.any_held()
        ident = threading.get_ident()
        site = _caller_site()
        with self._guard:
            self.accesses += 1
            now = self._tick()
            loc = self._locations.get(location_id)
            if loc is None:
                loc = _LocationState()
                self._locations[location_id] = loc
            if loc.state == "reported":
                return
            if loc.state == "virgin":
                loc.state = "exclusive"
                loc.owner = ident
                loc.last_clock = now
                return
            if loc.state == "exclusive":
                if ident == loc.owner or self._ordered(loc, ident):
                    loc.owner = ident
                    loc.last_clock = now
                    return
                # Second thread: the location is genuinely shared now.
                loc.lockset = set(relevant)
                loc.state = "shared-modified" if is_write else "shared"
                loc.last_clock = now
                if is_write and not loc.lockset:
                    self._report(loc, location_id, "write", ident, site)
                return
            assert loc.lockset is not None
            loc.lockset &= relevant
            loc.last_clock = now
            if is_write:
                loc.state = "shared-modified"
            if loc.state == "shared-modified" and not loc.lockset:
                self._report(
                    loc,
                    location_id,
                    "write" if is_write else "read",
                    ident,
                    site,
                )

    def _ordered(self, loc: _LocationState, accessor: int) -> bool:
        """Fork/join happens-before between the owner's accesses and now."""
        started = self._started.get(accessor)
        if started is not None and started > loc.last_clock:
            return True  # accessor was spawned after every prior access
        joined = self._joined.get(loc.owner)
        if joined is not None and joined > loc.last_clock:
            return True  # owner was joined since its last access
        return False

    def _report(
        self,
        loc: _LocationState,
        location_id: str,
        operation: str,
        ident: int,
        site: str,
    ) -> None:
        loc.state = "reported"
        self._races.append(
            Race(
                structure=location_id,
                operation=operation,
                thread=self.thread_name(ident),
                first_thread=self.thread_name(loc.owner),
                site=site,
            )
        )

    # -- results ----------------------------------------------------------
    @property
    def races(self) -> List[Race]:
        with self._guard:
            return list(self._races)

    @property
    def lock_edges(self) -> Dict[Edge, str]:
        """Observed ``(holding, acquiring)`` edges -> first acquisition site."""
        with self._guard:
            return dict(self._edges)

    def extend_report(self, report: AnalysisReport) -> None:
        report.subjects_examined += len(self._locations)
        for race in self.races:
            report.add(
                Finding(
                    code="CC004",
                    severity=Severity.ERROR,
                    location=race.site,
                    message=(
                        f"unsynchronized {race.operation} of "
                        f"{race.structure}: no lock is held in common "
                        f"with the other threads touching it "
                        f"(this access by {race.thread}, first owner "
                        f"{race.first_thread})"
                    ),
                    fix_hint=(
                        "guard every access to the structure with its "
                        "one owning lock (write side for mutations)"
                    ),
                    details=race.to_dict(),
                )
            )
        edges = self.lock_edges
        for cycle in _cycles(edges):
            members = set(cycle)
            sites = [
                {"holding": holding, "acquiring": acquiring, "site": site}
                for (holding, acquiring), site in sorted(edges.items())
                if holding in members and acquiring in members
            ]
            report.add(
                Finding(
                    code=LOCK_ORDER_RULE.code,
                    severity=Severity.ERROR,
                    location=sites[0]["site"],
                    message=(
                        f"lock {cycle[0]} re-acquired by the thread holding "
                        f"it (self-cycle on a non-reentrant lock)"
                        if len(cycle) == 1
                        else f"lock-order cycle between {' and '.join(cycle)} "
                        f"(opposite acquisition orders observed)"
                    ),
                    fix_hint=LOCK_ORDER_RULE.fix_hint,
                    details={"cycle": list(cycle), "sites": sites},
                )
            )


# ----------------------------------------------------------------------
# Instrumentation wrappers
# ----------------------------------------------------------------------
#: The type of ``threading.RLock()`` objects (``RLock`` is a factory).
_RLOCK_TYPE = type(threading.RLock())


class TrackedLock:
    """Wraps a plain ``Lock``/``RLock``, reporting acquire/release."""

    def __init__(self, inner: Any, lock_id: str, monitor: RaceMonitor) -> None:
        self._inner = inner
        self._lock_id = lock_id
        self._monitor = monitor
        self._reentrant = isinstance(inner, _RLOCK_TYPE)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if blocking and not self._reentrant:
            self._monitor.before_mutex_acquire(self._lock_id)
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._monitor.on_acquire(self._lock_id, "write")
        return acquired

    def release(self) -> None:
        self._monitor.on_release(self._lock_id, "write")
        self._inner.release()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


class TrackedDict(MutableMapping):
    """A dict proxy reporting per-key reads/writes to the monitor."""

    def __init__(
        self, inner: Dict[Any, Any], name: str, monitor: RaceMonitor
    ) -> None:
        self._inner = inner
        self._name = name
        self._monitor = monitor

    def __getitem__(self, key: Any) -> Any:
        self._monitor.on_access(self._name, key, False)
        return self._inner[key]

    def __setitem__(self, key: Any, value: Any) -> None:
        self._monitor.on_access(self._name, key, True)
        self._inner[key] = value

    def __delitem__(self, key: Any) -> None:
        self._monitor.on_access(self._name, key, True)
        del self._inner[key]

    def __iter__(self) -> Iterator[Any]:
        self._monitor.on_access(self._name, None, False)
        return iter(dict(self._inner))

    def __len__(self) -> int:
        self._monitor.on_access(self._name, None, False)
        return len(self._inner)

    def __contains__(self, key: Any) -> bool:
        self._monitor.on_access(self._name, key, False)
        return key in self._inner

    def clear(self) -> None:
        self._monitor.on_access(self._name, None, True)
        self._inner.clear()


class TrackedSet:
    """A set proxy reporting membership reads and mutations."""

    def __init__(
        self, inner: Set[Any], name: str, monitor: RaceMonitor
    ) -> None:
        self._inner = inner
        self._name = name
        self._monitor = monitor

    def add(self, item: Any) -> None:
        self._monitor.on_access(self._name, None, True)
        self._inner.add(item)

    def discard(self, item: Any) -> None:
        self._monitor.on_access(self._name, None, True)
        self._inner.discard(item)

    def remove(self, item: Any) -> None:
        self._monitor.on_access(self._name, None, True)
        self._inner.remove(item)

    def clear(self) -> None:
        self._monitor.on_access(self._name, None, True)
        self._inner.clear()

    def __contains__(self, item: Any) -> bool:
        self._monitor.on_access(self._name, None, False)
        return item in self._inner

    def __iter__(self) -> Iterator[Any]:
        self._monitor.on_access(self._name, None, False)
        return iter(set(self._inner))

    def __len__(self) -> int:
        self._monitor.on_access(self._name, None, False)
        return len(self._inner)

    def __bool__(self) -> bool:
        self._monitor.on_access(self._name, None, False)
        return bool(self._inner)


class TrackedList:
    """A list proxy (whole-structure grain) for op-table columns."""

    def __init__(
        self, inner: List[Any], name: str, monitor: RaceMonitor
    ) -> None:
        self._inner = inner
        self._name = name
        self._monitor = monitor

    def append(self, item: Any) -> None:
        self._monitor.on_access(self._name, None, True)
        self._inner.append(item)

    def __getitem__(self, index: Any) -> Any:
        self._monitor.on_access(self._name, None, False)
        return self._inner[index]

    def __setitem__(self, index: Any, value: Any) -> None:
        self._monitor.on_access(self._name, None, True)
        self._inner[index] = value

    def __iter__(self) -> Iterator[Any]:
        self._monitor.on_access(self._name, None, False)
        return iter(list(self._inner))

    def __len__(self) -> int:
        self._monitor.on_access(self._name, None, False)
        return len(self._inner)


class TrackedDeque:
    """A deque proxy for the event ring."""

    def __init__(
        self, inner: "deque[Any]", name: str, monitor: RaceMonitor
    ) -> None:
        self._inner = inner
        self._name = name
        self._monitor = monitor

    @property
    def maxlen(self) -> Optional[int]:
        return self._inner.maxlen

    def append(self, item: Any) -> None:
        self._monitor.on_access(self._name, None, True)
        self._inner.append(item)

    def clear(self) -> None:
        self._monitor.on_access(self._name, None, True)
        self._inner.clear()

    def __iter__(self) -> Iterator[Any]:
        self._monitor.on_access(self._name, None, False)
        return iter(list(self._inner))

    def __len__(self) -> int:
        self._monitor.on_access(self._name, None, False)
        return len(self._inner)


# ----------------------------------------------------------------------
# Instrumentation of the real subsystems
# ----------------------------------------------------------------------
def _track_lock(owner: Any, attr: str, lock_id: str, monitor: RaceMonitor) -> None:
    """Wrap ``owner.<attr>`` (a ``Lock``/``RLock``) in a :class:`TrackedLock`."""
    setattr(owner, attr, TrackedLock(getattr(owner, attr), lock_id, monitor))


def instrument_rwlock(lock: Any, lock_id: str, monitor: RaceMonitor) -> None:
    """Hook a :class:`ReadWriteLock`'s built-in monitor attributes."""
    lock._monitor = monitor
    lock._monitor_id = lock_id


def instrument_metrics(
    registry: Any, monitor: RaceMonitor, name: str = "MetricsRegistry"
) -> None:
    """Track the metrics registry's lock and its four tables."""
    _track_lock(registry, "_lock", f"{name}._lock", monitor)
    for attr in ("_counters", "_gauges", "_histograms", "_kinds"):
        setattr(
            registry,
            attr,
            TrackedDict(getattr(registry, attr), f"{name}.{attr}", monitor),
        )


def instrument_events(
    log: Any, monitor: RaceMonitor, name: str = "EventLog"
) -> None:
    """Track the event log's lock and ring buffer."""
    _track_lock(log, "_lock", f"{name}._lock", monitor)
    log._ring = TrackedDeque(log._ring, f"{name}._ring", monitor)


def instrument_database(
    database: Any, monitor: RaceMonitor, instance: str = ""
) -> None:
    """Track a database's bounds-memo and op-table locks; ``instance``
    (``"[0]"`` for shard 0) tells several databases' locks apart."""
    engine = database.engine
    _track_lock(engine, "_memo_lock", f"BoundsEngine{instance}._memo_lock", monitor)
    _track_lock(
        engine.optable_manager, "_lock", f"OpTableManager{instance}._lock", monitor
    )


def instrument_service(service: Any, monitor: RaceMonitor) -> None:
    """Track a :class:`QueryService`'s locks: its RW lock, the lazy
    index-build lock, the result cache, the slow-query log, its metrics
    and events, and its database's bounds locks."""
    instrument_rwlock(service._rwlock, "service.rwlock", monitor)
    _track_lock(service, "_index_lock", "QueryService._index_lock", monitor)
    _track_lock(service.cache, "_lock", "ResultCache._lock", monitor)
    _track_lock(service.slow_log, "_lock", "SlowQueryLog._lock", monitor)
    instrument_metrics(service.metrics, monitor)
    instrument_events(service.events, monitor)
    instrument_database(service.database, monitor)


def instrument_sharded(catalog: Any, monitor: RaceMonitor) -> None:
    """Track a :class:`ShardedCatalog`'s locks and shared structures.

    Per shard: the RW lock (via the built-in hook), the compactor's
    hotness bookkeeping (``materialized``), the WAL-dedupe set
    (``journaled``), the catalog dicts and the bounds locks of the
    underlying database.  Plus the id-allocation lock, the WAL record
    lock, the metrics registry, and the event ring.
    """
    for shard in catalog._shards:
        index = shard.index
        instrument_rwlock(shard.lock, f"shard[{index}].rwlock", monitor)
        _track_lock(shard, "stats_lock", f"shard[{index}].stats_lock", monitor)
        shard.materialized = TrackedDict(
            shard.materialized, f"shard[{index}].materialized", monitor
        )
        shard.journaled = TrackedSet(
            shard.journaled, f"shard[{index}].journaled", monitor
        )
        inner_catalog = shard.database.catalog
        for attr in ("_binary", "_edited", "_children", "_merge_users"):
            setattr(
                inner_catalog,
                attr,
                TrackedDict(
                    getattr(inner_catalog, attr),
                    f"shard[{index}].catalog.{attr}",
                    monitor,
                ),
            )
        instrument_database(shard.database, monitor, f"[{index}]")
    _track_lock(catalog, "_alloc_lock", "ShardedCatalog._alloc_lock", monitor)
    if catalog._wal is not None:
        _track_lock(catalog._wal, "_lock", "ShardWAL._lock", monitor)
    instrument_metrics(catalog.metrics, monitor)
    instrument_events(catalog.events, monitor)


@contextlib.contextmanager
def instrument_persistence(
    roots: Sequence[Path], monitor: RaceMonitor
) -> Iterator[None]:
    """Track the commit locks of ``roots``, the lock-registry guard, and
    the bounds locks of every database a load builds, inside the block.

    All three are module-level state of :mod:`repro.db.persistence`;
    each is put back as it was when the block ends.
    """
    from repro.db import persistence

    module: Any = persistence
    guard = module._ROOT_LOCKS_GUARD
    factory = module.MultimediaDatabase
    registry = module._ROOT_LOCKS
    names = {os.path.abspath(str(root)): Path(root).name for root in roots}
    saved = {key: registry.get(key) for key in names}
    loads = [0]

    def tracked_database(*args: Any, **kwargs: Any) -> Any:
        database = factory(*args, **kwargs)
        instrument_database(database, monitor, f"[load-{loads[0]}]")
        loads[0] += 1
        return database

    for key, name in names.items():
        registry[key] = TrackedLock(
            module.root_lock(key), f"db.root_lock[{name}]", monitor
        )
    _track_lock(module, "_ROOT_LOCKS_GUARD", "persistence._ROOT_LOCKS_GUARD", monitor)
    module.MultimediaDatabase = tracked_database
    try:
        yield
    finally:
        module.MultimediaDatabase = factory
        module._ROOT_LOCKS_GUARD = guard
        for key, previous in saved.items():
            if previous is None:
                registry.pop(key, None)
            else:
                registry[key] = previous


# ----------------------------------------------------------------------
# Built-in stress scenarios (the shipped suite must be race- and
# cycle-free)
# ----------------------------------------------------------------------
def _scenario_metrics(monitor: RaceMonitor) -> None:
    """Concurrent counters/gauges/histograms on one registry."""
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    instrument_metrics(registry, monitor)

    def worker(worker_id: int) -> None:
        for step in range(25):
            registry.increment("races.counter")
            registry.set_gauge("races.gauge", float(step))
            registry.observe("races.latency", 0.001 * step)

    threads = [
        monitor.spawn(worker, index, name=f"metrics-{index}")
        for index in range(4)
    ]
    for thread in threads:
        monitor.join(thread)
    registry.counter("races.counter")


def _scenario_events(monitor: RaceMonitor) -> None:
    """Concurrent emitters plus a snapshot reader on one event log."""
    from repro.obs.events import EventLog

    log = EventLog(capacity=64)
    instrument_events(log, monitor)

    def emitter(worker_id: int) -> None:
        for step in range(20):
            log.emit("mutation", subsystem="racecheck", step=step)

    def reader() -> None:
        for _ in range(10):
            log.snapshot()

    threads = [
        monitor.spawn(emitter, index, name=f"emit-{index}")
        for index in range(3)
    ]
    threads.append(monitor.spawn(reader, name="snapshot"))
    for thread in threads:
        monitor.join(thread)
    log.stats()


def _recolor(base_id: str) -> Any:
    """A two-op edit of an 8×8 image: enough for a sweep and a compaction."""
    from repro.color.names import FLAG_PALETTE
    from repro.editing.operations import Define, Modify
    from repro.editing.sequence import EditSequence

    return EditSequence(
        base_id,
        (Define.of(1, 1, 6, 6), Modify(FLAG_PALETTE[0], FLAG_PALETTE[1])),
    )


def _scenario_service(monitor: RaceMonitor) -> None:
    """Readers, a writer, index refreshes and an EXPLAIN ANALYZE against
    one query service."""
    import numpy as np

    from repro.color.names import FLAG_PALETTE
    from repro.db.database import MultimediaDatabase
    from repro.images.generators import random_palette_image
    from repro.service import QueryService

    rng = np.random.default_rng(11)
    database = MultimediaDatabase()
    bases = [
        database.insert_image(random_palette_image(rng, 8, 8, FLAG_PALETTE))
        for _ in range(4)
    ]
    for base in bases[:3]:
        database.insert_edited(_recolor(base))
    # Threshold 0: every query is "slow", so each one records.
    service = QueryService(database, max_workers=2, slow_query_threshold=0.0)
    instrument_service(service, monitor)
    try:
        service.refresh_indexes()  # the first read of the memo

        def reader(strategy: str) -> None:
            for _ in range(4):
                service.execute("at least 10% red", strategy=strategy)

        def writer() -> None:
            service.insert_edited(_recolor(bases[3]))

        threads = [
            monitor.spawn(reader, "bwm", name="read-0"),
            monitor.spawn(reader, "vectorized_batch", name="read-1"),
            monitor.spawn(writer, name="write-0"),
        ]
        for thread in threads:
            monitor.join(thread)
        # The write left the indexes stale: a text no reader cached
        # refreshes them under the read lock, and its repeat is a cache
        # hit, which records into the slow log and the events.
        for _ in range(2):
            service.execute("at least 5% blue", strategy="index_assisted")
        service.explain_analyze("at least 10% red")
    finally:
        service.shutdown()


def _scenario_sharded(monitor: RaceMonitor) -> None:
    """Mutators and readers, a compaction cycle and its rollback, a
    checkpoint and a reopen, against one sharded catalog."""
    import tempfile

    import numpy as np

    from repro.color.names import FLAG_PALETTE
    from repro.core.query import RangeQuery
    from repro.images.generators import random_palette_image
    from repro.shard import Compactor, ShardedCatalog, shard_dirname

    with tempfile.TemporaryDirectory(prefix="racecheck-") as root:
        catalog = ShardedCatalog(2, root=root)
        rng = np.random.default_rng(7)
        seed_images = [
            random_palette_image(rng, 8, 8, FLAG_PALETTE) for _ in range(8)
        ]
        bases = [catalog.insert_image(image) for image in seed_images[:4]]
        instrument_sharded(catalog, monitor)
        shard_roots = [Path(root) / shard_dirname(i) for i in range(2)]

        def mutator(offset: int) -> None:
            for image in seed_images[4 + offset::2]:
                catalog.insert_image(image)
            for base in bases[offset::2]:
                catalog.insert_edited(_recolor(base))

        def reader() -> None:
            query = RangeQuery(0, 0.0, 1.0)
            for _ in range(5):
                catalog.range_query(query)

        with instrument_persistence(shard_roots, monitor):
            threads = [
                monitor.spawn(mutator, 0, name="mutate-0"),
                monitor.spawn(mutator, 1, name="mutate-1"),
                monitor.spawn(reader, name="read-0"),
                monitor.spawn(reader, name="read-1"),
            ]
            for thread in threads:
                monitor.join(thread)
            compactor = Compactor(catalog)
            for image_id in compactor.run_once().materialized:
                compactor.rollback(image_id)
            catalog.save()
            catalog.close()
            ShardedCatalog.open(root).close()


#: Scenario registry for ``repro race-check``.
SCENARIOS: Dict[str, Callable[[RaceMonitor], None]] = {
    "metrics": _scenario_metrics,
    "events": _scenario_events,
    "service": _scenario_service,
    "sharded": _scenario_sharded,
}


def run_race_check(
    scenarios: Optional[Iterable[str]] = None,
) -> RaceCheckReport:
    """Run the named scenarios (default: all) under fresh monitors.

    ``subjects_examined`` counts tracked locations and ``lock_edges``
    the lock-order edges observed: a zero-finding report over zero of
    either would be vacuous, so the CLI surfaces both.  A scenario whose
    worker raised or hung raises.
    """
    names = sorted(scenarios) if scenarios is not None else sorted(SCENARIOS)
    report = RaceCheckReport(pass_name="racecheck")
    for name in names:
        scenario = SCENARIOS.get(name)
        if scenario is None:
            raise ValueError(
                f"unknown race-check scenario {name!r}; have "
                f"{sorted(SCENARIOS)}"
            )
        monitor = RaceMonitor()
        monitor._names[threading.get_ident()] = "main"
        scenario(monitor)
        monitor.extend_report(report)
        for edge, site in monitor.lock_edges.items():
            report.lock_edges.setdefault(edge, site)
    return report
