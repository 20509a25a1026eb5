"""Eraser-style lockset race detection for the concurrent tiers.

The lock-order pass (:mod:`repro.analysis.lockgraph`) proves locks are
*ordered*; this harness checks they are *used*: every shared structure
must only ever be touched while holding the lock that guards it.  It is
the dynamic complement — opt-in instrumentation wraps the repo's locks
and shared structures, records which locks each thread holds at each
access, and runs the classic Eraser lockset algorithm (Savage et al.):
a location's *candidate lockset* starts as "whatever the first sharing
access held" and is intersected at every subsequent access; when it
goes empty while the location is written by multiple threads, no single
lock protected it — a data race regardless of whether this particular
schedule interleaved badly.  That schedule-independence is the point:
a stress test only catches the races it happens to provoke, while the
lockset discipline is violated on *every* run of racy code.

Refinements over plain Eraser:

* The Virgin → Exclusive → Shared → Shared-Modified state machine
  suppresses single-thread initialization noise.
* Light happens-before edges: threads spawned through
  :meth:`RaceMonitor.spawn` / joined through :meth:`RaceMonitor.join`
  transfer exclusive ownership across fork/join (structures built
  before workers start, or read after they are joined, are not shared).
  This is a harness, not a vector-clock TSan: edges other than
  spawn/join (queues, events) are not modeled, and code using them may
  need its accesses genuinely locked to stay quiet — which is the
  repo's discipline anyway.
* Read accesses intersect against *all* held locks; write accesses only
  against write-held ones — reading under the read side of a
  :class:`~repro.rwlock.ReadWriteLock` is synchronized with
  writers, but writing under the read side is not.

Races are reported as ``CC004`` findings (ERROR) through the shared
:class:`~repro.analysis.findings.AnalysisReport` machinery, carrying
the structure, both access kinds, and the source site of the access
that emptied the lockset.  ``repro race-check`` runs the built-in
stress scenarios (metrics registry, event ring, sharded catalog) and
must report zero races; the fixture tests seed one unsynchronized
mutation per tracked structure and assert it is flagged.
"""

from __future__ import annotations

import sys
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    MutableMapping,
    Optional,
    Set,
)

from repro.analysis.findings import AnalysisReport, Finding, Severity

_THIS_FILE = __file__


def _caller_site() -> str:
    """``path:line`` of the nearest frame outside this module."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if filename != _THIS_FILE:
            return f"{filename}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>:0"


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
        return {
            "structure": self.structure,
            "operation": self.operation,
            "thread": self.thread,
            "first_thread": self.first_thread,
            "site": self.site,
        }


class RaceMonitor:
    """Collects lock and access events; runs the lockset algorithm.

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
        self._locations: Dict[str, _LocationState] = {}
        self._races: List[Race] = []
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
        """Start ``target`` on a new thread with a fork edge recorded."""
        with self._guard:
            birth = self._tick()

        def runner() -> None:
            ident = threading.get_ident()
            with self._guard:
                self._names[ident] = name
                self._started[ident] = birth
            target(*args)

        thread = threading.Thread(target=runner, name=name, daemon=True)
        thread.start()
        return thread

    def join(self, thread: threading.Thread, timeout: float = 30.0) -> None:
        """Join ``thread`` with the join edge recorded."""
        thread.join(timeout)
        ident = thread.ident
        if ident is not None:
            with self._guard:
                self._joined[ident] = self._tick()

    # -- lock events (called by instrumented locks) ----------------------
    def on_acquire(self, lock_id: str, mode: str) -> None:
        self._held().acquire(lock_id, mode)

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


# ----------------------------------------------------------------------
# Instrumentation wrappers
# ----------------------------------------------------------------------
class TrackedLock:
    """Wraps a plain ``Lock``/``RLock``, reporting acquire/release."""

    def __init__(
        self, inner: Any, lock_id: str, monitor: RaceMonitor
    ) -> None:
        self._inner = inner
        self._lock_id = lock_id
        self._monitor = monitor

    def acquire(self, *args: Any, **kwargs: Any) -> bool:
        acquired = self._inner.acquire(*args, **kwargs)
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
def instrument_rwlock(lock: Any, lock_id: str, monitor: RaceMonitor) -> None:
    """Hook a :class:`ReadWriteLock`'s built-in monitor attributes."""
    lock._monitor = monitor
    lock._monitor_id = lock_id


def instrument_metrics(
    registry: Any, monitor: RaceMonitor, name: str = "MetricsRegistry"
) -> None:
    """Track the metrics registry's lock and its four tables."""
    registry._lock = TrackedLock(registry._lock, f"{name}._lock", monitor)
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
    log._lock = TrackedLock(log._lock, f"{name}._lock", monitor)
    log._ring = TrackedDeque(log._ring, f"{name}._ring", monitor)


def instrument_sharded(catalog: Any, monitor: RaceMonitor) -> None:
    """Track a :class:`ShardedCatalog`'s locks and shared structures.

    Per shard: the RW lock (via the built-in hook), the compactor's
    hotness bookkeeping (``materialized``), the WAL-dedupe set
    (``journaled``), and the catalog dicts of the underlying database.
    Plus the WAL record lock, the metrics registry, and the event ring.
    """
    for shard in catalog._shards:
        index = shard.index
        instrument_rwlock(shard.lock, f"shard[{index}].rwlock", monitor)
        shard.stats_lock = TrackedLock(
            shard.stats_lock, f"shard[{index}].stats_lock", monitor
        )
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
    if catalog._wal is not None:
        catalog._wal._lock = TrackedLock(
            catalog._wal._lock, "ShardWAL._lock", monitor
        )
    instrument_metrics(catalog.metrics, monitor, name="shard.metrics")
    instrument_events(catalog.events, monitor, name="shard.events")


# ----------------------------------------------------------------------
# Built-in stress scenarios (the shipped suite must be race-free)
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


def _scenario_sharded(monitor: RaceMonitor) -> None:
    """Mutators, readers, and a checkpoint against one sharded catalog."""
    import tempfile

    import numpy as np

    from repro.core.query import RangeQuery
    from repro.images.generators import random_palette_image
    from repro.color.names import FLAG_PALETTE
    from repro.shard import ShardedCatalog

    with tempfile.TemporaryDirectory(prefix="racecheck-") as root:
        catalog = ShardedCatalog(2, root=root)
        rng = np.random.default_rng(7)
        seed_images = [
            random_palette_image(rng, 8, 8, FLAG_PALETTE) for _ in range(8)
        ]
        for image in seed_images[:4]:
            catalog.insert_image(image)
        instrument_sharded(catalog, monitor)

        def mutator(offset: int) -> None:
            for image in seed_images[4 + offset::2]:
                catalog.insert_image(image)

        def reader() -> None:
            query = RangeQuery(0, 0.0, 1.0)
            for _ in range(5):
                catalog.range_query(query)

        threads = [
            monitor.spawn(mutator, 0, name="mutate-0"),
            monitor.spawn(mutator, 1, name="mutate-1"),
            monitor.spawn(reader, name="read-0"),
            monitor.spawn(reader, name="read-1"),
        ]
        for thread in threads:
            monitor.join(thread)
        catalog.save()
        catalog.close()


#: Scenario registry for ``repro race-check``.
SCENARIOS: Dict[str, Callable[[RaceMonitor], None]] = {
    "metrics": _scenario_metrics,
    "events": _scenario_events,
    "sharded": _scenario_sharded,
}


def run_race_check(
    scenarios: Optional[Iterable[str]] = None,
) -> AnalysisReport:
    """Run the named scenarios (default: all) under fresh monitors.

    ``subjects_examined`` counts tracked locations across scenarios; a
    zero-finding report over zero subjects would be vacuous, so the CLI
    surfaces both numbers.
    """
    names = sorted(scenarios) if scenarios is not None else sorted(SCENARIOS)
    report = AnalysisReport(pass_name="racecheck")
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
    return report
