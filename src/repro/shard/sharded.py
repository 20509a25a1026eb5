"""`ShardedCatalog` — N shard-local databases behind one routed facade.

Partitioning
------------
Binary images route by a stable hash of their id; an edited image lives
on the shard of its referenced images (base plus Merge targets), which
must all agree — so every Merge/BWM dependency chain is shard-local and
a BOUNDS walk never crosses a shard boundary.  The hash is pure (no
process salt) because the write-ahead log records shard indexes and a
replayer in a fresh process must route identically.

Durability
----------
Every mutation appends to the WAL (:class:`~repro.shard.wal.ShardWAL`)
**before** it is applied to the owning shard, under that shard's write
lock.  What a mutation *is* is written once, in the record-kind table
of :mod:`repro.shard.records`: the five public mutators and the
compactor's two commits go through :meth:`ShardedCatalog._commit`
(journal → apply → settle → bump the shard version), and replay runs
the *same* appliers and the same :meth:`ShardedCatalog._settle`, so it
cannot drift from the live path.  The bounds engine's invalidation
change feed is the ingestion spine: ``_commit`` registers each
mutation's ``(image_id, version)`` key before applying, and the
per-shard feed listener dedupes the echo — so one logical mutation
writes exactly one WAL record even though the feed also observes it.
Out-of-band mutations (someone poking a shard's database directly)
reach the listener with no registered key and are captured as
payload-free ``change`` records.
:meth:`ShardedCatalog.save` checkpoints every shard into its own
segment root (one atomic v2/v3 save each) and truncates the WAL;
:meth:`ShardedCatalog.open` loads the shard roots and replays whatever
the WAL holds beyond them.  Replay is idempotent, so a crash anywhere
— mid-append, between append and apply, mid-checkpoint — converges to
the no-crash state (swept by ``tests/shard/test_wal_replay_faults.py``).

Queries
-------
Scatter-gather, through one skeleton (:meth:`ShardedCatalog._query`):
each query visits the shards in order on the calling thread, under each
shard's read lock in turn, and the per-shard results merge —
set-union for range/conjunctive results, an ordered ``heapq.merge`` of
the per-shard k-best lists for kNN (each shard's list is exact and
sorted, so the first k of the merge are the global k-best, byte for
byte what the single-catalog oracle returns).
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
from collections import deque
from contextlib import ExitStack
from heapq import merge as heap_merge
from itertools import islice
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
)

from repro.color.histogram import ColorHistogram
from repro.color.quantization import UniformQuantizer
from repro.core.query import ConjunctiveQuery, QueryResult, QueryStats, RangeQuery
from repro.db.database import MultimediaDatabase
from repro.db.durable import NoFaults
from repro.db.persistence import (
    SHARD_MANIFEST_NAME,
    has_committed_state,
    load_database,
    save_database,
)
from repro.db.processors import KNNResult, KNNStats
from repro.db.versioning import sha256_hex
from repro.editing.sequence import EditSequence
from repro.errors import (
    CrossShardReferenceError,
    DatabaseError,
    DuplicateObjectError,
    PersistenceError,
    QueryError,
    ShardError,
    UnknownObjectError,
)
from repro.images.raster import ColorTuple, Image, validate_color
from repro.obs.events import EVENTS_NAME, EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import render_prometheus
from repro.obs.trace import (
    Span,
    current_trace_id,
    maybe_tracer,
    new_trace_id,
    tracing_enabled,
)
from repro.querylang.parser import parse_constraints
from repro.rwlock import ReadWriteLock
from repro.shard.records import ENTERS, LEAVES, RECORD_KINDS
from repro.shard.wal import ShardWAL

logger = logging.getLogger(__name__)

_T = TypeVar("_T")
_M = TypeVar("_M")


def hash_shard(image_id: str, shard_count: int) -> int:
    """The owning shard of a binary image id — a pure, stable hash.

    SHA-256 based so the assignment survives process restarts and
    Python hash randomization: the WAL records shard indexes, and
    replay in a fresh process must route every id identically.
    """
    digest = hashlib.sha256(image_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shard_count


def shard_dirname(index: int) -> str:
    """Directory name of one shard's segment root under the base root."""
    return f"shard-{index:03d}"


class _Shard:
    """One shard: a database, its lock, and its ingestion bookkeeping."""

    __slots__ = (
        "index",
        "key",
        "histograms",
        "database",
        "lock",
        "version",
        "journaled",
        "queries_served",
        "stats_lock",
        "materialized",
        "last_lsn",
        "last_compaction",
        "replay_failures",
    )

    def __init__(self, index: int, database: MultimediaDatabase) -> None:
        self.index = index
        #: ``sNN``: the shard's label in metric names and query records.
        self.key = f"s{index:02d}"
        #: Its latency, lock-wait and work-unit histogram names.
        self.histograms = tuple(
            f"{family}.{self.key}"
            for family in (
                "shard_seconds",
                "shard_lock_wait_seconds",
                "shard_work_units",
            )
        )
        self.database = database
        self.lock = ReadWriteLock()
        #: Shard-local mutation version; each committed mutation is +1.
        self.version = 0
        #: ``(image_id, version)`` keys of in-flight wrapper mutations,
        #: consumed by the feed listener so the WAL never records the
        #: same mutation twice (the dedupe satellite).
        self.journaled: Set[Tuple[str, int]] = set()
        #: Queries this shard served (the compactor's hotness signal).
        #: Incremented under :attr:`stats_lock`, not the shard lock:
        #: queries hold only the *read* side, so concurrent readers
        #: bumping this unprotected would lose updates.
        self.queries_served = 0
        self.stats_lock = threading.Lock()
        #: image_id -> projected per-query work-unit saving of its
        #: materialized BOUNDS matrix (the compactor's commits).
        self.materialized: Dict[str, float] = {}
        #: LSN of the last WAL record this shard wrote or replayed —
        #: stamped onto per-shard query spans so a slow query is
        #: attributable to the write activity that preceded it.
        self.last_lsn: Optional[int] = None
        #: Lineage of the most recent compaction commit touching this
        #: shard: ``{"image_id", "lsn", "trace_id"}`` (or ``None``).
        self.last_compaction: Optional[Dict[str, object]] = None
        #: WAL records the replayer had to skip as rejected (a health
        #: signal: a growing count means the log disagrees with state).
        self.replay_failures = 0


class ShardedCatalog:
    """N shard-local MMDBMS instances behind one WAL-durable facade.

    Parameters
    ----------
    shard_count:
        Number of shards (>= 1).  Fixed for the life of a root: the
        manifest records it and :meth:`open` restores it.
    root:
        Directory for the WAL, the shard manifest, and one segment root
        per shard.  ``None`` runs ephemeral (no WAL, no save) — useful
        for pure in-memory parity tests.
    quantizer / fill_color:
        Forwarded to every shard's :class:`MultimediaDatabase`; all
        shards share one quantizer object.
    faults:
        Fault plan routing the WAL's and checkpoint's durable writes
        (swappable afterwards via :attr:`faults` for kill-point sweeps).
    """

    def __init__(
        self,
        shard_count: int = 4,
        *,
        root: Optional[Union[str, Path]] = None,
        quantizer: Optional[UniformQuantizer] = None,
        fill_color: Sequence[int] = (0, 0, 0),
        faults: Optional[NoFaults] = None,
    ) -> None:
        if shard_count < 1:
            raise ShardError(f"shard_count must be >= 1, got {shard_count}")
        self.quantizer = (
            quantizer if quantizer is not None else UniformQuantizer(4, "rgb")
        )
        self.fill_color: ColorTuple = validate_color(fill_color)
        self.faults: NoFaults = faults if faults is not None else NoFaults()
        self.root = Path(root) if root is not None else None
        self.metrics = MetricsRegistry()
        #: The wide-event log: ring-buffered, and (with a root) mirrored
        #: to ``events.jsonl`` for ``repro events`` and post-mortems.
        #: Constructed before the shards so replay/listeners can emit.
        self.events = EventLog(
            capacity=1024,
            sink=(self.root / EVENTS_NAME) if self.root is not None else None,
        )
        #: Most recent scatter-gather queries (``repro top``'s slow list).
        self._recent_queries: "deque[Dict[str, object]]" = deque(maxlen=64)
        self._recent_lock = threading.Lock()
        self._placement: Dict[str, int] = {}
        self._id_counters: Dict[str, int] = {}
        self._replaying = False
        self._closed = False
        self._alloc_lock = threading.Lock()
        self._shards: List[_Shard] = [
            self._make_shard(index) for index in range(shard_count)
        ]
        self._wal: Optional[ShardWAL] = None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            self._check_or_write_manifest()
            self._wal = ShardWAL(self.root)
        self.metrics.set_gauge("shard.count", shard_count)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _make_shard(self, index: int) -> _Shard:
        database = MultimediaDatabase(
            quantizer=self.quantizer,
            fill_color=self.fill_color,
            bounds_cache=True,
        )
        shard = _Shard(index, database)
        self._attach(shard)
        return shard

    def _attach(self, shard: _Shard) -> None:
        """Subscribe the ingestion listener to a shard's database."""
        shard.database.engine.enable_memo()
        shard.database.engine.add_invalidation_listener(
            self._listener_for(shard)
        )

    def _listener_for(self, shard: _Shard) -> Callable[[Optional[str]], None]:
        def _on_invalidation(image_id: Optional[str]) -> None:
            if image_id is None:
                return  # whole-cache flush, not a catalog mutation
            if shard.lock.write_held_by_current_thread():
                # The wrapper/compactor/replay paths invalidate with the
                # shard write lock already held on this thread;
                # re-acquiring the non-reentrant lock would deadlock.
                self._observe_invalidation(shard, image_id)
            else:
                # Out-of-band caller: take the write lock so the version
                # read/bump cannot interleave with a wrapper mutation on
                # the same shard and mis-dedupe its journaled key.
                with shard.lock.write_locked():
                    self._observe_invalidation(shard, image_id)

        return _on_invalidation

    def _observe_invalidation(self, shard: _Shard, image_id: str) -> None:
        """Handle one invalidation event (shard write lock held)."""
        key = (image_id, shard.version + 1)
        if key in shard.journaled:
            # The wrapper path journaled this mutation before applying
            # it; the feed echo must not journal it again.
            shard.journaled.discard(key)
            self.metrics.increment("wal.deduped")
            return
        if self._replaying or self._closed:
            return
        # Out-of-band change (a direct shard-database mutation that
        # bypassed the wrapper): capture it so WAL consumers learn
        # to drop caches, even though there is no payload to replay.
        version = shard.version + 1
        lsn: Optional[int] = None
        if self._wal is not None:
            entry = self._wal.append(
                self.faults,
                "change",
                shard=shard.index,
                image_id=image_id,
                version=version,
            )
            lsn = int(entry["lsn"])  # type: ignore[arg-type]
            shard.last_lsn = lsn
            self.metrics.increment("wal.appends")
        shard.version = version
        self.metrics.increment("wal.out_of_band")
        self.events.emit(
            "wal.append",
            subsystem="wal",
            shard=shard.index,
            image_id=image_id,
            lsn=lsn,
            op="change",
            version=version,
            out_of_band=True,
        )

    def _check_or_write_manifest(self) -> None:
        assert self.root is not None
        path = self.root / SHARD_MANIFEST_NAME
        if path.is_file():
            manifest = _read_shard_manifest(path)
            existing = int(manifest["shard_count"])  # type: ignore[arg-type]
            if existing != len(self._shards):
                raise ShardError(
                    f"{path} holds a {existing}-shard layout; use "
                    f"ShardedCatalog.open({str(self.root)!r}) instead of "
                    f"constructing with shard_count={len(self._shards)}"
                )
        else:
            self._write_manifest()

    def _write_manifest(self) -> None:
        assert self.root is not None
        manifest: Dict[str, object] = {
            "format": 1,
            "shard_count": len(self._shards),
            "quantizer": {
                "divisions": self.quantizer.divisions,
                "space": self.quantizer.space,
            },
            "fill_color": list(self.fill_color),
            "versions": [shard.version for shard in self._shards],
        }
        canonical = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
        manifest["manifest_sha256"] = sha256_hex(canonical.encode("utf-8"))
        payload = json.dumps(manifest, sort_keys=True, indent=2).encode("utf-8")
        path = self.root / SHARD_MANIFEST_NAME
        tmp = path.with_suffix(".json.tmp")
        self.faults.write_bytes(tmp, payload)
        self.faults.fsync(tmp)
        self.faults.rename(tmp, path)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def shard_of(self, image_id: str) -> int:
        """The shard index holding ``image_id`` (raises when unknown)."""
        index = self._placement.get(image_id)
        if index is None:
            raise UnknownObjectError(f"image {image_id!r} not in any shard")
        return index

    def placement(self) -> Dict[str, int]:
        """A snapshot of the id -> shard map (for the DB007 verifier)."""
        return dict(self._placement)

    def shard_database(self, index: int) -> MultimediaDatabase:
        """Direct access to one shard's database (verifier / tests)."""
        return self._shards[index].database

    def _route_sequence(self, sequence: EditSequence) -> _Shard:
        """The single shard every referenced image lives on."""
        located: Dict[str, int] = {}
        for referenced in sequence.referenced_ids():
            index = self._placement.get(referenced)
            if index is None:
                raise UnknownObjectError(
                    f"sequence references {referenced!r}, which is not in "
                    f"any shard"
                )
            located[referenced] = index
        indexes = set(located.values())
        if len(indexes) > 1:
            raise CrossShardReferenceError(
                f"sequence references straddle shards {sorted(indexes)}: "
                f"{located} — Merge/BWM dependency chains must stay "
                f"shard-local (route Merge targets into the base image's "
                f"cluster)"
            )
        return self._shards[indexes.pop()]

    def _owning_shard(self, image_id: str) -> _Shard:
        return self._shards[self.shard_of(image_id)]

    def _allocate(self, prefix: str) -> str:
        with self._alloc_lock:
            counter = self._id_counters.get(prefix, 1)
            while f"{prefix}-{counter}" in self._placement:
                counter += 1
            self._id_counters[prefix] = counter + 1
            return f"{prefix}-{counter}"

    def _note_allocated(self, image_id: str) -> None:
        """Keep the id counters ahead of explicitly-chosen ids."""
        prefix, _, suffix = image_id.rpartition("-")
        if prefix and suffix.isdigit():
            with self._alloc_lock:
                current = self._id_counters.get(prefix, 1)
                self._id_counters[prefix] = max(current, int(suffix) + 1)

    # ------------------------------------------------------------------
    # Mutations (WAL first, then apply, under the shard write lock)
    # ------------------------------------------------------------------
    def _journal(
        self,
        shard: _Shard,
        op: str,
        image_id: str,
        version: int,
        payload: Dict[str, object],
    ) -> Tuple[Optional[int], Optional[str]]:
        """Journal one mutation; returns ``(lsn, trace_id)``.

        ``lsn`` is None when ephemeral.  The record is stamped with the
        enclosing trace's id (if any) — that is the WAL half of lineage:
        given a slow query's trace id, ``grep`` of the WAL finds every
        record it wrote, and given a suspicious WAL record, the trace
        that produced it.  With tracing on but no enclosing span, a
        fresh id is minted so the record is still attributable.  One
        wide event is emitted per journaled mutation.
        """
        self._ensure_open()
        shard.journaled.add((image_id, version))
        lsn: Optional[int] = None
        trace_id = current_trace_id()
        if trace_id is None and tracing_enabled():
            trace_id = new_trace_id()
        if self._wal is not None:
            if trace_id is not None:
                payload = {**payload, "trace_id": trace_id}
            entry = self._wal.append(
                self.faults,
                op,
                shard=shard.index,
                image_id=image_id,
                version=version,
                **payload,
            )
            lsn = int(entry["lsn"])  # type: ignore[arg-type]
            shard.last_lsn = lsn
            self.metrics.increment("wal.appends")
        self.events.emit(
            "wal.append",
            subsystem="wal",
            shard=shard.index,
            image_id=image_id,
            lsn=lsn,
            trace_id=trace_id,
            op=op,
            version=version,
        )
        return lsn, trace_id

    def _ensure_open(self) -> None:
        if self._closed:
            raise ShardError("sharded catalog is closed")

    def _commit(
        self, shard: _Shard, op: str, image_id: str, subject: object = None
    ) -> Optional[int]:
        """Commit one mutation of a table kind (shard write lock held).

        Journal → apply → settle → bump the shard version; returns the
        record's LSN.  When the applier fails, the dedupe key
        :meth:`_journal` registered is retired so the next mutation at
        the same version number is not silently swallowed by the feed
        listener.  The WAL record stays: replay re-attempts the apply
        and, when it fails the same way, skips the record — converging
        with the live outcome.
        """
        kind = RECORD_KINDS[op]
        version = shard.version + 1
        lsn, trace_id = self._journal(
            shard, op, image_id, version, kind.encode(subject)
        )
        try:
            kind.apply(shard, image_id, subject)
        except BaseException:
            shard.journaled.discard((image_id, version))
            raise
        self._settle(shard, op, image_id, lsn, trace_id)
        shard.version = version
        return lsn

    def _settle(
        self,
        shard: _Shard,
        op: str,
        image_id: str,
        lsn: Optional[int],
        trace_id: object,
    ) -> None:
        """Book-keeping after a record's applier ran (write lock held).

        Shared by the live commit and replay, so the two cannot disagree
        about what a committed record leaves behind.  The placement map
        and the id counters follow the kind's ``placement``.  The
        materialization ledger stays a subset of the engine's cached
        matrices: an applier's transitive invalidation can evict the
        matrices of *other* images (dependents of the mutated one, or of
        a base the compactor just swapped in), and a ledger that kept
        them would have the compactor consider them warm for ever.  A
        ``compact`` records the shard's compaction lineage, and the
        ``compaction.materialized_images`` gauge follows the ledger.
        """
        placement = RECORD_KINDS[op].placement
        if placement == ENTERS:
            self._placement[image_id] = shard.index
            self._note_allocated(image_id)
        elif placement == LEAVES:
            self._placement.pop(image_id, None)
        engine = shard.database.engine
        for each in list(shard.materialized):
            if not engine.has_cached_bounds(each):
                del shard.materialized[each]
        if op == "compact":
            shard.last_compaction = {
                "image_id": image_id,
                "lsn": lsn,
                "trace_id": trace_id,
            }
        total = sum(len(each.materialized) for each in self._shards)
        self.metrics.set_gauge("compaction.materialized_images", total)

    def _mutate(
        self, shard: _Shard, op: str, image_id: str, subject: object = None
    ) -> None:
        """One public mutation: :meth:`_commit` under the shard write lock."""
        with shard.lock.write_locked():
            self._commit(shard, op, image_id, subject)
        self.metrics.increment("shard.mutations")

    def _new_id(self, image_id: Optional[str], prefix: str) -> str:
        """The caller's id, or a fresh ``prefix-N``; never a stored one."""
        self._ensure_open()
        assigned = image_id if image_id is not None else self._allocate(prefix)
        if assigned in self._placement:
            raise DuplicateObjectError(
                f"image id {assigned!r} already stored in shard "
                f"{self._placement[assigned]}"
            )
        return assigned

    def insert_image(self, image: Image, image_id: Optional[str] = None) -> str:
        """Insert a binary image on its hash shard (WAL first)."""
        assigned = self._new_id(image_id, "img")
        shard = self._shards[hash_shard(assigned, len(self._shards))]
        self._mutate(shard, "insert_image", assigned, image)
        return assigned

    def insert_edited(
        self, sequence: EditSequence, image_id: Optional[str] = None
    ) -> str:
        """Insert an edited image on its references' shard (WAL first)."""
        assigned = self._new_id(image_id, "edit")
        shard = self._route_sequence(sequence)
        self._mutate(shard, "insert_edited", assigned, sequence)
        return assigned

    def delete_edited(self, image_id: str) -> None:
        self._mutate(self._owning_shard(image_id), "delete_edited", image_id)

    def delete_image(self, image_id: str) -> None:
        self._mutate(self._owning_shard(image_id), "delete_image", image_id)

    def update_image(self, image_id: str, image: Image) -> None:
        shard = self._owning_shard(image_id)
        self._mutate(shard, "update_image", image_id, image)

    def materialized_images(self) -> Dict[str, float]:
        """Every materialized image id and its projected per-query saving."""
        combined: Dict[str, float] = {}
        for shard in self._shards:
            combined.update(shard.materialized)
        return combined

    # ------------------------------------------------------------------
    # Scatter-gather queries
    # ------------------------------------------------------------------
    def _scatter(
        self,
        task: Callable[[_Shard], _T],
        tracer: Any,
    ) -> Tuple[List[_T], List[Tuple[_Shard, float, float]]]:
        """Run ``task`` on every shard, in shard order, on the calling
        thread, each under that shard's read lock.

        Returns ``(results, timings)`` where each timing is ``(shard,
        lock-wait seconds, total seconds)`` — the shard's own time, as
        nothing else runs in between.  When ``tracer`` is live, one
        ``shard.execute`` span per shard — carrying its lock-wait,
        last-written LSN, and last-compaction lineage — is attached
        under the caller's current span as the shard finishes.

        Reads of different client threads still run side by side; one
        read holds one shard's read lock at a time.  Within a read there
        is nothing to overlap: the tasks are short numpy calls under the
        GIL, and a hand-off to worker threads cost more than it saved.
        """
        self._ensure_open()
        parent = tracer.current if tracer else None
        results: List[_T] = []
        timings: List[Tuple[_Shard, float, float]] = []
        for shard in self._shards:
            queued = time.perf_counter()
            with shard.lock.read_locked():
                acquired = time.perf_counter()
                with shard.stats_lock:
                    shard.queries_served += 1
                results.append(task(shard))
                finished = time.perf_counter()
            lock_wait = acquired - queued
            if parent is not None:
                span = Span("shard.execute", queued, parent=parent)
                span.end = finished
                span.attributes.update(
                    {
                        "shard": shard.index,
                        "lock_wait_seconds": lock_wait,
                        "last_lsn": shard.last_lsn,
                    }
                )
                if shard.last_compaction is not None:
                    span.attributes["last_compaction_lsn"] = (
                        shard.last_compaction.get("lsn")
                    )
                    span.attributes["last_compaction_trace"] = (
                        shard.last_compaction.get("trace_id")
                    )
                wait = Span("lock-wait", queued, parent=span)
                wait.end = acquired
                run = Span("run", acquired, parent=span)
                run.end = finished
                span.children.extend((wait, run))
                parent.children.append(span)
            timings.append((shard, lock_wait, finished - queued))
        return results, timings

    @staticmethod
    def _merge_results(results: Sequence[QueryResult]) -> QueryResult:
        stats = QueryStats()
        for result in results:
            stats.merge(result.stats)
        empty: FrozenSet[str] = frozenset()
        return QueryResult(empty.union(*(each.matches for each in results)), stats)

    @staticmethod
    def _result_work_units(result: QueryResult) -> float:
        """The paper's §5 work units one shard spent on one result."""
        return float(
            result.stats.histograms_checked + result.stats.rules_applied
        )

    def _query(
        self,
        kind: str,
        task: Callable[[_Shard], _T],
        merge: Callable[[List[_T]], _M],
        work: Callable[[_T], float],
        size: Callable[[_M], int],
    ) -> _M:
        """The one scatter-gather skeleton every read goes through.

        ``task`` runs on each shard under its read lock and ``merge``
        folds the shard-ordered results into the answer.  ``work`` (one
        shard result's §5 work units) and ``size`` (the answer's match
        count) feed the telemetry closed here: work-unit and latency
        histograms, span counters from the trace (when live), the
        recent-query ring, and one wide ``query`` event — the joinable
        record that ties the query's trace id to its cost.
        """
        started = time.perf_counter()
        tracer = maybe_tracer("sharded_query")
        tracer.root.set("kind", kind)
        with tracer.span("fanout", shards=len(self._shards)):
            results, timings = self._scatter(task, tracer)
        with tracer.span("merge"):
            merged = merge(results)
        per_shard_work = [work(result) for result in results]
        work_units = float(sum(per_shard_work))
        matches = size(merged)
        elapsed = time.perf_counter() - started
        # Per shard its latency, lock-wait and work units (the health
        # monitor's feed), and the query's latency: one registry call.
        observations = [("sharded_query_seconds", elapsed)]
        for (shard, lock_wait, total), units in zip(timings, per_shard_work):
            observations += zip(shard.histograms, (total, lock_wait, units))
        self.metrics.observe_many(observations)
        self.metrics.increment("shard.queries")
        trace_id = tracer.trace_id
        if tracer:
            for span in tracer.finish().iter_spans():
                self.metrics.increment(f"spans.{span.name}")
        slowest = max(timings, key=lambda timing: timing[2])[0].index
        entry: Dict[str, object] = {
            "ts": time.time(),
            "kind": kind,
            "seconds": elapsed,
            "work_units": work_units,
            "matches": matches,
            "trace_id": trace_id,
            "slowest_shard": slowest,
            "shard_seconds": {
                shard.key: round(total, 6) for shard, _lock_wait, total in timings
            },
        }
        with self._recent_lock:
            self._recent_queries.append(entry)
        self.events.emit(
            "query",
            subsystem="router",
            shard=slowest,
            trace_id=trace_id,
            query_kind=kind,
            seconds=round(elapsed, 6),
            work_units=work_units,
            matches=matches,
        )
        return merged

    def range_query(
        self,
        query: RangeQuery,
        method: str = "bwm",
        expand_to_bases: bool = False,
    ) -> QueryResult:
        """Fan a range query across shards; union of shard results."""
        return self._query(
            "range_query",
            lambda shard: shard.database.range_query(
                query, method=method, expand_to_bases=expand_to_bases
            ),
            self._merge_results,
            self._result_work_units,
            len,
        )

    def range_query_batch(
        self, queries: Sequence[RangeQuery], method: str = "bwm"
    ) -> List[QueryResult]:
        """Fan a query batch across shards; element-wise union."""
        return self._query(
            "range_query_batch",
            lambda shard: shard.database.range_query_batch(
                queries, method=method
            ),
            lambda per_shard: [
                self._merge_results(column) for column in zip(*per_shard)
            ],
            lambda results: sum(map(self._result_work_units, results)),
            lambda merged: sum(map(len, merged)),
        )

    def conjunctive_query(
        self,
        query: ConjunctiveQuery,
        method: str = "bwm",
        expand_to_bases: bool = False,
    ) -> QueryResult:
        """AND-composed constraints; per-shard intersections union.

        Correct because shards partition the id space: the global
        intersection distributes over the disjoint per-shard unions.
        """
        return self._query(
            "conjunctive_query",
            lambda shard: shard.database.conjunctive_query(
                query, method=method, expand_to_bases=expand_to_bases
            ),
            self._merge_results,
            self._result_work_units,
            len,
        )

    def text_query(
        self,
        text: str,
        method: str = "bwm",
        expand_to_bases: bool = False,
    ) -> QueryResult:
        """Parse once at the router, then fan out like the database does."""
        constraints = parse_constraints(text, self.quantizer)
        if len(constraints) == 1:
            return self.range_query(
                constraints[0], method=method, expand_to_bases=expand_to_bases
            )
        return self.conjunctive_query(
            ConjunctiveQuery(constraints),
            method=method,
            expand_to_bases=expand_to_bases,
        )

    def _similarity(
        self,
        kind: str,
        query: Union[Image, ColorHistogram],
        task: Callable[[MultimediaDatabase, ColorHistogram], KNNResult],
        limit: Optional[int],
        descending: bool = False,
    ) -> KNNResult:
        """kNN / similarity-range: ordered merge of the shard lists.

        Each shard returns its exact local list ascending by
        ``(distance, id)`` — or, ``descending``, by ``(-similarity, id)``;
        the first ``limit`` of their merge in that same order (all of it
        when ``None``) is the global answer — identical to the
        single-catalog result because no excluded local candidate can
        outrank an included one.
        """
        histogram = (
            ColorHistogram.of_image(query, self.quantizer)
            if isinstance(query, Image)
            else query
        )
        if histogram.quantizer != self.quantizer:
            raise QueryError("query histogram uses a different quantizer")

        def merge(results: List[KNNResult]) -> KNNResult:
            stats = KNNStats()
            for result in results:
                stats.candidates_considered += result.stats.candidates_considered
                stats.edited_pruned += result.stats.edited_pruned
                stats.edited_instantiated += result.stats.edited_instantiated
            sign = -1.0 if descending else 1.0
            ordered = heap_merge(
                *(result.neighbors for result in results),
                key=lambda neighbor: (sign * neighbor[0], neighbor[1]),
            )
            return KNNResult(tuple(islice(ordered, limit)), stats)

        return self._query(
            kind,
            lambda shard: task(shard.database, histogram),
            merge,
            lambda result: float(result.stats.candidates_considered),
            lambda merged: len(merged.neighbors),
        )

    def knn(
        self,
        query: Union[Image, ColorHistogram],
        k: int,
        method: str = "bounded",
    ) -> KNNResult:
        """Global k nearest neighbors: ordered merge of shard k-bests."""
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        return self._similarity(
            "knn",
            query,
            lambda database, histogram: database.knn(
                histogram, k, method=method
            ),
            k,
            descending=method == "intersection",
        )

    def similarity_range(
        self, query: Union[Image, ColorHistogram], epsilon: float
    ) -> KNNResult:
        """All images within L1 distance ``epsilon``: ordered shard merge."""
        return self._similarity(
            "similarity_range",
            query,
            lambda database, histogram: database.similarity_range(
                histogram, epsilon
            ),
            None,
        )

    # ------------------------------------------------------------------
    # Object access
    # ------------------------------------------------------------------
    def instantiate(self, image_id: str) -> Image:
        shard = self._owning_shard(image_id)
        with shard.lock.read_locked():
            return shard.database.instantiate(image_id)

    def exact_histogram(self, image_id: str) -> ColorHistogram:
        shard = self._owning_shard(image_id)
        with shard.lock.read_locked():
            return shard.database.exact_histogram(image_id)

    def contains(self, image_id: str) -> bool:
        return image_id in self._placement

    def ids(self) -> Iterable[str]:
        """Every stored id, shard-major then catalog insertion order."""
        for shard in self._shards:
            yield from shard.database.catalog.binary_ids()
        for shard in self._shards:
            yield from shard.database.catalog.edited_ids()

    def __len__(self) -> int:
        return len(self._placement)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self) -> Path:
        """Checkpoint every shard and truncate the WAL.

        Each shard saves through the normal atomic tmp+rename path into
        its own segment root, the manifest is rewritten, and only then
        is the WAL reset.  A crash anywhere leaves the tree loadable:
        un-checkpointed shards replay the WAL's records idempotently on
        the next :meth:`open`.
        """
        self._ensure_open()
        if self.root is None:
            raise ShardError(
                "ephemeral sharded catalog has no root; construct with "
                "root=... to enable save()"
            )
        with ExitStack() as stack:
            for shard in self._shards:
                # Shard locks are always taken in ascending shard-index
                # order here (the only multi-shard acquisition site), so
                # the self-cycle on the shard lock family cannot deadlock.
                stack.enter_context(shard.lock.write_locked())
            for shard in self._shards:
                save_database(
                    shard.database,
                    self.root / shard_dirname(shard.index),
                    faults=self.faults,
                )
            self._write_manifest()
            assert self._wal is not None
            truncated = len(self._wal.entries())
            self._wal.reset(self.faults)
        self.metrics.increment("shard.checkpoints")
        self.events.emit(
            "checkpoint",
            subsystem="shard",
            wal_records_truncated=truncated,
            versions=[shard.version for shard in self._shards],
        )
        return self.root

    @classmethod
    def open(
        cls,
        root: Union[str, Path],
        *,
        faults: Optional[NoFaults] = None,
    ) -> "ShardedCatalog":
        """Load a sharded root: shard segment roots plus WAL replay."""
        base = Path(root)
        manifest_path = base / SHARD_MANIFEST_NAME
        if not manifest_path.is_file():
            raise PersistenceError(
                f"{base} is not a sharded catalog root (no "
                f"{SHARD_MANIFEST_NAME})"
            )
        manifest = _read_shard_manifest(manifest_path)
        quantizer_info = manifest["quantizer"]
        assert isinstance(quantizer_info, dict)
        catalog = cls(
            int(manifest["shard_count"]),  # type: ignore[arg-type]
            root=base,
            quantizer=UniformQuantizer(
                divisions=int(quantizer_info["divisions"]),
                space=str(quantizer_info["space"]),
            ),
            fill_color=tuple(manifest["fill_color"]),  # type: ignore[arg-type]
            faults=faults,
        )
        for shard in catalog._shards:
            shard_root = base / shard_dirname(shard.index)
            if not has_committed_state(shard_root):
                continue  # never checkpointed; WAL replay fills it
            # load_database also rolls back a save that crashed between
            # its commit renames (shard dir absent, ``.old`` backup left).
            shard.database = load_database(shard_root)
            catalog._attach(shard)
            for image_id in shard.database.ids():
                catalog._placement[image_id] = shard.index
                catalog._note_allocated(image_id)
        versions = manifest.get("versions")
        if isinstance(versions, list):
            for shard, version in zip(catalog._shards, versions):
                shard.version = int(version)
        catalog._replay()
        return catalog

    def _replay(self) -> None:
        """Re-apply WAL records beyond the checkpoint, idempotently.

        A record whose effect is already present (the crash happened
        after apply, or an earlier partial replay got there) is
        skipped; a record whose subject is already gone likewise.  A
        record whose apply fails with a :class:`DatabaseError` is also
        skipped (with a warning): the WAL records attempts before
        outcomes, so a mutation that was rejected live — e.g. a
        ``delete_image`` on a base that still has derived edits — left
        its record behind, and replay must converge with the live
        rejection rather than render the root unopenable.  The sweep
        tests prove the result equals the no-crash oracle for a crash
        at every append/apply boundary.
        """
        assert self._wal is not None
        entries = self._wal.entries()
        if not entries:
            return
        self._replaying = True
        replayed = skipped = failed = 0
        try:
            for entry in entries:
                shard = self._shards[int(entry["shard"])]  # type: ignore[arg-type]
                op, image_id = str(entry["op"]), str(entry["image_id"])
                lsn = int(entry["lsn"])  # type: ignore[arg-type]
                with shard.lock.write_locked():
                    try:
                        applied = self._replay_entry(shard, op, image_id, lsn, entry)
                    except DatabaseError as exc:
                        failed += 1
                        shard.replay_failures += 1
                        logger.warning(
                            "WAL replay: record lsn=%s (%s %r) failed to "
                            "apply (%s); skipping — the live apply was "
                            "rejected the same way",
                            lsn,
                            op,
                            image_id,
                            exc,
                        )
                        # The structured twin of the warning above: the
                        # record's full identity — shard, LSN, op, and
                        # the rejecting error — lands in the event log
                        # where it is filterable and joinable.
                        self.events.emit(
                            "wal.replay_failed",
                            subsystem="wal",
                            shard=shard.index,
                            image_id=image_id,
                            lsn=lsn,
                            trace_id=entry.get("trace_id"),  # type: ignore[arg-type]
                            op=op,
                            error=str(exc),
                        )
                    else:
                        if applied:
                            replayed += 1
                        else:
                            skipped += 1
                    shard.version = max(shard.version, int(entry["version"]))  # type: ignore[arg-type]
                    shard.last_lsn = lsn
        finally:
            self._replaying = False
        self.metrics.increment("wal.replayed", replayed)
        self.metrics.increment("wal.replay_skipped", skipped)
        self.metrics.increment("wal.replay_failed", failed)
        self.events.emit(
            "wal.replay",
            subsystem="wal",
            replayed=replayed,
            skipped=skipped,
            failed=failed,
        )
        logger.info(
            "WAL replay: %d record(s) applied, %d already present, "
            "%d rejected",
            replayed,
            skipped,
            failed,
        )

    def _replay_entry(
        self,
        shard: _Shard,
        op: str,
        image_id: str,
        lsn: int,
        entry: Dict[str, object],
    ) -> bool:
        """Apply one WAL record to its shard; False when a no-op.

        Must only be called with ``shard.lock``'s write side held (the
        replayer's loop does this).  A table kind whose effect is
        already present is skipped; otherwise the record goes through
        the same applier and the same :meth:`_settle` as its live commit.
        """
        if op == "change":
            # Out-of-band capture: nothing to re-apply (no payload), but
            # surface it — the change itself was lost with the process.
            self.metrics.increment("wal.unreplayable")
            logger.warning(
                "WAL change record for %r (shard %d) has no payload to "
                "replay; the out-of-band mutation did not survive the "
                "crash",
                image_id,
                shard.index,
            )
            return False
        kind = RECORD_KINDS.get(op)
        if kind is None:
            raise ShardError(f"unknown WAL record kind {op!r} during replay")
        if kind.done(shard, image_id):
            return False
        kind.apply(shard, image_id, kind.decode(entry))
        self._settle(shard, op, image_id, lsn, entry.get("trace_id"))
        return True

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, object]:
        """What ``repro shards --status`` reports."""
        shards: List[Dict[str, object]] = []
        for shard in self._shards:
            with shard.lock.read_locked():
                summary = shard.database.structure_summary()
                shards.append(
                    {
                        "index": shard.index,
                        "binary_images": summary["binary_images"],
                        "edited_images": summary["edited_images"],
                        "version": shard.version,
                        "queries_served": shard.queries_served,
                        "materialized": sorted(shard.materialized),
                        "last_lsn": shard.last_lsn,
                        "replay_failures": shard.replay_failures,
                    }
                )
        wal_entries = len(self._wal.entries()) if self._wal is not None else 0
        return {
            "root": str(self.root) if self.root is not None else None,
            "shard_count": len(self._shards),
            "images": len(self._placement),
            "wal_entries": wal_entries,
            "shards": shards,
        }

    def describe_status(self) -> str:
        status = self.status()
        lines = [
            f"sharded catalog at {status['root'] or '<ephemeral>'}: "
            f"{status['shard_count']} shard(s), {status['images']} image(s), "
            f"{status['wal_entries']} WAL record(s) since checkpoint",
        ]
        for shard in status["shards"]:  # type: ignore[union-attr]
            assert isinstance(shard, dict)
            materialized = shard["materialized"]
            assert isinstance(materialized, list)
            lines.append(
                f"  shard {shard['index']}: {shard['binary_images']} binary "
                f"+ {shard['edited_images']} edited, "
                f"v{shard['version']}, {shard['queries_served']} queries, "
                f"{len(materialized)} materialized"
            )
        return "\n".join(lines)

    def wal_depth_by_shard(self) -> Dict[int, int]:
        """Unreplayed WAL records per shard index (health signal)."""
        if self._wal is None:
            return {}
        depths: Dict[int, int] = {}
        for entry in self._wal.entries():
            index = int(entry["shard"])  # type: ignore[arg-type]
            depths[index] = depths.get(index, 0) + 1
        return depths

    def health_signals(self) -> List[Dict[str, object]]:
        """Raw per-shard health inputs for the :class:`HealthMonitor`.

        Latency/lock-wait/work-unit distributions are *not* here — the
        monitor reads those from :meth:`metrics_snapshot`'s per-shard
        histograms; this returns the state-shaped signals (WAL depth,
        replay failures, backlog) that have no histogram.  ``backlog``
        counts edited images whose memo row is not valid — the rows a
        cold read would have to sweep.
        """
        self._ensure_open()
        depths = self.wal_depth_by_shard()
        signals: List[Dict[str, object]] = []
        for shard in self._shards:
            with shard.lock.read_locked():
                engine = shard.database.engine
                backlog = sum(
                    not engine.has_cached_bounds(each)
                    for each in shard.database.catalog.edited_ids()
                )
                signals.append(
                    {
                        "shard": shard.index,
                        "queries_served": shard.queries_served,
                        "replay_failures": shard.replay_failures,
                        "wal_depth": depths.get(shard.index, 0),
                        "backlog": backlog,
                        "materialized": len(shard.materialized),
                        "last_lsn": shard.last_lsn,
                        "last_compaction": (
                            dict(shard.last_compaction)
                            if shard.last_compaction is not None
                            else None
                        ),
                    }
                )
        return signals

    def recent_queries(self, count: Optional[int] = None) -> List[Dict[str, object]]:
        """The most recent scatter-gather queries, oldest-first."""
        with self._recent_lock:
            entries = [dict(entry) for entry in self._recent_queries]
        if count is not None and count >= 0:
            entries = entries[-count:] if count else []
        return entries

    def metrics_snapshot(self) -> Dict[str, object]:
        snapshot = dict(self.metrics.snapshot())
        snapshot["events"] = self.events.stats()
        return {key: snapshot[key] for key in sorted(snapshot)}

    def prometheus_metrics(self) -> str:
        """The shard tier's metrics in Prometheus text exposition."""
        return render_prometheus(self.metrics_snapshot())

    def close(self) -> None:
        """Silence the ingestion listeners and close the event log.

        Reads run on their callers' threads, so there is no thread to
        stop; a read after ``close`` raises :class:`ShardError`.
        """
        if self._closed:
            return
        self._closed = True
        self.events.close()

    def __enter__(self) -> "ShardedCatalog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# Module helpers
# ----------------------------------------------------------------------
def _read_shard_manifest(path: Path) -> Dict[str, object]:
    """Read and checksum-verify the shard layout manifest."""
    try:
        manifest = json.loads(path.read_text("utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise PersistenceError(f"unreadable shard manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise PersistenceError(f"shard manifest {path} is not a JSON object")
    recorded = manifest.pop("manifest_sha256", None)
    canonical = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    if recorded != sha256_hex(canonical.encode("utf-8")):
        raise PersistenceError(
            f"shard manifest {path} failed its checksum (torn write or "
            f"hand edit); restore it or rebuild the root"
        )
    return manifest
