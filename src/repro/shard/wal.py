"""The shard write-ahead log: append-only, checksummed JSONL.

Every :class:`~repro.shard.sharded.ShardedCatalog` mutation is appended
here **before** it is applied to the owning shard, which is what makes
streaming ingestion durable: a crash between append and apply replays
the record on open; a crash mid-append leaves a torn tail that replay
detects and drops.  The file is a
:class:`~repro.db.durable.ChecksummedLineLog` — canonical JSON per
line, each carrying ``line_sha256`` over its own canonical form —
because ROADMAP item 3's read replicas will tail this same file, and a
self-verifying line protocol is what lets a replica resume from any
byte offset it last fsynced.

Record shape
------------
Every record carries::

    lsn        log sequence number (1-based, monotonically increasing)
    op         one of :func:`wal_record_kinds`
    shard      owning shard index
    image_id   the mutated id
    version    the shard-local version the mutation commits

plus an op-specific payload.  The kinds, their payloads and how each is
applied and replayed are specified once, by the table in
:mod:`repro.shard.records`: ``insert_image`` / ``update_image`` carry
``ppm`` (base64 of the binary PPM), ``insert_edited`` carries
``sequence`` (its text serialization), ``compact`` carries ``lo`` /
``hi`` int lists plus ``height`` / ``width``, the deletes and
``decompact`` carry nothing.  The one kind outside the table is
``change``: an out-of-band catalog change observed through the bounds
engine's invalidation feed — recorded so replicas learn to drop caches,
but carrying no payload to re-apply.

Appends go through a fault plan (:mod:`repro.db.durable`): append
and fsync are separate kill points, and ``tests/shard/
test_wal_replay_faults.py`` sweeps a crash over every one.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.db.durable import ChecksummedLineLog, NoFaults
from repro.errors import CorruptionError
from repro.shard.records import RECORD_KINDS

WAL_NAME = "shard.wal"


def wal_record_kinds() -> Tuple[str, ...]:
    """The record kinds a WAL consumer must handle (for replicas)."""
    return (*RECORD_KINDS, "change")


class ShardWAL:
    """Append-only, per-line-checksummed log of shard mutations.

    A :class:`~repro.db.durable.ChecksummedLineLog` of the records
    described above: appends go through the fault plan (append + fsync
    are separate kill points), and replay tolerates exactly one damaged
    line *at the tail* — the torn-append crash shape — and treats damage
    anywhere else as corruption.  What this class adds is the record
    shape, the LSN counter and the lock.

    Thread-safe: mutations on different shards hold different per-shard
    write locks but share this one log, and the compactor and the
    out-of-band listener append from their own threads, so appends,
    resets, and the LSN counter serialize on an internal lock — LSNs
    stay unique and monotonic, and no append can interleave with the
    torn-tail truncation of another.
    """

    def __init__(self, base: Path) -> None:
        self._log = ChecksummedLineLog(Path(base) / WAL_NAME, "WAL")
        self.path = self._log.path
        self._next_lsn: Optional[int] = None
        # Reentrant because _allocate_lsn bootstraps the counter by
        # calling entries() from inside the append critical section.
        self._lock = threading.RLock()

    def exists(self) -> bool:
        return self._log.exists()

    # ------------------------------------------------------------------
    def append(
        self,
        plan: NoFaults,
        op: str,
        *,
        shard: int,
        image_id: str,
        version: int,
        **payload: object,
    ) -> Dict[str, object]:
        """Durably append one mutation record; returns the full entry."""
        if op not in RECORD_KINDS and op != "change":
            raise CorruptionError(f"unknown WAL record kind {op!r}")
        # The append-before-apply discipline requires fsyncs to land in
        # LSN order, so the lock is held across the log's append+fsync;
        # releasing it in between could interleave a later record's
        # durability ahead of this one's.
        with self._lock:
            return self._log.append(
                plan,
                {
                    "lsn": self._allocate_lsn(),
                    "op": op,
                    "shard": shard,
                    "image_id": image_id,
                    "version": version,
                    **payload,
                },
            )

    def entries(self) -> List[Dict[str, object]]:
        """Verified WAL entries in append order; a torn final line is dropped."""
        with self._lock:
            return self._log.entries()

    def reset(self, plan: NoFaults) -> None:
        """Truncate the log after a checkpoint made every entry durable.

        Called by :meth:`~repro.shard.sharded.ShardedCatalog.save` once
        each shard's segment root holds the state the log describes.  A
        crash before the truncate just replays records whose effects are
        already present — replay is idempotent, so the state converges.
        """
        with self._lock:
            plan.write_bytes(self.path, b"")
            # The truncate must not race an in-flight append: a record
            # fsynced after the truncate's fsync but before _next_lsn is
            # reset would survive with a stale LSN.
            plan.fsync(self.path)  # repro-lint: disable=CC002
            self._next_lsn = 1

    # ------------------------------------------------------------------
    def _allocate_lsn(self) -> int:
        if self._next_lsn is None:
            entries = self.entries()
            last = int(entries[-1]["lsn"]) if entries else 0  # type: ignore[arg-type]
            self._next_lsn = last + 1
        lsn = self._next_lsn
        self._next_lsn += 1
        return lsn
