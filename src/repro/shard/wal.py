"""The shard write-ahead log: append-only, checksummed JSONL.

Every :class:`~repro.shard.sharded.ShardedCatalog` mutation is appended
here **before** it is applied to the owning shard, which is what makes
streaming ingestion durable: a crash between append and apply replays
the record on open; a crash mid-append leaves a torn tail that replay
detects and drops.  Each line is canonical JSON (sorted keys, compact
separators) carrying ``line_sha256`` over its own canonical form sans
that field, because ROADMAP item 3's read replicas will tail this same
file, and a self-verifying line protocol is what lets a replica resume
from any byte offset it last fsynced.

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
``sequence`` (its text serialization), the deletes carry nothing.

The retired kinds (:data:`repro.shard.records.RETIRED_KINDS`) are
outside the table.  Earlier releases wrote them; nothing writes them
now, readers still decode them, replay skips them, and no new kind may
reuse their names.  ``change`` (payload-free) recorded a direct write
to a shard database, which a shard database now refuses; replay counts
it as unreplayable.  ``compact`` (``lo`` / ``hi`` int lists plus
``height`` / ``width``) and ``decompact`` (payload-free) journaled the
compactor's BOUNDS matrices and their retractions: derived memo state
that a read recomputes, so skipping them loses no write.

Appends go through a fault plan (:mod:`repro.db.durable`): append
and fsync are separate kill points, and ``tests/shard/
test_wal_replay_faults.py`` sweeps a crash over every one.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.db.durable import NoFaults
from repro.db.versioning import sha256_hex
from repro.errors import CorruptionError, PersistenceError
from repro.shard.records import RECORD_KINDS, RETIRED_KINDS

logger = logging.getLogger(__name__)

WAL_NAME = "shard.wal"


def wal_record_kinds() -> Tuple[str, ...]:
    """The record kinds a WAL consumer must handle (for replicas)."""
    return (*RECORD_KINDS, *RETIRED_KINDS)


class ShardWAL:
    """Append-only, per-line-checksummed log of shard mutations.

    Reading tolerates exactly one damaged line *at the tail* — the
    torn-append crash shape — and treats damage anywhere else as
    corruption.  Thread-safe: mutations on different shards hold
    different per-shard write locks but share this one log, so appends,
    resets, and the LSN counter serialize on an internal lock — LSNs
    stay unique and monotonic, and no append can interleave with the
    torn-tail truncation of another.
    """

    def __init__(self, base: Path) -> None:
        self.path = Path(base) / WAL_NAME
        self._next_lsn: Optional[int] = None
        # Records in the log, once known: set by every full read and by
        # reset, bumped by every append, so counting never re-reads.
        self._records: Optional[int] = None
        # Reentrant because _allocate_lsn bootstraps the counter by
        # calling entries() from inside the append critical section.
        self._lock = threading.RLock()

    def exists(self) -> bool:
        return self.path.is_file()

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
        """Durably append one mutation record; returns the full entry
        (its checksum included).

        A failed write or fsync (a full disk, a failing device) raises
        :class:`~repro.errors.PersistenceError` and leaves the log as it
        was: the record is cut back off and its LSN is reused, so the
        caller can refuse the mutation and replay never applies it.
        """
        if op not in RECORD_KINDS and op not in RETIRED_KINDS:
            raise CorruptionError(f"unknown WAL record kind {op!r}")
        # The append-before-apply discipline requires fsyncs to land in
        # LSN order, so the lock is held across the append+fsync;
        # releasing it in between could interleave a later record's
        # durability ahead of this one's.
        with self._lock:
            self._truncate_torn_tail()
            lsn = self._allocate_lsn()
            entry: Dict[str, object] = {
                "lsn": lsn,
                "op": op,
                "shard": shard,
                "image_id": image_id,
                "version": version,
                **payload,
            }
            entry["line_sha256"] = sha256_hex(_canonical(entry))
            line = _canonical(entry) + b"\n"
            written = False
            try:
                plan.append_bytes(self.path, line)
                written = True
                if self._records is not None:
                    self._records += 1
                plan.fsync(self.path)
            except OSError as exc:
                if written:
                    # Written but not durable, and the caller will not
                    # apply the mutation: take the record back so replay
                    # cannot apply it either.
                    with open(self.path, "r+b") as handle:
                        handle.truncate(handle.seek(0, os.SEEK_END) - len(line))
                    if self._records is not None:
                        self._records -= 1
                self._next_lsn = lsn
                raise PersistenceError(
                    f"WAL append to {self.path} failed: {exc}"
                ) from exc
            return entry

    def entries(self) -> List[Dict[str, object]]:
        """Verified WAL entries in append order; a torn final line is dropped."""
        with self._lock:
            if not self.exists():
                self._records = 0
                return []
            try:
                raw_lines = self.path.read_bytes().split(b"\n")
            except OSError as exc:
                raise CorruptionError(
                    f"unreadable WAL {self.path}: {exc}"
                ) from exc
            lines = [line for line in raw_lines if line.strip()]
            entries: List[Dict[str, object]] = []
            for index, line in enumerate(lines):
                entry = _verify_line(line)
                if entry is None:
                    if index == len(lines) - 1:
                        logger.warning(
                            "dropping torn tail line of %s (crash mid-append)",
                            self.path,
                        )
                        break
                    raise CorruptionError(
                        f"{self.path}: damaged WAL line {index + 1} of "
                        f"{len(lines)} (not a torn tail; refusing to guess)"
                    )
                entries.append(entry)
            self._records = len(entries)
            return entries

    def record_count(self) -> int:
        """How many records the log holds, from bookkeeping: only the
        first call on a log this instance has never read reads it."""
        with self._lock:
            if self._records is None:
                self.entries()
            assert self._records is not None
            return self._records

    def reset(self, plan: NoFaults) -> None:
        """Truncate the log after a checkpoint made every entry durable.

        Called by :meth:`~repro.shard.sharded.ShardedCatalog.save` once
        each shard's segment root holds the state the log describes.  A
        crash before the truncate just replays records whose effects are
        already present — replay is idempotent, so the state converges.
        """
        with self._lock:
            plan.write_bytes(self.path, b"")
            self._records = 0
            # The truncate must not race an in-flight append: a record
            # fsynced after the truncate's fsync but before _next_lsn is
            # reset would survive with a stale LSN.
            plan.fsync(self.path)
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

    def _truncate_torn_tail(self) -> None:
        """Cut an unterminated final line before appending a new one.

        A crash mid-append leaves a newline-less prefix at the tail;
        appending straight after it would glue two lines into one
        garbage line *mid-file*, which reading rightly refuses.  The
        truncation is recovery of already-damaged state, not a durable
        protocol step, so it does not go through the fault plan.

        The check runs on every append but stays O(1): only the file's
        final byte is inspected (every committed line ends in a
        newline), and the full scan for the last terminator happens
        only in the rare already-damaged case.
        """
        if not self.path.is_file():
            return
        with open(self.path, "rb") as handle:
            if handle.seek(0, os.SEEK_END) == 0:
                return
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) == b"\n":
                return
            handle.seek(0)
            data = handle.read()
        keep = data.rfind(b"\n") + 1
        with open(self.path, "r+b") as handle:
            handle.truncate(keep)


def _canonical(entry: Dict[str, object]) -> bytes:
    return json.dumps(entry, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _verify_line(line: bytes) -> Optional[Dict[str, object]]:
    try:
        entry = json.loads(line.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(entry, dict):
        return None
    recorded = entry.pop("line_sha256", None)
    if recorded != sha256_hex(_canonical(entry)):
        return None
    return entry
