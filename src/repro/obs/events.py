"""The structured wide-event log: one JSONL event per state change.

The catalog's subsystems used to narrate themselves through ad-hoc
``logging.warning`` calls — useful to a human tailing stderr, useless to
anything that wants to *join* observations: which compaction preceded
this slow query?  which WAL record did replay reject, and why?  This
module replaces that with wide events in the canonical-schema sense:
one event per meaningful state change (mutation append, replay,
checkpoint, compaction, query), each carrying every identity the
emitting subsystem knows — shard index, image id, LSN, trace id — so
questions become filters instead of log archaeology.

Design points:

* **Stable schema.** Every event serializes to the same top-level keys
  (:data:`EVENT_FIELDS`); kind-specific payload lives under ``detail``.
  Each JSONL line carries ``v`` = :data:`EVENT_SCHEMA_VERSION` so future
  readers can dispatch.  Kinds are a closed set (:data:`EVENT_KINDS`) —
  an unknown kind is a programming error, not a new feature.
* **Ring + sink.** Events are ring-buffered in memory (bounded, cheap to
  snapshot for ``repro top``) and, when the log has a ``sink`` path,
  appended as JSONL for ``repro events`` and post-mortem joins.  The
  sink is buffered-append + flush, *not* fsynced: events are telemetry,
  not a durability protocol — that is the WAL's job.
* **Lineage by default.** ``emit`` fills ``trace_id`` from
  :func:`~repro.obs.trace.current_trace_id` when the caller does not
  pass one, so any event emitted inside a traced region joins the trace
  for free.
* **One-branch disable.** :meth:`EventLog.set_enabled` turns the log
  into a no-op whose cost is a single attribute check — the same
  discipline as :func:`~repro.obs.trace.maybe_tracer` — so the
  observability bench can measure the plane's overhead honestly.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import ObservabilityError
from repro.obs.trace import current_trace_id

#: Bump when the serialized shape changes incompatibly.
EVENT_SCHEMA_VERSION = 1

#: Default on-disk sink filename (lives under a sharded catalog root).
EVENTS_NAME = "events.jsonl"

#: The closed set of event kinds.  Emitting anything else raises — the
#: schema stays enumerable for dashboards and the CI round-trip check.
EVENT_KINDS = (
    "wal.append",
    "wal.replay",
    "wal.replay_failed",
    "checkpoint",
    "compaction.cycle",
    "compaction.materialized",
    "compaction.rolled_back",
    "query",
    "mutation",
    "health.verdict",
    # Reserved: nothing emits these; kept so older event logs validate.
    "migration.run",
    "migration.batch",
    "query.slow",
)

#: Top-level keys every serialized event carries, in serialization order.
EVENT_FIELDS = (
    "v",
    "seq",
    "ts",
    "kind",
    "subsystem",
    "shard",
    "image_id",
    "lsn",
    "trace_id",
    "detail",
)


@dataclass(frozen=True)
class Event:
    """One wide event: identities at the top level, payload in ``detail``."""

    seq: int
    ts: float
    kind: str
    subsystem: str
    shard: Optional[int] = None
    image_id: Optional[str] = None
    lsn: Optional[int] = None
    trace_id: Optional[str] = None
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict in the stable :data:`EVENT_FIELDS` order."""
        return {
            "v": EVENT_SCHEMA_VERSION,
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "subsystem": self.subsystem,
            "shard": self.shard,
            "image_id": self.image_id,
            "lsn": self.lsn,
            "trace_id": self.trace_id,
            "detail": dict(self.detail),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Event":
        problems = validate_event_dict(payload)
        if problems:
            raise ObservabilityError(
                "invalid event: " + "; ".join(problems)
            )
        return cls(
            seq=int(payload["seq"]),
            ts=float(payload["ts"]),
            kind=str(payload["kind"]),
            subsystem=str(payload["subsystem"]),
            shard=payload.get("shard"),
            image_id=payload.get("image_id"),
            lsn=payload.get("lsn"),
            trace_id=payload.get("trace_id"),
            detail=dict(payload.get("detail") or {}),
        )

    def describe(self) -> str:
        """One human line (``repro events`` default rendering)."""
        stamp = time.strftime("%H:%M:%S", time.localtime(self.ts))
        parts = [f"{stamp} #{self.seq:<5d} {self.kind:<24s} {self.subsystem}"]
        if self.shard is not None:
            parts.append(f"shard={self.shard}")
        if self.image_id is not None:
            parts.append(f"image={self.image_id}")
        if self.lsn is not None:
            parts.append(f"lsn={self.lsn}")
        if self.trace_id is not None:
            parts.append(f"trace={self.trace_id}")
        for key in sorted(self.detail):
            parts.append(f"{key}={self.detail[key]}")
        return " ".join(parts)


def validate_event_dict(payload: Any) -> List[str]:
    """Schema problems with one serialized event dict ([] when valid)."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"event must be an object, got {type(payload).__name__}"]
    version = payload.get("v")
    if version != EVENT_SCHEMA_VERSION:
        problems.append(
            f"schema version {version!r} != {EVENT_SCHEMA_VERSION}"
        )
    for key in ("seq", "ts", "kind", "subsystem", "detail"):
        if key not in payload:
            problems.append(f"missing required field {key!r}")
    kind = payload.get("kind")
    if kind is not None and kind not in EVENT_KINDS:
        problems.append(f"unknown event kind {kind!r}")
    if "seq" in payload and not isinstance(payload["seq"], int):
        problems.append("seq must be an integer")
    if "ts" in payload and not isinstance(payload["ts"], (int, float)):
        problems.append("ts must be a number")
    if "detail" in payload and not isinstance(payload["detail"], dict):
        problems.append("detail must be an object")
    shard = payload.get("shard")
    if shard is not None and not isinstance(shard, int):
        problems.append("shard must be an integer or null")
    lsn = payload.get("lsn")
    if lsn is not None and not isinstance(lsn, int):
        problems.append("lsn must be an integer or null")
    unknown = sorted(set(payload) - set(EVENT_FIELDS))
    if unknown:
        problems.append(f"unknown fields {unknown}")
    return problems


class EventLog:
    """Thread-safe bounded event ring with an optional JSONL sink.

    ``capacity`` bounds the in-memory ring (oldest events fall off);
    the sink file, when configured, keeps everything.  Opening a log
    whose sink already exists preloads the tail of the file into the
    ring, so a freshly ``ShardedCatalog.open``-ed root serves ``repro
    top``'s "recent" panels from its previous life.  A sink whose last
    line is unterminated (a writer died mid-append) is cut back to its
    last newline first, so the next append starts a line of its own.
    """

    def __init__(
        self,
        capacity: int = 1024,
        sink: Optional[Union[str, Path]] = None,
        enabled: bool = True,
        wall_clock=time.time,
    ) -> None:
        if capacity <= 0:
            raise ObservabilityError(
                f"event log capacity must be positive, got {capacity}"
            )
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._ring: "deque[Event]" = deque(maxlen=self.capacity)
        self._seq = 0
        self._emitted = 0
        self._enabled = bool(enabled)
        self._wall = wall_clock
        self._sink_path = Path(sink) if sink is not None else None
        self._sink_handle = None
        if self._sink_path is not None and self._sink_path.is_file():
            self._preload_sink()

    # ------------------------------------------------------------------
    def set_enabled(self, enabled: bool) -> bool:
        """Toggle emission; returns the previous setting."""
        with self._lock:
            previous = self._enabled
            self._enabled = bool(enabled)
        return previous

    @property
    def sink_path(self) -> Optional[Path]:
        return self._sink_path

    # ------------------------------------------------------------------
    def emit(
        self,
        kind: str,
        *,
        subsystem: str,
        shard: Optional[int] = None,
        image_id: Optional[str] = None,
        lsn: Optional[int] = None,
        trace_id: Optional[str] = None,
        **detail: Any,
    ) -> Optional[Event]:
        """Record one event; returns it, or ``None`` when disabled.

        ``trace_id`` defaults to the enclosing trace's id (if any), so
        emitters inside a traced region inherit lineage without passing
        anything.
        """
        if not self._enabled:
            return None
        if kind not in EVENT_KINDS:
            raise ObservabilityError(
                f"unknown event kind {kind!r} (known: {', '.join(EVENT_KINDS)})"
            )
        if trace_id is None:
            trace_id = current_trace_id()
        with self._lock:
            if not self._enabled:  # re-check: set_enabled races with emit
                return None
            self._seq += 1
            event = Event(
                seq=self._seq,
                ts=self._wall(),
                kind=kind,
                subsystem=subsystem,
                shard=shard,
                image_id=image_id,
                lsn=lsn,
                trace_id=trace_id,
                detail=detail,
            )
            self._ring.append(event)
            self._emitted += 1
            if self._sink_path is not None:
                self._write_sink(event)
        return event

    # ------------------------------------------------------------------
    def snapshot(self, kind: Optional[str] = None) -> List[Event]:
        """Ring contents oldest-first, optionally filtered by kind."""
        with self._lock:
            events = list(self._ring)
        if kind is not None:
            events = [event for event in events if event.kind == kind]
        return events

    def tail(self, count: int, kind: Optional[str] = None) -> List[Event]:
        """The newest ``count`` (filtered) events, oldest-first."""
        events = self.snapshot(kind)
        if count <= 0:
            return []
        return events[-count:]

    def stats(self) -> Dict[str, Any]:
        """Counters for metrics snapshots (key-sorted, deterministic)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "emitted": self._emitted,
                "enabled": 1 if self._enabled else 0,
                "retained": len(self._ring),
            }

    def close(self) -> None:
        with self._lock:
            if self._sink_handle is not None:
                try:
                    self._sink_handle.close()
                finally:
                    self._sink_handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _write_sink(self, event: Event) -> None:
        # Caller holds the lock.  Lazily open so constructing an EventLog
        # for a root that does not exist yet (catalog __init__ runs
        # before mkdir) costs nothing until the first emit.
        if self._sink_handle is None:
            self._sink_path.parent.mkdir(parents=True, exist_ok=True)
            self._sink_handle = open(self._sink_path, "a", encoding="utf-8")
        self._sink_handle.write(
            json.dumps(event.to_dict(), separators=(",", ":")) + "\n"
        )
        self._sink_handle.flush()

    def _preload_sink(self) -> None:
        # Appending after a torn tail would glue two lines into one
        # damaged line mid-file, which reading refuses; cut the tail off
        # first, as ShardWAL does (only the last byte is read unless the
        # file is already damaged).
        with open(self._sink_path, "rb+") as handle:
            if handle.seek(0, os.SEEK_END):
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    handle.seek(0)
                    handle.truncate(handle.read().rfind(b"\n") + 1)
        # Parse the ring's worth only: the sink keeps every event of the
        # root's life, numbered from 1 without gaps (last seq == count).
        events = read_events_jsonl(self._sink_path, limit=self.capacity)
        self._ring.extend(events)
        if events:
            self._seq = self._emitted = events[-1].seq


def read_events_jsonl(
    path: Union[str, Path], limit: Optional[int] = None
) -> List[Event]:
    """Parse an event sink file; returns events in file order.

    A damaged *final* line (torn concurrent append) is tolerated and
    dropped; damage anywhere else raises — same discipline as the WAL,
    for the same reason: mid-file damage means something other than an
    interrupted writer happened.  Lines older than ``limit`` are skipped.
    """
    path = Path(path)
    if not path.is_file():
        return []
    try:
        raw = path.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise ObservabilityError(f"unreadable event log {path}: {exc}") from exc
    lines = [line for line in raw.split("\n") if line.strip()]
    events: List[Event] = []
    # A limit bounds the parsing too; one line to spare for a torn tail.
    first = 0 if limit is None or limit < 0 else max(0, len(lines) - limit - 1)
    for index in range(first, len(lines)):
        try:
            payload = json.loads(lines[index])
            event = Event.from_dict(payload)
        except (json.JSONDecodeError, ObservabilityError) as exc:
            if index == len(lines) - 1:
                break  # torn tail: a reader raced a writer mid-line
            raise ObservabilityError(
                f"{path}: damaged event line {index + 1} of {len(lines)}: {exc}"
            ) from exc
        events.append(event)
    if limit is not None and 0 <= limit < len(events):
        events = events[len(events) - limit:]
    return events

