"""Fault injection for the persistence and write-ahead-log layers.

Crash safety cannot be argued from code inspection alone; it has to be
demonstrated by actually crashing the save protocol at every boundary
and checking what a subsequent load makes of the wreckage.  This module
provides the seam: :func:`repro.db.persistence.save_database` and the
shard write-ahead log (:mod:`repro.shard.wal`) route every durable side
effect — file writes, log appends, fsyncs, and commit renames —
through a *fault plan* (:class:`repro.db.durable.NoFaults` in production),
and test plans turn chosen boundaries into simulated crashes or I/O errors.

Three failure modes cover the interesting crash shapes:

``before``
    The process dies before the write starts — the file is absent.
``torn``
    The process dies mid-write — the file holds a prefix of the payload
    (the classic torn/truncated write).
``after``
    The process dies after the payload is durable but before the next
    protocol step — the file is complete, later files are absent.

A simulated crash raises :class:`InjectedCrash`, which deliberately
derives from :class:`BaseException`-adjacent ``Exception`` but *not*
from ``repro.errors.ReproError``: production code must never swallow it.

Crashes model power loss; :class:`ErrorPlan` models the *other* way
storage fails — the write call returns an error (``ENOSPC``, ``EIO``)
and the process lives on.  Unlike a crash, an injected ``OSError`` is a
normal error the protocol must handle: surface a typed
:class:`~repro.errors.PersistenceError` and leave the previous on-disk
state untouched.

Typical kill-point sweep::

    counter = CountingFaults()
    save_database(db, root, faults=counter)        # learn the boundaries
    for index in range(1, counter.writes + 1):
        for mode in ("before", "torn", "after"):
            plan = FaultPlan(fail_at=index, mode=mode)
            with pytest.raises(InjectedCrash):
                save_database(db, root, faults=plan)
            # ... assert load/salvage behavior ...
"""

from __future__ import annotations

import errno as _errno
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from repro.db.durable import NoFaults

#: Supported failure modes for :class:`FaultPlan`.
FAIL_MODES = ("before", "torn", "after")

#: Boundary kinds a plan can observe or fail.
BOUNDARY_KINDS = ("write", "append", "fsync", "rename")


class InjectedCrash(Exception):
    """A simulated process crash at an injected failure point."""


@dataclass(frozen=True)
class WriteEvent:
    """One durable side effect observed by a fault plan."""

    index: int
    kind: str  # one of BOUNDARY_KINDS
    path: Path
    size: int


class CountingFaults(NoFaults):
    """Succeeds like :class:`NoFaults` but records every boundary.

    Run a save (or a WAL append) through it once to learn how many kill
    points the protocol has, then sweep ``FaultPlan(fail_at=1..writes)``.
    """

    def __init__(self) -> None:
        self.events: List[WriteEvent] = []

    @property
    def writes(self) -> int:
        """Total durable boundaries the last run crossed."""
        return len(self.events)

    def _record(self, kind: str, path: Path, size: int) -> None:
        self.events.append(WriteEvent(len(self.events) + 1, kind, Path(path), size))

    def write_bytes(self, path: Path, payload: bytes) -> None:
        self._record("write", path, len(payload))
        super().write_bytes(path, payload)

    def append_bytes(self, path: Path, payload: bytes) -> None:
        self._record("append", path, len(payload))
        super().append_bytes(path, payload)

    def fsync(self, path: Path) -> None:
        self._record("fsync", path, 0)
        super().fsync(path)

    def rename(self, source: Path, target: Path) -> None:
        self._record("rename", target, 0)
        super().rename(source, target)


@dataclass
class FaultPlan:
    """Crash at the ``fail_at``-th durable boundary in the given mode.

    ``mode`` is one of :data:`FAIL_MODES`.  For renames and fsyncs,
    ``torn`` is meaningless (renames are atomic; fsync writes nothing),
    so it degrades to ``before`` — the crash happens and the side effect
    never lands.  For appends, ``torn`` leaves a prefix of the appended
    payload at the end of the file: the torn-journal-tail case.
    """

    fail_at: int
    mode: str = "before"
    torn_fraction: float = 0.5
    _counter: int = field(default=0, repr=False)
    crashed: Optional[WriteEvent] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in FAIL_MODES:
            raise ValueError(f"mode must be one of {FAIL_MODES}, not {self.mode!r}")
        if self.fail_at < 1:
            raise ValueError("fail_at counts boundaries from 1")
        if not 0.0 <= self.torn_fraction < 1.0:
            raise ValueError("torn_fraction must be in [0, 1)")

    def _next(self, kind: str, path: Path, size: int) -> bool:
        """Advance the boundary counter; True when this one crashes."""
        self._counter += 1
        if self._counter == self.fail_at:
            self.crashed = WriteEvent(self._counter, kind, Path(path), size)
            return True
        return False

    def write_bytes(self, path: Path, payload: bytes) -> None:
        if self._next("write", path, len(payload)):
            if self.mode == "torn":
                path.write_bytes(payload[: int(len(payload) * self.torn_fraction)])
            elif self.mode == "after":
                path.write_bytes(payload)
            raise InjectedCrash(f"injected crash ({self.mode}) writing {path}")
        path.write_bytes(payload)

    def append_bytes(self, path: Path, payload: bytes) -> None:
        if self._next("append", path, len(payload)):
            kept = b""
            if self.mode == "torn":
                kept = payload[: int(len(payload) * self.torn_fraction)]
            elif self.mode == "after":
                kept = payload
            if kept:
                with open(path, "ab") as handle:
                    handle.write(kept)
            raise InjectedCrash(
                f"injected crash ({self.mode}) appending to {path}"
            )
        with open(path, "ab") as handle:
            handle.write(payload)

    def fsync(self, path: Path) -> None:
        if self._next("fsync", path, 0):
            # "torn" degrades to "before"; either way the fsync itself is
            # moot for state (the data is already in the page cache and
            # the harness runs on one machine), the crash is the point.
            raise InjectedCrash(f"injected crash ({self.mode}) fsyncing {path}")
        NoFaults.fsync(self, path)

    def rename(self, source: Path, target: Path) -> None:
        if self._next("rename", target, 0):
            if self.mode == "after":
                source.replace(target)
            raise InjectedCrash(f"injected crash ({self.mode}) renaming to {target}")
        source.replace(target)


_ERRNO_NAMES = {"ENOSPC": _errno.ENOSPC, "EIO": _errno.EIO}


@dataclass
class ErrorPlan:
    """Inject an ``OSError`` at the ``fail_at``-th matching boundary.

    Models a live process hitting a full disk (``ENOSPC``) or a failing
    device (``EIO``): the call raises, nothing after it happens, and —
    unlike :class:`InjectedCrash` — the protocol is expected to *handle*
    it: clean up scratch state, leave the previous committed state
    loadable, and surface :class:`~repro.errors.PersistenceError`.

    ``ops`` restricts which boundary kinds count toward ``fail_at``
    (default: all of them), so a sweep can target "the third fsync"
    independently of how many writes precede it.
    """

    fail_at: int
    error: str = "ENOSPC"
    ops: Tuple[str, ...] = BOUNDARY_KINDS
    _counter: int = field(default=0, repr=False)
    raised: Optional[WriteEvent] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.fail_at < 1:
            raise ValueError("fail_at counts boundaries from 1")
        if self.error not in _ERRNO_NAMES:
            raise ValueError(
                f"error must be one of {sorted(_ERRNO_NAMES)}, not {self.error!r}"
            )
        unknown = set(self.ops) - set(BOUNDARY_KINDS)
        if unknown:
            raise ValueError(f"unknown boundary kinds {sorted(unknown)}")

    def _maybe_raise(self, kind: str, path: Path, size: int) -> None:
        if kind not in self.ops:
            return
        self._counter += 1
        if self._counter == self.fail_at:
            self.raised = WriteEvent(self._counter, kind, Path(path), size)
            code = _ERRNO_NAMES[self.error]
            raise OSError(
                code, f"injected {self.error} on {kind} of {path}", str(path)
            )

    def write_bytes(self, path: Path, payload: bytes) -> None:
        self._maybe_raise("write", path, len(payload))
        path.write_bytes(payload)

    def append_bytes(self, path: Path, payload: bytes) -> None:
        self._maybe_raise("append", path, len(payload))
        with open(path, "ab") as handle:
            handle.write(payload)

    def fsync(self, path: Path) -> None:
        self._maybe_raise("fsync", path, 0)
        NoFaults.fsync(self, path)

    def rename(self, source: Path, target: Path) -> None:
        self._maybe_raise("rename", target, 0)
        source.replace(target)
