"""The durable-write seam: every persistent side effect goes through a plan.

``save_database`` and the shard write-ahead log route file writes, log
appends, fsyncs and commit renames through a *plan* object.
:class:`NoFaults` is the production plan; the plans that turn chosen
boundaries into simulated crashes or I/O errors build on it in
:mod:`repro.testing.faults`.

:class:`ChecksummedLineLog` is the append-only, self-verifying JSONL
file the shard WAL is.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Dict, List, Optional

from repro.db.versioning import sha256_hex
from repro.errors import CorruptionError

logger = logging.getLogger(__name__)


class NoFaults:
    """The production plan: every side effect succeeds.

    ``fsync`` is deliberately a real fsync: the shard WAL's durability
    claims rest on it.  Plans that cannot fsync a path (e.g. a directory
    on a filesystem that refuses it) degrade silently, which matches
    what production code does with best-effort directory syncs.
    """

    def write_bytes(self, path: Path, payload: bytes) -> None:
        """Write ``payload`` to ``path`` (one durable boundary)."""
        path.write_bytes(payload)

    def append_bytes(self, path: Path, payload: bytes) -> None:
        """Append ``payload`` to ``path`` (one durable boundary)."""
        with open(path, "ab") as handle:
            handle.write(payload)

    def fsync(self, path: Path) -> None:
        """Flush ``path`` (file or directory) to stable storage."""
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def rename(self, source: Path, target: Path) -> None:
        """Rename ``source`` over ``target`` (one durable boundary)."""
        source.replace(target)


class ChecksummedLineLog:
    """An append-only JSONL file whose every line verifies itself.

    The shard write-ahead log's line discipline: one canonical JSON
    object per line (sorted keys, compact separators), each carrying
    ``line_sha256`` over its own canonical form sans that field.
    Appends go through a fault plan (append and fsync are separate kill
    points).  Reading tolerates exactly one damaged line *at the tail*
    — the torn-append crash shape — and treats damage anywhere else as
    corruption.

    Not thread-safe; a user with concurrent appenders serializes them.
    ``noun`` names the log in error messages (``"WAL"``).
    """

    def __init__(self, path: Path, noun: str) -> None:
        self.path = path
        self.noun = noun

    def exists(self) -> bool:
        return self.path.is_file()

    def append(self, plan: NoFaults, entry: Dict[str, object]) -> Dict[str, object]:
        """Durably append ``entry``; returns it with its checksum added."""
        self._truncate_torn_tail()
        entry = dict(entry)
        entry["line_sha256"] = sha256_hex(_canonical(entry))
        plan.append_bytes(self.path, _canonical(entry) + b"\n")
        plan.fsync(self.path)
        return entry

    def entries(self) -> List[Dict[str, object]]:
        """Verified entries in append order; a torn final line is dropped."""
        if not self.exists():
            return []
        try:
            raw_lines = self.path.read_bytes().split(b"\n")
        except OSError as exc:
            raise CorruptionError(
                f"unreadable {self.noun} {self.path}: {exc}"
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
                    f"{self.path}: damaged {self.noun} line {index + 1} of "
                    f"{len(lines)} (not a torn tail; refusing to guess)"
                )
            entries.append(entry)
        return entries

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
