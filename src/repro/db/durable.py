"""The durable-write seam: every persistent side effect goes through a plan.

``save_database`` and the shard write-ahead log route file writes, log
appends, fsyncs and commit renames through a *plan* object.
:class:`NoFaults` is the production plan; the plans that turn chosen
boundaries into simulated crashes or I/O errors build on it in
:mod:`repro.testing.faults`.
"""

from __future__ import annotations

import os
from pathlib import Path


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
