"""Online schema migration: v1/v2 catalogs to v3 segments, zero downtime.

ROADMAP items 1–2 (columnar op tables, sharding) need breaking on-disk
format changes, and a production MMDBMS cannot stop answering queries to
take them.  This module is the machinery that makes format changes
*rolling*: a :class:`Migrator` rewrites a catalog's records into v3
segments (:mod:`repro.db.versioning`) **in small batches**, committing
each batch through a durable, checksummed journal, while an attached
``QueryService`` keeps serving — the migrator takes the service's
writer-preferring lock only for the per-batch *pointer swap* (an atomic
manifest rename), so query p95 degrades by a bounded amount instead of
the service going dark.

Journal state machine
---------------------
``<root>/migration.journal`` is an append-only JSONL file; every line
carries its own SHA-256, so a torn tail (crash mid-append) is detected
and dropped on replay.  Events, in protocol order::

    begin            origin manifest version + full origin record table
    batch   (×N)     segment files for these ids are written and fsynced
    swap    (×N)     the manifest now points these ids at v3 segments
    complete         all records v3; obsolete v1/v2 files listed for cleanup
    rollback_begin   operator asked to abandon; manifest being restored
    rollback_done    manifest restored to the origin table

A crash at *any* point leaves the catalog loadable (the manifest swap is
an atomic rename; everything before it is invisible to readers) and the
migration **resumable**: pending work is recomputed from the manifest
itself — records still stamped v1/v2 — so replaying a half-applied batch
just overwrites its segment files idempotently.  Until ``complete`` is
journaled, every original v1/v2 content file is still on disk, which is
what makes ``rollback`` loss-free; after ``complete``, rollback is
refused.

Observability: progress flows through a
:class:`~repro.obs.metrics.MetricsRegistry` (``migration.*``
counters, a ``migration.phase`` gauge) that the service's Prometheus
exposition renders, and :meth:`Migrator.status` backs
``repro migrate --status``.

Every durable side effect goes through a fault plan
(:mod:`repro.db.durable`); ``tests/db/test_migration.py`` sweeps a
kill point over each one and asserts load + oracle parity + resume.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.db.durable import ChecksummedLineLog, NoFaults
from repro.db.persistence import (
    _read_manifest,
    manifest_checksum,
    root_lock,
)
from repro.db.versioning import (
    RecordPointer,
    encode_segment,
    ordered_pointers,
    pointers_from_v2_manifest,
    pointers_from_v3_manifest,
    read_record,
    segment_relpath,
    sha256_hex,
)
from repro.errors import CorruptionError, MigrationError
from repro.obs.metrics import MetricsRegistry

logger = logging.getLogger(__name__)

JOURNAL_NAME = "migration.journal"

#: ``migration.phase`` gauge values (rendered by the Prometheus layer).
PHASES = {"idle": 0, "migrating": 1, "rolling_back": 2, "complete": 3}


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------
class MigrationJournal:
    """Append-only, per-line-checksummed record of migration progress.

    A :class:`~repro.db.durable.ChecksummedLineLog` of ``{"event": ...,
    **payload}`` records: appends go through the fault plan (append +
    fsync are separate kill points), and replay tolerates exactly one
    damaged line *at the tail* — the torn-append crash shape — and
    treats damage anywhere else as corruption.
    """

    def __init__(self, base: Path) -> None:
        self._log = ChecksummedLineLog(Path(base) / JOURNAL_NAME, "journal")
        self.path = self._log.path

    def exists(self) -> bool:
        return self._log.exists()

    def append(self, plan: NoFaults, event: str, **payload: object) -> Dict[str, object]:
        return self._log.append(plan, {"event": event, **payload})

    def entries(self) -> List[Dict[str, object]]:
        """Verified journal entries; a torn final line is dropped."""
        return self._log.entries()

    def remove(self) -> None:
        self.path.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# Status / report types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MigrationStatus:
    """What ``repro migrate --status`` reports."""

    root: str
    format_version: int
    phase: str  # idle | migrating | rolling_back | complete
    total: int
    migrated: int  # records already stamped v3
    pending: int
    journal_entries: int
    batches_committed: int

    def describe(self) -> str:
        lines = [
            f"migration status of {self.root}: phase={self.phase}",
            f"  manifest format: v{self.format_version}",
            f"  records: {self.migrated}/{self.total} at v3, "
            f"{self.pending} pending",
        ]
        if self.journal_entries:
            lines.append(
                f"  journal: {self.journal_entries} entries, "
                f"{self.batches_committed} batches committed"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "root": self.root,
            "format_version": self.format_version,
            "phase": self.phase,
            "total": self.total,
            "migrated": self.migrated,
            "pending": self.pending,
            "journal_entries": self.journal_entries,
            "batches_committed": self.batches_committed,
        }


@dataclass
class MigrationReport:
    """What one :meth:`Migrator.run` (or rollback) accomplished."""

    root: str
    action: str  # "migrate" | "rollback" | "noop"
    records_migrated: int = 0
    batches: int = 0
    resumed: bool = False
    already_migrated: int = 0
    cleaned_files: int = 0
    notes: List[str] = field(default_factory=list)

    def describe(self) -> str:
        if self.action == "noop":
            head = f"nothing to migrate under {self.root}"
        elif self.action == "rollback":
            head = (
                f"rolled back migration under {self.root} "
                f"({self.cleaned_files} segment file(s) removed)"
            )
        else:
            verb = "resumed" if self.resumed else "migrated"
            head = (
                f"{verb} {self.root}: {self.records_migrated} record(s) "
                f"in {self.batches} batch(es) now at v3"
            )
        lines = [head]
        lines.extend(f"  {note}" for note in self.notes)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "root": self.root,
            "action": self.action,
            "records_migrated": self.records_migrated,
            "batches": self.batches,
            "resumed": self.resumed,
            "already_migrated": self.already_migrated,
            "cleaned_files": self.cleaned_files,
            "notes": list(self.notes),
        }


class _NullSwapLock:
    """Stand-in for a service write lock when migrating offline."""

    def __enter__(self) -> "_NullSwapLock":
        return self

    def __exit__(self, *exc) -> None:
        return None


# ----------------------------------------------------------------------
# The migrator
# ----------------------------------------------------------------------
class Migrator:
    """Batched, journaled, resumable v1/v2 → v3 migration of one root.

    Parameters
    ----------
    root:
        The database directory to migrate in place.
    batch_size:
        Records rewritten per journal/swap cycle.  Smaller batches mean
        shorter write-lock holds (better p95 under live traffic) and
        more journal entries; the swap itself is one manifest rename
        regardless.
    faults:
        Fault plan for every durable side effect (tests inject crashes
        and I/O errors here).
    service:
        A live ``QueryService`` serving this catalog.  When given,
        each pointer swap runs under the service's
        write lock, the bounds-engine change feed is fired afterward
        (dropping the result cache and staling indexes, the same
        contract as any catalog mutation), and progress lands in the
        service's metrics registry.
    metrics:
        Explicit registry override; defaults to the service's registry
        or a private one.
    """

    def __init__(
        self,
        root,
        *,
        batch_size: int = 16,
        faults: Optional[NoFaults] = None,
        service=None,
        metrics: Optional[MetricsRegistry] = None,
        events=None,
    ) -> None:
        if batch_size < 1:
            raise MigrationError("batch_size must be at least 1")
        self.base = Path(root)
        self.batch_size = batch_size
        self.plan = faults if faults is not None else NoFaults()
        self.service = service
        if metrics is not None:
            self.metrics = metrics
        elif service is not None:
            self.metrics = service.metrics
        else:
            self.metrics = MetricsRegistry()
        if events is not None:
            self.events = events
        elif service is not None and getattr(service, "events", None) is not None:
            self.events = service.events
        else:
            from repro.obs.events import default_event_log

            self.events = default_event_log()
        self.journal = MigrationJournal(self.base)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status(self) -> MigrationStatus:
        """The migration state of the root, derived from manifest + journal."""
        manifest = _read_manifest(self.base, salvage=False)
        version = int(manifest["format_version"])
        pointers = self._pointers(manifest, version)
        migrated = sum(1 for p in pointers.values() if p.segment_version >= 3)
        pending = len(pointers) - migrated
        entries = self.journal.entries()
        phase = "idle"
        if entries:
            last = entries[-1].get("event")
            if last in ("rollback_begin",):
                phase = "rolling_back"
            elif last == "complete":
                phase = "complete"
            else:
                phase = "migrating"
        return MigrationStatus(
            root=str(self.base),
            format_version=version,
            phase=phase,
            total=len(pointers),
            migrated=migrated,
            pending=pending,
            journal_entries=len(entries),
            batches_committed=sum(
                1 for e in entries if e.get("event") == "swap"
            ),
        )

    # ------------------------------------------------------------------
    # Forward migration
    # ------------------------------------------------------------------
    def run(self, *, resume: bool = False) -> MigrationReport:
        """Migrate every v1/v2 record to a v3 segment, in batches.

        With ``resume=False`` a journal left by an earlier (crashed or
        concurrent) run is an error; ``resume=True`` picks up exactly
        where the manifest says the last run stopped.  Raises
        :class:`MigrationError` on misuse and on I/O failure — in both
        cases the previous committed catalog state is still loadable.
        """
        try:
            return self._run(resume=resume)
        except OSError as exc:
            self._set_phase("idle")
            raise MigrationError(
                f"migration of {self.base} failed: {exc} "
                "(catalog unchanged since the last committed batch; "
                "re-run with --resume)"
            ) from exc

    def _run(self, *, resume: bool) -> MigrationReport:
        entries = self.journal.entries()
        if entries:
            last = entries[-1].get("event")
            if last == "rollback_begin":
                raise MigrationError(
                    f"{self.base} has an interrupted rollback; "
                    "run `repro migrate --rollback` to finish it"
                )
            if last == "complete":
                # Crash during post-complete cleanup: finish it.
                report = MigrationReport(
                    root=str(self.base), action="migrate", resumed=True
                )
                self._finish_cleanup(entries[-1], report)
                self._set_phase("idle")
                report.notes.append("finished interrupted cleanup")
                return report
            if not resume:
                raise MigrationError(
                    f"{self.base} already has a migration journal "
                    f"({len(entries)} entries); pass --resume to continue "
                    "it or --rollback to abandon it"
                )

        manifest = _read_manifest(self.base, salvage=False)
        version = int(manifest["format_version"])
        pointers = self._pointers(manifest, version)
        order = ordered_pointers(
            pointers, manifest["binary_ids"], manifest["edited_ids"]
        )
        pending = [p for p in order if p.segment_version < 3]
        already = len(order) - len(pending)

        report = MigrationReport(
            root=str(self.base),
            action="migrate",
            resumed=bool(entries),
            already_migrated=already,
        )
        if not pending and not entries:
            report.action = "noop"
            self._set_phase("idle")
            return report

        self._set_phase("migrating")
        if not entries:
            origin = {
                p.image_id: p.to_json() for p in order if p.segment_version < 3
            }
            self.journal.append(
                self.plan,
                "begin",
                origin_format_version=version,
                origin_records=origin,
                total=len(order),
                pending=len(pending),
                target_version=3,
                batch_size=self.batch_size,
            )
            self.metrics.increment("migration.runs")
        else:
            self.metrics.increment("migration.resumes")
        self.events.emit(
            "migration.run",
            subsystem="migration",
            root=str(self.base),
            resumed=bool(entries),
            pending=len(pending),
        )
        begin = self._begin_entry(self.journal.entries())

        (self.base / "segments").mkdir(exist_ok=True)
        for batch in _chunks(pending, self.batch_size):
            self._migrate_batch(manifest, pointers, batch)
            report.batches += 1
            report.records_migrated += len(batch)
            self.metrics.increment("migration.batches")
            self.metrics.increment("migration.records", len(batch))
            self.events.emit(
                "migration.batch",
                subsystem="migration",
                root=str(self.base),
                batch=report.batches,
                records=len(batch),
                first_id=batch[0].image_id,
            )

        complete = self.journal.append(
            self.plan,
            "complete",
            obsolete=self._obsolete_paths(begin),
        )
        self._finish_cleanup(complete, report)
        self._set_phase("complete")
        logger.info(
            "migration of %s complete: %d records in %d batches",
            self.base, report.records_migrated, report.batches,
        )
        return report

    def _migrate_batch(
        self,
        manifest: Dict[str, object],
        pointers: Dict[str, RecordPointer],
        batch: Sequence[RecordPointer],
    ) -> None:
        """Rewrite one batch: segments, journal entry, pointer swap."""
        fresh: Dict[str, RecordPointer] = {}
        for pointer in batch:
            payload = read_record(self.base, pointer)
            relative = segment_relpath(pointer.image_id)
            self.plan.write_bytes(
                self.base / relative,
                encode_segment(pointer.image_id, pointer.kind, payload),
            )
            self.plan.fsync(self.base / relative)
            fresh[pointer.image_id] = RecordPointer(
                image_id=pointer.image_id,
                kind=pointer.kind,
                segment_version=3,
                path=relative,
                sha256=sha256_hex(payload),
                size=len(payload),
            )
        self.journal.append(self.plan, "batch", ids=sorted(fresh))

        pointers.update(fresh)
        swap_lock = (
            self.service.write_locked() if self.service is not None
            else _NullSwapLock()
        )
        # The only section live queries ever wait on: one manifest
        # rewrite + atomic rename under the service's write lock.
        with swap_lock:
            with root_lock(self.base):
                self._write_manifest_v3(manifest, pointers)
            if self.service is not None:
                # The same change feed every catalog mutation rides:
                # drops the result cache, stales the spatial indexes.
                self.service.database.engine.invalidate_cache()
        self.journal.append(self.plan, "swap", ids=sorted(fresh))

    def _write_manifest_v3(
        self, manifest: Dict[str, object], pointers: Dict[str, RecordPointer]
    ) -> None:
        """Atomically replace ``catalog.json`` with a v3 pointer table."""
        updated: Dict[str, object] = {
            "format_version": 3,
            "quantizer": manifest["quantizer"],
            "fill_color": manifest["fill_color"],
            "binary_ids": manifest["binary_ids"],
            "edited_ids": manifest["edited_ids"],
            "records": {
                image_id: pointer.to_json()
                for image_id, pointer in sorted(pointers.items())
            },
        }
        updated["manifest_checksum"] = manifest_checksum(updated)
        self._swap_manifest(updated)
        manifest.clear()
        manifest.update(updated)

    def _swap_manifest(self, updated: Dict[str, object]) -> None:
        tmp = self.base / "catalog.json.tmp"
        self.plan.write_bytes(
            tmp, json.dumps(updated, indent=2).encode("utf-8")
        )
        self.plan.fsync(tmp)
        self.plan.rename(tmp, self.base / "catalog.json")
        self.plan.fsync(self.base)

    def _obsolete_paths(self, begin: Dict[str, object]) -> List[str]:
        origin = begin.get("origin_records")
        if not isinstance(origin, dict):
            return []
        return sorted(
            str(row.get("path"))
            for row in origin.values()
            if isinstance(row, dict) and row.get("path")
        )

    def _finish_cleanup(
        self, complete: Dict[str, object], report: MigrationReport
    ) -> None:
        """Delete obsolete v1/v2 files and the journal (idempotent)."""
        removed = 0
        for relative in complete.get("obsolete", ()):  # type: ignore[union-attr]
            target = self.base / str(relative)
            if target.is_file():
                target.unlink()
                removed += 1
        for legacy_dir in ("binary", "edited"):
            directory = self.base / legacy_dir
            if directory.is_dir() and not any(directory.iterdir()):
                directory.rmdir()
        self.journal.remove()
        report.cleaned_files += removed

    # ------------------------------------------------------------------
    # Rollback
    # ------------------------------------------------------------------
    def rollback(self) -> MigrationReport:
        """Abandon an unfinished migration, restoring the origin manifest.

        Loss-free because original v1/v2 content files are only deleted
        *after* ``complete`` is journaled — and once it is, rollback is
        refused.  Idempotent: re-running after a crash mid-rollback
        finishes the restore.
        """
        try:
            return self._rollback()
        except OSError as exc:
            raise MigrationError(
                f"rollback of {self.base} failed: {exc} "
                "(re-run --rollback to finish)"
            ) from exc

    def _rollback(self) -> MigrationReport:
        entries = self.journal.entries()
        report = MigrationReport(root=str(self.base), action="rollback")
        if not entries:
            manifest = _read_manifest(self.base, salvage=False)
            version = int(manifest["format_version"])
            pointers = self._pointers(manifest, version)
            if all(p.segment_version >= 3 for p in pointers.values()):
                raise MigrationError(
                    f"{self.base} has no migration journal; the catalog is "
                    "fully migrated and its v1/v2 files are gone — nothing "
                    "to roll back to"
                )
            report.action = "noop"
            report.notes.append("no migration journal; nothing to roll back")
            return report
        last = entries[-1].get("event")
        if last == "complete":
            raise MigrationError(
                f"migration of {self.base} already finalized (obsolete "
                "files scheduled for deletion); rollback refused"
            )
        begin = self._begin_entry(entries)
        self._set_phase("rolling_back")
        if last != "rollback_begin":
            self.journal.append(self.plan, "rollback_begin")
        self.metrics.increment("migration.rollbacks")

        manifest = _read_manifest(self.base, salvage=False)
        origin_version = int(begin["origin_format_version"])  # type: ignore[arg-type]
        origin_rows: Dict[str, object] = dict(begin["origin_records"])  # type: ignore[arg-type]
        origin_pointers = {
            image_id: RecordPointer.from_json(image_id, dict(row))  # type: ignore[arg-type]
            for image_id, row in origin_rows.items()
        }
        # Records that were already v3 before the migration began (a
        # previously finalized run) keep their current pointers.
        current = self._pointers(manifest, int(manifest["format_version"]))
        restored = dict(current)
        restored.update(origin_pointers)

        swap_lock = (
            self.service.write_locked() if self.service is not None
            else _NullSwapLock()
        )
        with swap_lock:
            with root_lock(self.base):
                self._restore_manifest(manifest, restored, origin_version)
            if self.service is not None:
                self.service.database.engine.invalidate_cache()
        self.journal.append(self.plan, "rollback_done")

        # Remove only the segments this migration introduced.
        removed = 0
        for image_id in origin_pointers:
            segment = self.base / segment_relpath(image_id)
            if segment.is_file():
                segment.unlink()
                removed += 1
        segments_dir = self.base / "segments"
        if segments_dir.is_dir() and not any(segments_dir.iterdir()):
            segments_dir.rmdir()
        self.journal.remove()
        report.cleaned_files = removed
        self._set_phase("idle")
        logger.info("rolled back migration of %s", self.base)
        return report

    def _restore_manifest(
        self,
        manifest: Dict[str, object],
        pointers: Dict[str, RecordPointer],
        origin_version: int,
    ) -> None:
        if origin_version >= 3:
            self._write_manifest_v3(manifest, pointers)
            return
        # Emit the files table in the save protocol's order (binary ids,
        # then edited ids) so the restored manifest is byte-identical to
        # the one `begin` captured, not merely JSON-equal.
        ordered_ids = [
            str(image_id)
            for image_id in (
                list(manifest["binary_ids"]) + list(manifest["edited_ids"])  # type: ignore[arg-type]
            )
        ]
        files: Dict[str, object] = {}
        for image_id in ordered_ids:
            pointer = pointers.get(image_id)
            if pointer is not None and pointer.sha256 is not None:
                files[pointer.path] = {
                    "sha256": pointer.sha256,
                    "bytes": pointer.size,
                }
        updated: Dict[str, object] = {
            "format_version": origin_version,
            "quantizer": manifest["quantizer"],
            "fill_color": manifest["fill_color"],
            "binary_ids": manifest["binary_ids"],
            "edited_ids": manifest["edited_ids"],
            "files": files,
        }
        if origin_version >= 2:
            updated["manifest_checksum"] = manifest_checksum(updated)
        else:
            del updated["files"]
        self._swap_manifest(updated)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _pointers(
        manifest: Dict[str, object], version: int
    ) -> Dict[str, RecordPointer]:
        if version >= 3:
            return pointers_from_v3_manifest(manifest)
        return pointers_from_v2_manifest(manifest, version)

    @staticmethod
    def _begin_entry(entries: Iterable[Dict[str, object]]) -> Dict[str, object]:
        for entry in entries:
            if entry.get("event") == "begin":
                return entry
        raise CorruptionError(
            "migration journal has no begin entry (damaged beyond a torn "
            "tail); restore from backup or salvage-load and re-save"
        )

    def _set_phase(self, phase: str) -> None:
        self.metrics.set_gauge("migration.phase", PHASES[phase])


def _chunks(
    items: Sequence[RecordPointer], size: int
) -> Iterable[Tuple[RecordPointer, ...]]:
    for start in range(0, len(items), size):
        yield tuple(items[start:start + size])


# ----------------------------------------------------------------------
# Convenience entry points (the CLI's spellings)
# ----------------------------------------------------------------------
def migrate_database(
    root,
    *,
    batch_size: int = 16,
    resume: bool = False,
    faults: Optional[NoFaults] = None,
    service=None,
    metrics: Optional[MetricsRegistry] = None,
) -> MigrationReport:
    """Run (or resume) a full v1/v2 → v3 migration of ``root``."""
    migrator = Migrator(
        root, batch_size=batch_size, faults=faults, service=service,
        metrics=metrics,
    )
    return migrator.run(resume=resume)


def rollback_migration(
    root, *, faults: Optional[NoFaults] = None, service=None,
    metrics: Optional[MetricsRegistry] = None,
) -> MigrationReport:
    """Abandon an unfinished migration of ``root``."""
    migrator = Migrator(root, faults=faults, service=service, metrics=metrics)
    return migrator.rollback()


def migration_status(root) -> MigrationStatus:
    """The migration state of ``root`` (``repro migrate --status``)."""
    return Migrator(root).status()
