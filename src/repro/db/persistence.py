"""Directory persistence for a :class:`MultimediaDatabase`.

The paper's prototype kept one ppm file per binary image and one
operation list per edited image, with no commercial DBMS underneath.
The records are the same here, but they share one file::

    <root>/
      catalog.json     manifest: config, insertion order, record table
      segments.pack    every record's self-verifying envelope, in
                       manifest order (segment version 4)

Each manifest row names its envelope's byte range in the pack, and its
payload checksum.  A save creates two files whatever the catalog's
size.  Roots written by older builds may instead hold
``binary/<id>.ppm`` and ``edited/<id>.eseq`` (v1/v2),
``segments/<id>.seg`` (one envelope per file, segment version 3), or a
v3 manifest pointing at a mixture of those layouts (and a
``migration.journal``, which loading ignores).  They all load; the next
save rewrites them as one pack.

Loading replays insertions in the recorded order, so histograms and the
BWM structure are rebuilt exactly.  Nothing else needs rebuilding: a
point index over the binary histograms is a front-end structure, built
from the loaded catalog by :mod:`repro.index.builders` when a front end
wants one.

Durability protocol
-------------------
:func:`save_database` never mutates the target directory in place.  The
complete new state is written to a ``<root>.saving`` sibling first, the
manifest (carrying a SHA-256 per record plus a whole-manifest checksum)
is written last inside it, the pack, the manifest and the scratch
directory are fsynced, and the result is committed by renames:
``<root>`` -> ``<root>.old``, ``<root>.saving`` -> ``<root>``, then the
parent directory is fsynced and the backup pruned.  A crash at any
boundary therefore leaves either the previous complete state, the new
complete state, or a ``.old`` backup that :func:`load_database` rolls
back automatically; and once :func:`save_database` returns, the new
state is on stable storage (a caller may truncate its log).  Orphaned
content — deleted images, a legacy layout's files, a leftover journal —
cannot survive a save, since only the current catalog is ever written
to the fresh directory.

Version handling is delegated to :mod:`repro.db.versioning`: the
manifest declares a format version, every record row carries its own
segment version stamp, and each stamp resolves through the versioned
reader registry — so v1, v2, v3 and mixed-version v3 catalogs all load
through the same code path.

Every durable side effect is routed through a fault plan
(:mod:`repro.db.durable`), so the kill-point sweep in
``tests/db/test_faults.py`` can crash the protocol at every boundary.
An injected *I/O error* (``ENOSPC``/``EIO``) instead of a crash is
handled, not propagated raw: the scratch directory is pruned, the
previous committed state stays untouched, and the failure surfaces as
:class:`PersistenceError`.

In-process readers and writers of the same root are serialized by a
per-root commit lock: a loader racing a saver observes either the
fully-old or the fully-new catalog, never a half-renamed one.
Cross-*process* coordination is out of scope (the crash-recovery
protocol still protects those readers, at the cost of a retry).

:func:`load_database` verifies checksums and wraps any damage in
:class:`repro.errors.CorruptionError` naming the offending file; with
``salvage=True`` it instead quarantines damaged records (and everything
transitively derived from them), rebuilds the database from the
survivors, and returns a :class:`SalvageReport` of exactly what was lost
and why.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.color.quantization import UniformQuantizer
from repro.db.database import MultimediaDatabase
from repro.db.durable import NoFaults
from repro.db.versioning import (
    PACK_NAME,
    PACK_SEGMENT_VERSION,
    SUPPORTED_VERSIONS,
    RecordFiles,
    RecordPointer,
    encode_segment,
    pointers_from_v2_manifest,
    pointers_from_v3_manifest,
    read_record,
    sha256_hex,
    v2_relpath,
)
from repro.editing.sequence import EditSequence
from repro.errors import (
    CorruptionError,
    PersistenceError,
    ReproError,
    SalvageError,
)
from repro.images.ppm import read_ppm, write_ppm

logger = logging.getLogger(__name__)

_TMP_SUFFIX = ".saving"
_OLD_SUFFIX = ".old"

#: The shard layout manifest marking a *sharded* root (one segment root
#: per shard underneath).  Defined here so :func:`load_database` can
#: detect and redirect without importing :mod:`repro.shard` (which
#: imports this module).
SHARD_MANIFEST_NAME = "shards.json"


def manifest_checksum(manifest: Dict[str, object]) -> str:
    """Checksum over the manifest's canonical JSON, sans the field itself."""
    stripped = {k: v for k, v in manifest.items() if k != "manifest_checksum"}
    canonical = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return sha256_hex(canonical.encode("utf-8"))


# ----------------------------------------------------------------------
# Per-root commit locks — in-process reader/writer atomicity
# ----------------------------------------------------------------------
_ROOT_LOCKS: Dict[str, threading.Lock] = {}
_ROOT_LOCKS_GUARD = threading.Lock()


def root_lock(base: Union[str, Path]) -> threading.Lock:
    """The commit lock for one database root (one lock per absolute path).

    Held across a save's commit renames and an entire load.  The
    registry is tiny (one entry per distinct root this process ever
    touches) and never pruned — a lock object is ~100 bytes and pruning
    would race its own users.
    """
    key = os.path.abspath(str(base))
    with _ROOT_LOCKS_GUARD:
        lock = _ROOT_LOCKS.get(key)
        if lock is None:
            lock = threading.Lock()
            _ROOT_LOCKS[key] = lock
        return lock


# ----------------------------------------------------------------------
# Salvage reporting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QuarantineEntry:
    """One record excluded by salvage loading, with the reason."""

    image_id: str
    path: Optional[str]
    reason: str

    def describe(self) -> str:
        where = f" ({self.path})" if self.path else ""
        return f"{self.image_id}{where}: {self.reason}"


@dataclass
class SalvageReport:
    """What :func:`load_database` with ``salvage=True`` lost, and why."""

    root: str
    quarantined: List[QuarantineEntry] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    loaded_binary: int = 0
    loaded_edited: int = 0

    @property
    def clean(self) -> bool:
        """True when nothing was lost and nothing looked suspicious."""
        return not self.quarantined and not self.warnings

    def quarantined_ids(self) -> Tuple[str, ...]:
        return tuple(entry.image_id for entry in self.quarantined)

    def describe(self) -> str:
        lines = [
            f"salvage of {self.root}: recovered {self.loaded_binary} binary + "
            f"{self.loaded_edited} edited images, "
            f"{len(self.quarantined)} quarantined"
        ]
        for warning in self.warnings:
            lines.append(f"  warning: {warning}")
        for entry in self.quarantined:
            lines.append(f"  lost {entry.describe()}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Saving
# ----------------------------------------------------------------------
def _record_payload(database: MultimediaDatabase, kind: str, image_id: str) -> bytes:
    if kind == "binary":
        return write_ppm(database.catalog.binary_record(image_id).image)
    return (
        database.catalog.edited_record(image_id)
        .sequence.serialize()
        .encode("utf-8")
    )


def save_database(
    database: MultimediaDatabase,
    root: Union[str, Path],
    faults: Optional[NoFaults] = None,
) -> Path:
    """Atomically and durably write the database under ``root`` as one pack.

    ``root`` is created if missing; a v1 or v2 root, a per-file v3 root
    (or one an older build left mid-migration) is replaced by the packed
    state through the same commit.  ``faults`` is the durability seam:
    every file write, fsync and commit rename goes through it (tests
    inject crashes or I/O errors; the default plan is the production
    pass-through).
    """
    plan = faults if faults is not None else NoFaults()
    base = Path(root)
    _recover_interrupted_save(base)

    tmp = base.with_name(base.name + _TMP_SUFFIX)
    old = base.with_name(base.name + _OLD_SUFFIX)
    for leftover in (tmp, old):
        if leftover.exists():
            shutil.rmtree(leftover)

    try:
        _write_tree(database, tmp, plan)
    except OSError as exc:
        # Injected or real I/O failure (ENOSPC, EIO): nothing has been
        # committed — prune the scratch tree and surface a typed error.
        shutil.rmtree(tmp, ignore_errors=True)
        raise PersistenceError(
            f"save of {base} failed before commit: {exc}"
        ) from exc

    # Commit.  Renames are atomic on POSIX; a crash between them leaves
    # the ``.old`` backup that load-time recovery rolls back.  The
    # per-root lock makes the swap atomic for in-process readers too.
    # The parent's fsync makes the renames themselves durable.
    try:
        with root_lock(base):
            if base.exists():
                plan.rename(base, old)
            plan.rename(tmp, base)
        plan.fsync(base.parent)
    except OSError as exc:
        _recover_interrupted_save(base)  # undo a half-done swap
        shutil.rmtree(tmp, ignore_errors=True)
        raise PersistenceError(
            f"save of {base} failed during commit: {exc}"
        ) from exc
    shutil.rmtree(old, ignore_errors=True)
    return base


def _write_tree(database: MultimediaDatabase, tmp: Path, plan: NoFaults) -> None:
    """The complete state: one pack of envelopes, then the manifest."""
    tmp.mkdir(parents=True)

    records: Dict[str, Dict[str, object]] = {}
    pack = bytearray()
    binary_ids = list(database.catalog.binary_ids())
    edited_ids = list(database.catalog.edited_ids())
    for kind, ids in (("binary", binary_ids), ("edited", edited_ids)):
        for image_id in ids:
            payload = _record_payload(database, kind, image_id)
            digest = sha256_hex(payload)
            envelope = encode_segment(image_id, kind, payload, digest)
            records[image_id] = RecordPointer(
                image_id=image_id,
                kind=kind,
                segment_version=PACK_SEGMENT_VERSION,
                path=PACK_NAME,
                sha256=digest,
                size=len(payload),
                offset=len(pack),
                length=len(envelope),
            ).to_json()
            pack += envelope
    plan.write_bytes(tmp / PACK_NAME, pack)
    plan.fsync(tmp / PACK_NAME)

    manifest: Dict[str, object] = {
        "format_version": 3,
        "quantizer": {
            "divisions": database.quantizer.divisions,
            "space": database.quantizer.space,
        },
        "fill_color": list(database.fill_color),
        "binary_ids": binary_ids,
        "edited_ids": edited_ids,
        "records": records,
    }
    manifest["manifest_checksum"] = manifest_checksum(manifest)
    plan.write_bytes(
        tmp / "catalog.json",
        json.dumps(manifest, separators=(",", ":")).encode("utf-8"),
    )
    plan.fsync(tmp / "catalog.json")
    plan.fsync(tmp)


def has_committed_state(root: Union[str, Path]) -> bool:
    """Whether ``root`` holds a loadable committed save.

    Counts the ``.old`` backup a crash between the two commit renames
    leaves behind (``root`` itself is momentarily absent then):
    :func:`load_database` rolls the backup back, so such a root is
    loadable, not empty.  Callers that treat "no directory" as "nothing
    was ever saved here" — the sharded catalog's opener — must use this
    instead of a bare ``is_dir()`` check or they silently discard the
    recoverable state.
    """
    base = Path(root)
    if (base / "catalog.json").is_file():
        return True
    old = base.with_name(base.name + _OLD_SUFFIX)
    return (old / "catalog.json").is_file()


def _recover_interrupted_save(base: Path) -> None:
    """Roll back a save that crashed between its two commit renames.

    At that point ``base`` is gone and ``base.old`` holds the previous
    complete state; restore it.  When ``base`` is present and loadable
    the ``.old``/``.saving`` siblings are just stale debris (crash after
    commit) — they are ignored here and pruned by the next save.
    """
    old = base.with_name(base.name + _OLD_SUFFIX)
    if not (old / "catalog.json").is_file():
        return
    if base.exists():
        if (base / "catalog.json").is_file():
            return  # base is authoritative; .old is post-commit debris
        # A bare directory with no manifest cannot be a committed state
        # of ours; clear it so the backup can take its place.
        shutil.rmtree(base)
    logger.warning(
        "rolled back interrupted save: restored %s from backup %s", base, old
    )
    old.replace(base)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def load_database(
    root: Union[str, Path],
    salvage: bool = False,
) -> Union[MultimediaDatabase, Tuple[MultimediaDatabase, SalvageReport]]:
    """Rebuild a database saved by :func:`save_database`.

    Reads every supported format — v1, v2, v3, and mixed-version v3
    catalogs an older build left mid-migration (a leftover
    ``migration.journal`` is ignored) — by resolving each record's
    version stamp through the reader registry in
    :mod:`repro.db.versioning`.

    Strict mode (the default) raises :class:`PersistenceError` — or its
    :class:`CorruptionError` subclass, naming the damaged file — on any
    inconsistency.  With ``salvage=True`` it quarantines damaged records
    plus everything transitively derived from them and returns the
    ``(database, report)`` pair; only an unusable manifest (nothing to
    anchor recovery on) raises :class:`SalvageError`.

    Either mode first rolls back a save that crashed mid-commit, so a
    directory with a ``.old`` backup loads as the previous state.  The
    whole load runs under the per-root commit lock, so an in-process
    writer can never swap the directory out from underneath it.
    """
    base = Path(root)
    if (base / SHARD_MANIFEST_NAME).is_file():
        raise PersistenceError(
            f"{base} is a sharded catalog root ({SHARD_MANIFEST_NAME} "
            f"present); load it with repro.shard.ShardedCatalog.open() — "
            f"load_database() reads one shard's segment root, e.g. "
            f"{base}/shard-000"
        )
    with root_lock(base):
        return _load_locked(base, salvage)


def _load_locked(
    base: Path, salvage: bool
) -> Union[MultimediaDatabase, Tuple[MultimediaDatabase, SalvageReport]]:
    _recover_interrupted_save(base)
    manifest = _read_manifest(base, salvage=salvage)

    report = SalvageReport(root=str(base))
    if salvage and manifest.pop("_checksum_warning", None):
        logger.warning(
            "salvage of %s: manifest checksum mismatch; contents unverified",
            base,
        )
        report.warnings.append("manifest checksum mismatch; contents unverified")

    try:
        quantizer = UniformQuantizer(
            divisions=int(manifest["quantizer"]["divisions"]),
            space=str(manifest["quantizer"]["space"]),
        )
        fill_color = tuple(manifest["fill_color"])
        binary_ids = list(manifest["binary_ids"])
        edited_ids = list(manifest["edited_ids"])
        version = int(manifest["format_version"])
        if version >= 3:
            pointers = pointers_from_v3_manifest(manifest)
        else:
            pointers = pointers_from_v2_manifest(manifest, version)
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        raise _manifest_error(base, exc, salvage) from exc

    try:
        database = MultimediaDatabase(quantizer=quantizer, fill_color=fill_color)
    except ReproError as exc:
        raise _manifest_error(base, exc, salvage) from exc

    # One open handle per pack serves every record read from it.
    with RecordFiles(base) as files:
        available = set()
        for image_id in binary_ids:
            pointer = pointers.get(image_id)
            try:
                payload = _pointer_payload(files, pointer, image_id, "binary")
                database.insert_image(read_ppm(payload), image_id=image_id)
            except (PersistenceError, ReproError, OSError, ValueError) as exc:
                _reject(report, image_id, _pointer_path(base, pointer), exc, salvage)
                continue
            available.add(image_id)
            report.loaded_binary += 1

        for image_id in edited_ids:
            pointer = pointers.get(image_id)
            try:
                payload = _pointer_payload(files, pointer, image_id, "edited")
                sequence = EditSequence.parse(payload.decode("utf-8"))
            except (PersistenceError, ReproError, OSError, ValueError) as exc:
                _reject(report, image_id, _pointer_path(base, pointer), exc, salvage)
                continue
            missing = [r for r in sequence.referenced_ids() if r not in available]
            if missing:
                # Strict mode surfaces the same condition as a corrupt
                # sequence file; salvage records the transitive loss.
                exc = CorruptionError(
                    f"{_pointer_path(base, pointer)}: references unrecoverable "
                    f"image(s) {sorted(missing)}"
                )
                _reject(report, image_id, _pointer_path(base, pointer), exc, salvage)
                continue
            try:
                database.insert_edited(sequence, image_id=image_id)
            except ReproError as exc:
                _reject(report, image_id, _pointer_path(base, pointer), exc, salvage)
                continue
            available.add(image_id)
            report.loaded_edited += 1

    if salvage:
        return database, report
    return database


def _pointer_payload(
    files: RecordFiles, pointer: Optional[RecordPointer], image_id: str, kind: str
) -> bytes:
    """One record's payload via the registry; missing pointers surface
    as the missing v2-layout file they would have lived in."""
    if pointer is None:
        raise PersistenceError(
            f"missing file {files.path(v2_relpath(kind, image_id))}"
        )
    if pointer.kind != kind:
        raise CorruptionError(
            f"{files.path(pointer.path)}: manifest lists {image_id!r} as "
            f"{kind} but its record pointer says {pointer.kind}"
        )
    return read_record(files, pointer)


def _pointer_path(base: Path, pointer: Optional[RecordPointer]) -> Path:
    return base / pointer.path if pointer is not None else base


def _read_manifest(base: Path, salvage: bool) -> Dict[str, object]:
    manifest_path = base / "catalog.json"
    if not manifest_path.is_file():
        message = f"no catalog.json under {base}"
        raise SalvageError(message) if salvage else PersistenceError(message)
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, OSError, UnicodeDecodeError) as exc:
        message = f"corrupt catalog.json under {base}: {exc}"
        error = SalvageError(message) if salvage else CorruptionError(message)
        raise error from exc
    if not isinstance(manifest, dict):
        message = f"corrupt catalog.json under {base}: not a JSON object"
        raise SalvageError(message) if salvage else CorruptionError(message)

    version = manifest.get("format_version")
    if version not in SUPPORTED_VERSIONS:
        message = (
            f"unsupported format version {version!r} under {base} "
            f"(this build reads {', '.join(map(str, SUPPORTED_VERSIONS))})"
        )
        raise SalvageError(message) if salvage else PersistenceError(message)

    # v1 manifests predate the checksum; every v2/v3 writer recorded
    # one, so a missing one is damage, not an opt-out.
    recorded = manifest.get("manifest_checksum")
    verify = recorded is not None or version >= 2
    if verify and recorded != manifest_checksum(manifest):
        if not salvage:
            raise CorruptionError(
                f"{manifest_path}: manifest checksum mismatch "
                "(catalog.json was modified or torn)"
            )
        manifest["_checksum_warning"] = True
    return manifest


def _manifest_error(base: Path, exc: Exception, salvage: bool) -> PersistenceError:
    message = f"malformed manifest under {base}: {exc}"
    return SalvageError(message) if salvage else PersistenceError(message)


def _reject(
    report: SalvageReport,
    image_id: str,
    path: Path,
    exc: Exception,
    salvage: bool,
) -> None:
    """Quarantine in salvage mode; re-raise (wrapped) in strict mode."""
    if salvage:
        logger.warning("salvage quarantined %s (%s): %s", image_id, path, exc)
        report.quarantined.append(
            QuarantineEntry(image_id=image_id, path=str(path), reason=str(exc))
        )
        return
    if isinstance(exc, PersistenceError):
        raise exc
    raise CorruptionError(f"{path}: {exc}") from exc
