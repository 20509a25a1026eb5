"""Versioned on-disk record formats and the reader registry.

Every stored record carries its own **segment version stamp**, loaders
resolve each stamp through a **registry** of per-version readers, and a
catalog may legally hold a *mixture* of versions.  Readers are kept
forever: whatever an older build wrote still loads.  Only v3 is
written (by :func:`repro.db.persistence.save_database`); a v1 or v2
root becomes v3 the next time it is saved.

Format versions
---------------
``1``
    PR-0 era.  ``catalog.json`` without checksums; content files under
    ``binary/<id>.ppm`` and ``edited/<id>.eseq``.  Read-only.
``2``
    PR 1.  Same layout plus per-file SHA-256 checksums and a
    whole-manifest checksum; atomic rename commits.  Read-only.
``3``
    The manifest carries a ``records`` table of :class:`RecordPointer`
    entries, each with its *own* ``segment_version`` — so a v3 manifest
    may point some records at v1/v2-layout files and others at segments
    (older builds left such roots while migrating them in place).  The
    one manifest format this build writes.

Segment versions (the per-record stamps of a v3 manifest)
---------------------------------------------------------
``1``, ``2``
    A v1/v2-layout payload file, unverified (1) or checked against the
    pointer's SHA-256 (2).  Read-only.
``3``
    A self-verifying **envelope** in a file of its own,
    ``segments/<id>.seg``: a one-line JSON header (version stamp, kind,
    id, payload checksum and size) followed by the raw payload bytes.
    Read-only.
``4``
    The same envelope at a byte range of a **pack**
    (``segments.pack``, one per database root, records in manifest
    order); the pointer carries the range's ``offset`` and ``length``.
    The one segment version this build writes.  A build that predates
    it refuses such a record with "upgrade the library".

Nothing in this module touches a lock or a service; it is pure
format knowledge used by :mod:`repro.db.persistence`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import CorruptionError, PersistenceError

#: The format :func:`repro.db.persistence.save_database` writes.
CURRENT_VERSION = 3
#: The segment version it stamps on every record, and the pack it
#: writes them into (relative to the database root).
PACK_SEGMENT_VERSION = 4
PACK_NAME = "segments.pack"
#: Every manifest version a loader in this build understands.
SUPPORTED_VERSIONS: Tuple[int, ...] = (1, 2, 3)

#: Record kinds and the v1/v2 layout conventions for each.
KIND_BINARY = "binary"
KIND_EDITED = "edited"
_V2_LAYOUT = {
    KIND_BINARY: ("binary", ".ppm"),
    KIND_EDITED: ("edited", ".eseq"),
}


def sha256_hex(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def v2_relpath(kind: str, image_id: str) -> str:
    """The v1/v2 layout path of a record (``binary/<id>.ppm`` etc.)."""
    directory, suffix = _V2_LAYOUT[kind]
    return f"{directory}/{image_id}{suffix}"


# ----------------------------------------------------------------------
# Record pointers — one manifest row per stored record
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RecordPointer:
    """Where one record lives on disk and how to read it.

    ``segment_version`` selects the reader; ``sha256`` is ``None`` only
    for v1 records (the pre-checksum era), in which case loading skips
    verification exactly as the v1 manifest reader always has.
    ``size`` is the payload's byte count; ``offset`` and ``length`` are
    the envelope's byte range within a pack (segment version 4 only).
    """

    image_id: str
    kind: str  # KIND_BINARY | KIND_EDITED
    segment_version: int
    path: str  # relative to the database root
    sha256: Optional[str] = None
    size: Optional[int] = None
    offset: Optional[int] = None
    length: Optional[int] = None

    def to_json(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "kind": self.kind,
            "segment_version": self.segment_version,
            "path": self.path,
        }
        if self.sha256 is not None:
            row["sha256"] = self.sha256
        if self.size is not None:
            row["bytes"] = self.size
        if self.offset is not None:
            row["offset"] = self.offset
        if self.length is not None:
            row["length"] = self.length
        return row

    @staticmethod
    def from_json(image_id: str, row: Dict[str, object]) -> "RecordPointer":
        try:
            kind = str(row["kind"])
            version = int(row["segment_version"])  # type: ignore[arg-type]
            path = str(row["path"])
            size, offset, length = (
                None if row.get(key) is None else int(row[key])  # type: ignore[arg-type]
                for key in ("bytes", "offset", "length")
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistenceError(
                f"malformed record pointer for {image_id!r}: {exc}"
            ) from exc
        if kind not in _V2_LAYOUT:
            raise PersistenceError(
                f"record {image_id!r} has unknown kind {kind!r}"
            )
        sha = row.get("sha256")
        return RecordPointer(
            image_id=image_id,
            kind=kind,
            segment_version=version,
            path=path,
            sha256=str(sha) if sha is not None else None,
            size=size,
            offset=offset,
            length=length,
        )


def pointers_from_v2_manifest(
    manifest: Dict[str, object], format_version: int
) -> Dict[str, RecordPointer]:
    """Normalize a v1/v2 manifest into the pointer table v3 loaders use.

    v1 manifests have no ``files`` block, so their pointers carry no
    checksum (``segment_version=1``); v2 pointers carry the recorded
    SHA-256 and byte size.
    """
    files = manifest.get("files")
    if not isinstance(files, dict):
        files = {}
    pointers: Dict[str, RecordPointer] = {}
    for kind, key in ((KIND_BINARY, "binary_ids"), (KIND_EDITED, "edited_ids")):
        for image_id in manifest.get(key, ()):  # type: ignore[union-attr]
            image_id = str(image_id)
            relative = v2_relpath(kind, image_id)
            recorded = files.get(relative)
            sha = size = None
            if isinstance(recorded, dict):
                sha = recorded.get("sha256")
                size = recorded.get("bytes")
            pointers[image_id] = RecordPointer(
                image_id=image_id,
                kind=kind,
                segment_version=2 if format_version >= 2 and sha else 1,
                path=relative,
                sha256=str(sha) if sha else None,
                size=int(size) if size is not None else None,
            )
    return pointers


def pointers_from_v3_manifest(
    manifest: Dict[str, object]
) -> Dict[str, RecordPointer]:
    """The pointer table of a v3 manifest (possibly mixed-version)."""
    records = manifest.get("records")
    if not isinstance(records, dict):
        raise PersistenceError("v3 manifest has no records table")
    pointers: Dict[str, RecordPointer] = {}
    for image_id, row in records.items():
        if not isinstance(row, dict):
            raise PersistenceError(
                f"malformed record pointer for {image_id!r}: not an object"
            )
        pointers[str(image_id)] = RecordPointer.from_json(str(image_id), row)
    return pointers


# ----------------------------------------------------------------------
# v3 segment envelope
# ----------------------------------------------------------------------
_HEADER_KEYS = ("segment_version", "kind", "image_id", "payload_sha256",
                "payload_bytes")


def encode_segment(image_id: str, kind: str, payload: bytes, digest: str) -> bytes:
    """A v3 segment blob: one JSON header line, then the raw payload.

    The header carries the record's own version stamp and payload
    checksum (``digest``, the payload's :func:`sha256_hex`, which the
    caller also records in the manifest), so an envelope is
    self-verifying even when found without its manifest (salvage,
    forensic tooling).
    """
    if kind not in _V2_LAYOUT:
        raise PersistenceError(f"unknown record kind {kind!r}")
    header = {
        "segment_version": 3,
        "kind": kind,
        "image_id": image_id,
        "payload_sha256": digest,
        "payload_bytes": len(payload),
    }
    line = json.dumps(header, sort_keys=True, separators=(",", ":"))
    return line.encode("utf-8") + b"\n" + payload


def decode_segment(blob: bytes, path: str = "<segment>") -> Tuple[Dict[str, object], bytes]:
    """Parse and verify a v3 segment blob into ``(header, payload)``.

    Raises :class:`CorruptionError` naming ``path`` on any damage: a
    missing or unparseable header line, a header without the required
    keys, a payload shorter than declared (torn write), or a payload
    checksum mismatch.
    """
    newline = blob.find(b"\n")
    if newline < 0:
        raise CorruptionError(f"{path}: segment has no header line")
    try:
        header = json.loads(blob[:newline].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptionError(f"{path}: unparseable segment header: {exc}") from exc
    if not isinstance(header, dict) or any(k not in header for k in _HEADER_KEYS):
        raise CorruptionError(f"{path}: segment header missing required keys")
    payload = blob[newline + 1:]
    declared = header["payload_bytes"]
    if not isinstance(declared, int) or len(payload) != declared:
        raise CorruptionError(
            f"{path}: segment payload is {len(payload)} bytes, "
            f"header declares {declared!r} (torn write)"
        )
    if sha256_hex(payload) != header["payload_sha256"]:
        raise CorruptionError(f"{path}: segment payload checksum mismatch")
    return header, payload


# ----------------------------------------------------------------------
# The reader registry
# ----------------------------------------------------------------------
class RecordFiles:
    """A database root opened for reading, with one handle per pack.

    A load reads every record of a pack by its byte range through the
    same open descriptor (``os.pread``), never the whole pack into one
    buffer: the transient cost of a load stays one record, not one
    shard.  Use as a context manager; :meth:`close` releases the
    handles.
    """

    def __init__(self, base: object) -> None:
        self.base = base
        self._packs: Dict[str, int] = {}

    def path(self, relative: str) -> str:
        return f"{self.base}/{relative}"

    def read_range(self, relative: str, offset: int, length: int) -> bytes:
        """Exactly ``length`` bytes at ``offset`` of a pack, or an error:
        :class:`PersistenceError` when the pack is missing,
        :class:`CorruptionError` when it ends before the range does."""
        fd = self._packs.get(relative)
        path = self.path(relative)
        if fd is None:
            try:
                fd = os.open(path, os.O_RDONLY)
            except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
                raise PersistenceError(f"missing file {path}") from None
            except OSError as exc:
                raise CorruptionError(f"unreadable file {path}: {exc}") from exc
            self._packs[relative] = fd
        try:
            blob = os.pread(fd, length, offset)
        except OSError as exc:
            raise CorruptionError(f"unreadable file {path}: {exc}") from exc
        if len(blob) != length:
            raise CorruptionError(
                f"{path}: pack ends at byte {offset + len(blob)}, before the "
                f"record's range [{offset}, {offset + length}) (truncated pack)"
            )
        return blob

    def close(self) -> None:
        for fd in self._packs.values():
            os.close(fd)
        self._packs.clear()

    def __enter__(self) -> "RecordFiles":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: A segment reader takes (opened database root, pointer) and returns
#: the raw record payload, fully verified for its version's guarantees.
SegmentReader = Callable[[RecordFiles, RecordPointer], bytes]

_SEGMENT_READERS: Dict[int, SegmentReader] = {}


def register_segment_reader(version: int):
    """Class of decorators registering a reader for one version stamp.

    Future formats (columnar op tables, sharded segments) register here;
    :func:`read_record` then resolves their stamps with no change to
    ``load_database``.
    """

    def deco(reader: SegmentReader) -> SegmentReader:
        _SEGMENT_READERS[version] = reader
        return reader

    return deco


def supported_segment_versions() -> Tuple[int, ...]:
    return tuple(sorted(_SEGMENT_READERS))


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        raise PersistenceError(f"missing file {path}") from None
    except OSError as exc:
        raise CorruptionError(f"unreadable file {path}: {exc}") from exc


@register_segment_reader(1)
def _read_record_v1(files: RecordFiles, pointer: RecordPointer) -> bytes:
    """v1: raw payload file, nothing to verify against (pre-checksum)."""
    return _read_file(files.path(pointer.path))


@register_segment_reader(2)
def _read_record_v2(files: RecordFiles, pointer: RecordPointer) -> bytes:
    """v2: raw payload file verified against the manifest's SHA-256."""
    path = files.path(pointer.path)
    payload = _read_file(path)
    if pointer.sha256 is not None and sha256_hex(payload) != pointer.sha256:
        raise CorruptionError(
            f"checksum mismatch for {path} ({len(payload)} bytes on disk; "
            "file is damaged)"
        )
    return payload


def _verified_envelope(blob: bytes, where: str, pointer: RecordPointer) -> bytes:
    """An envelope's payload, cross-checked with the manifest's pointer."""
    header, payload = decode_segment(blob, where)
    if header["image_id"] != pointer.image_id or header["kind"] != pointer.kind:
        raise CorruptionError(
            f"{where}: segment header names {header['kind']}/{header['image_id']}"
            f", manifest expects {pointer.kind}/{pointer.image_id} (files swapped?)"
        )
    if pointer.sha256 is not None and header["payload_sha256"] != pointer.sha256:
        raise CorruptionError(
            f"{where}: segment checksum disagrees with the manifest (stale segment)"
        )
    return payload


@register_segment_reader(3)
def _read_record_v3(files: RecordFiles, pointer: RecordPointer) -> bytes:
    """v3: a self-verifying envelope in a file of its own."""
    path = files.path(pointer.path)
    return _verified_envelope(_read_file(path), path, pointer)


@register_segment_reader(PACK_SEGMENT_VERSION)
def _read_record_v4(files: RecordFiles, pointer: RecordPointer) -> bytes:
    """v4: the v3 envelope at a byte range of a pack."""
    if pointer.offset is None or pointer.length is None:
        raise CorruptionError(
            f"{files.path(pointer.path)}: record pointer for "
            f"{pointer.image_id!r} has no byte range"
        )
    end = pointer.offset + pointer.length
    where = f"{files.path(pointer.path)}[{pointer.offset}:{end}]"
    blob = files.read_range(pointer.path, pointer.offset, pointer.length)
    return _verified_envelope(blob, where, pointer)


def read_record(files: RecordFiles, pointer: RecordPointer) -> bytes:
    """Read one record's payload through the versioned reader registry."""
    reader = _SEGMENT_READERS.get(pointer.segment_version)
    if reader is None:
        known = ", ".join(str(v) for v in supported_segment_versions())
        raise PersistenceError(
            f"record {pointer.image_id!r} has segment version "
            f"{pointer.segment_version}, but this build only reads "
            f"versions {known} — upgrade the library"
        )
    return reader(files, pointer)
