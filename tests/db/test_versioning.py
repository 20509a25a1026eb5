"""The segment envelope, the pack, and the versioned reader registry.

Unit-level coverage of :mod:`repro.db.versioning`: segment envelope
round-trips, torn/corrupt segment detection, pointer-table parsing for
v1/v2/v3 manifests (pack pointers and their byte ranges included), and
per-record reader dispatch (including the "upgrade the library" error
for versions from the future).  The
integration-level behavior — the committed legacy roots, mixed-version
ones included, upgrading on save — is exercised in
``test_persistence.py`` and ``test_migration.py``.
"""

import json

import numpy as np
import pytest

from repro.color.names import FLAG_PALETTE
from repro.db.database import MultimediaDatabase
from repro.db.persistence import load_database, save_database
from repro.db.versioning import (
    CURRENT_VERSION,
    KIND_BINARY,
    KIND_EDITED,
    PACK_NAME,
    PACK_SEGMENT_VERSION,
    RecordFiles,
    RecordPointer,
    decode_segment,
    encode_segment,
    pointers_from_v2_manifest,
    pointers_from_v3_manifest,
    read_record,
    sha256_hex,
    v2_relpath,
)
from repro.errors import CorruptionError, PersistenceError
from repro.images.generators import random_palette_image
from tests.db.packs import flip_envelope_byte

#: Where a per-file (segment version 3) envelope of ``img-1`` lives.
SEG_PATH = "segments/img-1.seg"


def _make_database(seed, bases=2, variants=2):
    rng = np.random.default_rng(seed)
    database = MultimediaDatabase()
    base_ids = [
        database.insert_image(random_palette_image(rng, 10, 12, FLAG_PALETTE))
        for _ in range(bases)
    ]
    for base_id in base_ids:
        database.augment(base_id, rng, variants, FLAG_PALETTE,
                         merge_target_pool=base_ids)
    return database


def _encode(image_id, kind, payload):
    return encode_segment(image_id, kind, payload, sha256_hex(payload))


class TestSegmentEnvelope:
    def test_round_trip(self):
        payload = b"P6\n10 12\n255\n" + bytes(range(256)) * 2
        blob = _encode("img-1", KIND_BINARY, payload)
        header, decoded = decode_segment(blob, "img-1.seg")
        assert decoded == payload
        assert header["image_id"] == "img-1"
        assert header["kind"] == KIND_BINARY
        assert header["segment_version"] == 3
        assert header["payload_sha256"] == sha256_hex(payload)
        assert header["payload_bytes"] == len(payload)

    def test_payload_may_contain_newlines(self):
        payload = b"line one\nline two\n\nline four"
        blob = _encode("edit-1", KIND_EDITED, payload)
        _, decoded = decode_segment(blob, "x.seg")
        assert decoded == payload

    def test_torn_segment_detected(self):
        blob = _encode("img-1", KIND_BINARY, b"x" * 100)
        with pytest.raises(CorruptionError, match="torn"):
            decode_segment(blob[:-10], "img-1.seg")

    def test_flipped_payload_byte_detected(self):
        blob = bytearray(_encode("img-1", KIND_BINARY, b"x" * 100))
        blob[-1] ^= 0xFF
        with pytest.raises(CorruptionError, match="checksum"):
            decode_segment(bytes(blob), "img-1.seg")

    def test_damaged_header_detected(self):
        blob = _encode("img-1", KIND_BINARY, b"payload")
        with pytest.raises(CorruptionError):
            decode_segment(b"not json" + blob, "img-1.seg")

    def test_empty_blob_detected(self):
        with pytest.raises(CorruptionError):
            decode_segment(b"", "img-1.seg")


class TestRecordPointer:
    def test_json_round_trip(self):
        pointer = RecordPointer(
            image_id="img-1", kind=KIND_BINARY, segment_version=3,
            path=SEG_PATH, sha256="ab" * 32, size=123,
        )
        assert RecordPointer.from_json("img-1", pointer.to_json()) == pointer

    def test_pack_pointer_round_trips_its_byte_range(self):
        pointer = RecordPointer(
            image_id="img-1", kind=KIND_BINARY,
            segment_version=PACK_SEGMENT_VERSION, path=PACK_NAME,
            sha256="ab" * 32, size=123, offset=4096, length=250,
        )
        row = pointer.to_json()
        assert (row["offset"], row["length"], row["bytes"]) == (4096, 250, 123)
        assert RecordPointer.from_json("img-1", json.loads(json.dumps(row))) == pointer
        manifest = {"records": {"img-1": row}}
        assert pointers_from_v3_manifest(manifest) == {"img-1": pointer}

    def test_malformed_byte_range_is_a_persistence_error(self):
        row = {"kind": KIND_BINARY, "segment_version": PACK_SEGMENT_VERSION,
               "path": PACK_NAME, "offset": "far", "length": 10}
        with pytest.raises(PersistenceError, match="malformed record pointer"):
            RecordPointer.from_json("img-1", row)

    def test_v2_manifest_pointers(self):
        manifest = {
            "binary_ids": ["img-1"],
            "edited_ids": ["edit-1"],
            "files": {
                v2_relpath(KIND_BINARY, "img-1"): {"sha256": "aa", "bytes": 5},
                v2_relpath(KIND_EDITED, "edit-1"): {"sha256": "bb", "bytes": 6},
            },
        }
        pointers = pointers_from_v2_manifest(manifest, 2)
        assert pointers["img-1"].segment_version == 2
        assert pointers["img-1"].kind == KIND_BINARY
        assert pointers["edit-1"].kind == KIND_EDITED
        assert pointers["edit-1"].sha256 == "bb"

    def test_v1_manifest_pointers_have_no_checksums(self):
        manifest = {"binary_ids": ["img-1"], "edited_ids": []}
        pointers = pointers_from_v2_manifest(manifest, 1)
        assert pointers["img-1"].segment_version == 1
        assert pointers["img-1"].sha256 is None


class TestReaderRegistry:
    def test_unknown_future_version_names_the_cure(self, tmp_path):
        (tmp_path / "segments").mkdir()
        pointer = RecordPointer(
            image_id="img-1", kind=KIND_BINARY, segment_version=99,
            path=SEG_PATH,
        )
        with pytest.raises(PersistenceError, match="upgrade"):
            read_record(RecordFiles(tmp_path), pointer)

    def test_v3_reader_cross_checks_header_identity(self, tmp_path):
        (tmp_path / "segments").mkdir()
        # A segment whose header claims a different record: stale file
        # recycled under the wrong name.
        blob = _encode("img-2", KIND_BINARY, b"payload")
        (tmp_path / SEG_PATH).write_bytes(blob)
        pointer = RecordPointer(
            image_id="img-1", kind=KIND_BINARY, segment_version=3,
            path=SEG_PATH,
        )
        with pytest.raises(CorruptionError, match="img-2"):
            read_record(RecordFiles(tmp_path), pointer)

    def test_pack_reader_reads_its_range_and_cross_checks_identity(self, tmp_path):
        first = _encode("img-1", KIND_BINARY, b"first payload")
        second = _encode("img-2", KIND_BINARY, b"second")
        (tmp_path / PACK_NAME).write_bytes(first + second)

        def pointer(image_id, offset, length):
            return RecordPointer(
                image_id=image_id, kind=KIND_BINARY,
                segment_version=PACK_SEGMENT_VERSION, path=PACK_NAME,
                offset=offset, length=length,
            )

        with RecordFiles(tmp_path) as files:
            assert read_record(files, pointer("img-2", len(first), len(second))) == b"second"
            # The right range under the wrong name: the header catches it.
            with pytest.raises(CorruptionError, match="img-1"):
                read_record(files, pointer("img-2", 0, len(first)))
            with pytest.raises(CorruptionError, match="truncated pack"):
                read_record(files, pointer("img-2", len(first), len(second) + 1))
            with pytest.raises(CorruptionError, match="no byte range"):
                read_record(files, pointer("img-2", None, None))
        (tmp_path / PACK_NAME).unlink()
        with RecordFiles(tmp_path) as files:
            with pytest.raises(PersistenceError, match="missing file"):
                read_record(files, pointer("img-1", 0, len(first)))

    def test_a_build_without_the_pack_reader_asks_for_an_upgrade(
        self, tmp_path, monkeypatch
    ):
        """An older build's registry stops at 3: it refuses a packed root
        by asking for an upgrade, not by calling the root corrupt."""
        from repro.db import versioning

        save_database(_make_database(3), tmp_path / "db")
        monkeypatch.delitem(versioning._SEGMENT_READERS, PACK_SEGMENT_VERSION)
        with pytest.raises(PersistenceError, match="upgrade the library") as excinfo:
            load_database(tmp_path / "db")
        assert not isinstance(excinfo.value, CorruptionError)


class TestFormatSelection:
    def test_save_is_v3(self, tmp_path):
        save_database(_make_database(3), tmp_path / "db")
        manifest = json.loads((tmp_path / "db" / "catalog.json").read_text())
        assert manifest["format_version"] == CURRENT_VERSION == 3

    def test_v3_save_and_load_round_trip(self, tmp_path):
        database = _make_database(3)
        save_database(database, tmp_path / "db")
        manifest = json.loads((tmp_path / "db" / "catalog.json").read_text())
        assert manifest["format_version"] == CURRENT_VERSION == 3
        assert "records" in manifest
        assert (tmp_path / "db" / PACK_NAME).is_file()
        assert not (tmp_path / "db" / "segments").exists()
        loaded = load_database(tmp_path / "db")
        assert sorted(loaded.catalog.binary_ids()) == sorted(
            database.catalog.binary_ids()
        )
        assert sorted(loaded.catalog.edited_ids()) == sorted(
            database.catalog.edited_ids()
        )

    def test_resave_preserves_v3(self, tmp_path):
        database = _make_database(3)
        save_database(database, tmp_path / "db")
        save_database(load_database(tmp_path / "db"), tmp_path / "db")
        manifest = json.loads((tmp_path / "db" / "catalog.json").read_text())
        assert manifest["format_version"] == 3

    def test_v3_flipped_segment_byte_fails_strict_load(self, tmp_path):
        database = _make_database(3)
        save_database(database, tmp_path / "db")
        victim = sorted(database.catalog.binary_ids())[0]
        flip_envelope_byte(tmp_path / "db", victim)
        with pytest.raises(CorruptionError):
            load_database(tmp_path / "db")

    def test_v3_salvage_quarantines_damaged_segment(self, tmp_path):
        database = _make_database(3)
        save_database(database, tmp_path / "db")
        victim = sorted(database.catalog.binary_ids())[0]
        flip_envelope_byte(tmp_path / "db", victim)
        loaded, report = load_database(tmp_path / "db", salvage=True)
        assert not report.clean
        assert victim in {entry.image_id for entry in report.quarantined}
        assert victim not in set(loaded.catalog.binary_ids())
