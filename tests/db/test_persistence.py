"""Unit tests for directory persistence."""

import json

import pytest

from repro.color.quantization import UniformQuantizer
from repro.db.database import MultimediaDatabase
from repro.db.persistence import load_database, manifest_checksum, save_database
from repro.db.versioning import PACK_NAME, PACK_SEGMENT_VERSION
from repro.editing.sequence import EditSequence
from repro.errors import CorruptionError, PersistenceError, SalvageError
from repro.workloads.queries import make_query_workload
from tests.db.legacy import (
    DATA,
    LEGACY_ROOTS,
    answers,
    copy_root,
    expected,
    manifest,
    observed,
)
from tests.db.packs import dependents, envelope, flip_envelope_byte, pack_ids


def _first(database, kind):
    """The id of ``database``'s first ``kind`` record."""
    ids = (
        database.catalog.binary_ids()
        if kind == "binary"
        else database.catalog.edited_ids()
    )
    return next(iter(ids))


class TestRoundTrip:
    def test_save_load_preserves_everything(self, small_database, tmp_path, rng):
        root = save_database(small_database, tmp_path / "db")
        loaded = load_database(root)

        assert loaded.quantizer == small_database.quantizer
        assert loaded.fill_color == small_database.fill_color
        assert list(loaded.catalog.binary_ids()) == list(
            small_database.catalog.binary_ids()
        )
        assert list(loaded.catalog.edited_ids()) == list(
            small_database.catalog.edited_ids()
        )
        assert loaded.structure_summary() == small_database.structure_summary()

        # Pixels and sequences survive byte-exactly.
        for image_id in small_database.catalog.binary_ids():
            assert loaded.instantiate(image_id) == small_database.instantiate(image_id)
        for image_id in small_database.catalog.edited_ids():
            assert (
                loaded.catalog.sequence_of(image_id)
                == small_database.catalog.sequence_of(image_id)
            )

        # Query results identical on both instances.
        for query in make_query_workload(small_database, rng, 6):
            assert (
                loaded.range_query(query).matches
                == small_database.range_query(query).matches
            )

    def test_save_custom_quantizer(self, tmp_path, rng):
        database = MultimediaDatabase(quantizer=UniformQuantizer(3, "hsv"))
        from repro.images.raster import Image

        database.insert_image(Image.filled(4, 4, (10, 20, 30)))
        loaded = load_database(save_database(database, tmp_path / "db"))
        assert loaded.quantizer == UniformQuantizer(3, "hsv")

    def test_layout_on_disk(self, small_database, tmp_path):
        root = save_database(small_database, tmp_path / "db")
        assert (root / "catalog.json").is_file()
        assert len(pack_ids(root)) == 4 + 12
        assert sorted(p.name for p in root.iterdir()) == [
            "catalog.json", PACK_NAME
        ]
        # Compact JSON: no indentation, so the C encoder writes it.
        text = (root / "catalog.json").read_text(encoding="utf-8")
        assert "\n" not in text and ": " not in text


class TestErrors:
    def test_missing_catalog(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_database(tmp_path)

    def test_corrupt_manifest(self, tmp_path):
        (tmp_path / "catalog.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(PersistenceError):
            load_database(tmp_path)

    def test_unsupported_version(self, tmp_path):
        (tmp_path / "catalog.json").write_text(
            json.dumps({"format_version": 99}), encoding="utf-8"
        )
        with pytest.raises(PersistenceError):
            load_database(tmp_path)

    def test_missing_raster_file(self, small_database, tmp_path):
        root = save_database(small_database, tmp_path / "db")
        victim = root / PACK_NAME
        victim.unlink()
        with pytest.raises(PersistenceError) as excinfo:
            load_database(root)
        # Missing, not damaged: `repro repair` tells the two apart.
        assert not isinstance(excinfo.value, CorruptionError)
        assert str(excinfo.value) == f"missing file {victim}"

    def test_missing_sequence_file(self, small_database, tmp_path):
        """A pack cut off where the edited records begin: the binary
        images load, the first sequence's range is named as lost."""
        root = save_database(small_database, tmp_path / "db")
        victim, offset, _ = envelope(root, _first(small_database, "edited"))
        victim.write_bytes(victim.read_bytes()[:offset])
        with pytest.raises(PersistenceError) as excinfo:
            load_database(root)
        assert str(victim) in str(excinfo.value)
        assert "truncated pack" in str(excinfo.value)

    def test_corrupt_raster_named_in_error(self, small_database, tmp_path):
        root = save_database(small_database, tmp_path / "db")
        victim = flip_envelope_byte(root, _first(small_database, "binary"))
        with pytest.raises(CorruptionError) as excinfo:
            load_database(root)
        assert str(victim) in str(excinfo.value)

    def test_malformed_sequence_named_in_error(self, tmp_path):
        """Garbage .eseq content surfaces as CorruptionError, not a raw
        SequenceError/ValueError leaking out of the parser.  Only an
        unchecksummed legacy root lets garbage reach the parser."""
        root = copy_root("root_v2_bare", tmp_path / "db")
        victim = root / "edited" / "edit-4.eseq"
        victim.write_text("base \nnot an operation", encoding="utf-8")
        with pytest.raises(CorruptionError) as excinfo:
            load_database(root)
        assert str(victim) in str(excinfo.value)

    def test_truncated_raster_without_checksums(self, tmp_path):
        """Even with no checksum to check, a torn ppm is a CorruptionError."""
        root = copy_root("root_v2_bare", tmp_path / "db")
        victim = root / "binary" / "img-1.ppm"
        victim.write_bytes(victim.read_bytes()[:20])
        with pytest.raises(CorruptionError) as excinfo:
            load_database(root)
        assert str(victim) in str(excinfo.value)

    def test_tampered_manifest_detected(self, small_database, tmp_path):
        root = save_database(small_database, tmp_path / "db")
        manifest_path = root / "catalog.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["fill_color"] = [255, 255, 255]  # checksum now stale
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(CorruptionError) as excinfo:
            load_database(root)
        assert "manifest checksum" in str(excinfo.value)

    def test_missing_manifest_checksum_is_corruption(self, tmp_path):
        """A v2/v3 writer always recorded the checksum: deleting the
        field must not turn verification off."""
        for root in (
            copy_root("root_v2", tmp_path / "v2"),
            save_database(load_database(DATA / "root_v2"), tmp_path / "v3"),
        ):
            manifest_path = root / "catalog.json"
            stripped = manifest(root)
            del stripped["manifest_checksum"]
            manifest_path.write_text(json.dumps(stripped), encoding="utf-8")
            with pytest.raises(CorruptionError) as excinfo:
                load_database(root)
            assert str(manifest_path) in str(excinfo.value)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda m: m["quantizer"].update(divisions=0),
            lambda m: m.pop("fill_color"),
            lambda m: m.update(fill_color=[255, 255]),
        ],
        ids=["bad-quantizer", "no-fill-color", "short-fill-color"],
    )
    def test_malformed_manifest_with_a_valid_checksum(
        self, small_database, tmp_path, damage
    ):
        """A manifest that verifies but describes no loadable database:
        strict load says so as a PersistenceError, salvage as a
        SalvageError (there is nothing to anchor recovery on)."""
        root = save_database(small_database, tmp_path / "db")
        damaged = manifest(root)
        damage(damaged)
        damaged["manifest_checksum"] = manifest_checksum(damaged)
        (root / "catalog.json").write_text(json.dumps(damaged), encoding="utf-8")
        with pytest.raises(PersistenceError, match="malformed manifest") as excinfo:
            load_database(root)
        assert type(excinfo.value) is PersistenceError
        with pytest.raises(SalvageError, match="malformed manifest"):
            load_database(root, salvage=True)

    def test_raster_file_swap_detected(self, small_database, tmp_path):
        """Two byte ranges swapped in a manifest whose checksum was
        re-stamped: every range is whole, the envelope headers catch it."""
        root = save_database(small_database, tmp_path / "db")
        first, second = list(small_database.catalog.binary_ids())[:2]
        swapped = manifest(root)
        rows = swapped["records"]
        for key in ("offset", "length"):
            rows[first][key], rows[second][key] = rows[second][key], rows[first][key]
        swapped["manifest_checksum"] = manifest_checksum(swapped)
        (root / "catalog.json").write_text(json.dumps(swapped), encoding="utf-8")
        with pytest.raises(CorruptionError, match="swapped"):
            load_database(root)


class TestOrphanPruning:
    def test_resave_after_deletions_prunes_files(self, small_database, tmp_path):
        """insert -> save -> delete -> save -> load roundtrips to the
        smaller catalog with no orphaned content files left on disk."""
        root = save_database(small_database, tmp_path / "db")
        # Clear one base's derived chain, then the base itself, so both
        # an .eseq and a .ppm become orphans of the first save.
        base_victim = next(iter(small_database.catalog.binary_ids()))
        for edited_id in list(small_database.catalog.edited_ids()):
            sequence = small_database.catalog.sequence_of(edited_id)
            if base_victim in sequence.referenced_ids():
                small_database.delete_edited(edited_id)
        small_database.delete_image(base_victim)

        save_database(small_database, root)
        on_disk = pack_ids(root)
        assert base_victim not in on_disk
        assert on_disk == list(small_database.catalog.binary_ids()) + list(
            small_database.catalog.edited_ids()
        )

        loaded = load_database(root)
        assert loaded.structure_summary() == small_database.structure_summary()
        assert loaded.verify_integrity() == []

    def test_no_temp_debris_after_clean_save(self, small_database, tmp_path):
        root = save_database(small_database, tmp_path / "db")
        save_database(small_database, root)
        siblings = {p.name for p in root.parent.iterdir()}
        assert siblings == {root.name}


class TestSalvage:
    def test_salvage_on_healthy_database(self, small_database, tmp_path):
        root = save_database(small_database, tmp_path / "db")
        database, report = load_database(root, salvage=True)
        assert report.clean
        assert report.quarantined == []
        assert database.structure_summary() == small_database.structure_summary()

    def test_salvage_quarantines_corrupt_raster_and_descendants(
        self, small_database, tmp_path
    ):
        root = save_database(small_database, tmp_path / "db")
        victim_id = _first(small_database, "binary")
        flip_envelope_byte(root, victim_id)

        database, report = load_database(root, salvage=True)
        lost = set(report.quarantined_ids())
        assert victim_id in lost
        # Every edited image referencing the victim went with it.
        for image_id in small_database.catalog.edited_ids():
            sequence = small_database.catalog.sequence_of(image_id)
            if victim_id in sequence.referenced_ids():
                assert image_id in lost
        assert not database.catalog.contains(victim_id)
        assert database.verify_integrity() == []
        assert report.loaded_binary == database.catalog.binary_count
        assert "checksum mismatch" in report.describe()

    def test_salvage_chained_quarantine(self, tmp_path, rng):
        """Damage to an edited image takes its derived chain too."""
        from repro.color.names import FLAG_PALETTE
        from repro.images.generators import random_palette_image

        database = MultimediaDatabase()
        base_id = database.insert_image(
            random_palette_image(rng, 10, 12, FLAG_PALETTE)
        )
        first = database.insert_edited(EditSequence(base_id))
        second = database.insert_edited(EditSequence(first))
        third = database.insert_edited(EditSequence(second))

        root = save_database(database, tmp_path / "db")
        flip_envelope_byte(root, first, at=0)  # its header line

        salvaged, report = load_database(root, salvage=True)
        assert set(report.quarantined_ids()) == {first, second, third}
        assert list(salvaged.catalog.binary_ids()) == [base_id]
        assert salvaged.verify_integrity() == []

    def test_salvage_with_tampered_manifest_warns(self, small_database, tmp_path):
        root = save_database(small_database, tmp_path / "db")
        manifest_path = root / "catalog.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["fill_color"] = list(manifest["fill_color"])  # no-op change
        manifest["extra_field"] = True  # checksum now stale
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        database, report = load_database(root, salvage=True)
        assert any("manifest checksum" in w for w in report.warnings)
        assert not report.clean
        assert database.verify_integrity() == []

    def test_salvage_without_manifest_checksum_warns(self, tmp_path):
        root = copy_root("root_v2", tmp_path / "db")
        stripped = manifest(root)
        del stripped["manifest_checksum"]
        (root / "catalog.json").write_text(json.dumps(stripped), encoding="utf-8")
        database, report = load_database(root, salvage=True)
        assert report.warnings == [
            "manifest checksum mismatch; contents unverified"
        ]
        assert observed(database, expected("root_v2")) == answers(
            expected("root_v2")
        )

    def test_salvage_without_manifest_raises_salvage_error(self, tmp_path):
        with pytest.raises(SalvageError):
            load_database(tmp_path, salvage=True)

    def test_salvage_with_unparseable_manifest(self, small_database, tmp_path):
        root = save_database(small_database, tmp_path / "db")
        (root / "catalog.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(SalvageError):
            load_database(root, salvage=True)


class TestFormatCompatibility:
    def test_version_1_directories_still_load(self, tmp_path):
        """A pre-checksum (v1) manifest loads without verification."""
        root = copy_root("root_v1", tmp_path / "db")
        assert manifest(root)["format_version"] == 1
        assert "manifest_checksum" not in manifest(root)
        assert "files" not in manifest(root)
        loaded = load_database(root)
        assert observed(loaded, expected("root_v1")) == answers(expected("root_v1"))

    def test_saved_manifest_checksums_every_file(self, small_database, tmp_path):
        root = save_database(small_database, tmp_path / "db")
        saved = manifest(root)
        assert saved["format_version"] == 3
        assert set(saved["records"]) == set(small_database.ids())
        end = 0
        for row in saved["records"].values():  # manifest order = pack order
            assert row["segment_version"] == PACK_SEGMENT_VERSION
            assert row["path"] == PACK_NAME
            assert len(row["sha256"]) == 64
            assert row["bytes"] > 0
            assert row["offset"] == end
            assert row["length"] > row["bytes"]  # header line + payload
            end += row["length"]
        assert end == (root / PACK_NAME).stat().st_size

    def test_checksums_off_roundtrips(self, tmp_path):
        """A v2 root saved without checksums loads; its re-save is
        checksummed v3."""
        root = copy_root("root_v2_bare", tmp_path / "db")
        assert manifest(root)["files"] == {}
        oracle = answers(expected("root_v2_bare"))
        assert observed(load_database(root), oracle) == oracle
        save_database(load_database(root), root)
        assert all(
            len(row["sha256"]) == 64 for row in manifest(root)["records"].values()
        )
        assert observed(load_database(root), oracle) == oracle


class TestLegacyRoots:
    @pytest.mark.parametrize("name", LEGACY_ROOTS)
    def test_strict_load_resave_reload(self, name, tmp_path):
        """Every committed legacy root loads strictly; one save makes
        it one pack with nothing of the old layout left behind."""
        root = copy_root(name, tmp_path / name)
        oracle = expected(name)
        assert manifest(root)["format_version"] == oracle["format_version"]
        loaded = load_database(root)
        assert observed(loaded, oracle) == answers(oracle)

        save_database(loaded, root)
        upgraded = manifest(root)
        assert upgraded["format_version"] == 3
        assert {row["segment_version"] for row in upgraded["records"].values()} == {
            PACK_SEGMENT_VERSION
        }
        # Nothing of the old layout is left (nor the oracle's file).
        assert sorted(p.name for p in root.iterdir()) == ["catalog.json", PACK_NAME]

        assert observed(load_database(root), oracle) == answers(oracle)


class TestPack:
    """One pack per root: its size, its byte ranges, damage to it."""

    @pytest.mark.parametrize("bases,variants", [(0, 0), (1, 0), (3, 2), (12, 4)])
    def test_a_save_creates_two_files_whatever_the_size(
        self, bases, variants, tmp_path, rng
    ):
        from repro.color.names import FLAG_PALETTE
        from repro.images.generators import random_palette_image

        database = MultimediaDatabase()
        base_ids = [
            database.insert_image(random_palette_image(rng, 6, 8, FLAG_PALETTE))
            for _ in range(bases)
        ]
        for base_id in base_ids:
            database.augment(base_id, rng, variants, FLAG_PALETTE)
        root = save_database(database, tmp_path / "db")
        assert sorted(p.name for p in root.rglob("*")) == ["catalog.json", PACK_NAME]
        assert len(pack_ids(root)) == len(database) == bases * (1 + variants)
        loaded = load_database(root)
        assert loaded.structure_summary() == database.structure_summary()

    def test_envelopes_are_read_by_range_not_as_one_buffer(
        self, small_database, tmp_path, monkeypatch
    ):
        """A load opens the pack once and never reads more than one
        envelope at a time."""
        import os

        root = save_database(small_database, tmp_path / "db")
        lengths = [row["length"] for row in manifest(root)["records"].values()]
        reads, opens = [], []
        real_pread, real_open = os.pread, os.open
        monkeypatch.setattr(
            os, "pread", lambda fd, n, at: reads.append(n) or real_pread(fd, n, at)
        )
        monkeypatch.setattr(
            os, "open", lambda path, *a: opens.append(path) or real_open(path, *a)
        )
        load_database(root)
        assert reads == lengths
        assert opens == [f"{root}/{PACK_NAME}"]

    @pytest.mark.parametrize("at", [0, "middle", -1])
    def test_one_flipped_byte_quarantines_that_record_and_its_dependents(
        self, small_database, tmp_path, at
    ):
        """Damage anywhere in one envelope — its header, its payload's
        middle, its last byte — costs that record and what derives from
        it, and nothing else; the survivors answer as before."""
        ids = list(small_database.catalog.binary_ids()) + list(
            small_database.catalog.edited_ids()
        )
        for victim in (ids[1], ids[len(ids) // 2], ids[-1]):
            root = save_database(small_database, tmp_path / f"db-{victim}")
            _, _, length = envelope(root, victim)
            flip_envelope_byte(root, victim, length // 2 if at == "middle" else at)
            with pytest.raises(CorruptionError):
                load_database(root)
            salvaged, report = load_database(root, salvage=True)
            lost = dependents(small_database, {victim})
            assert set(report.quarantined_ids()) == lost
            assert set(salvaged.ids()) == set(ids) - lost
            assert salvaged.verify_integrity() == []
            for image_id in salvaged.catalog.edited_ids():
                assert salvaged.catalog.sequence_of(
                    image_id
                ) == small_database.catalog.sequence_of(image_id)

    def test_truncated_pack_quarantines_its_tail_records(self, small_database, tmp_path):
        """Cut the pack anywhere: the records whose range runs past the
        cut are lost (with their dependents), every earlier one loads."""
        rows = manifest(save_database(small_database, tmp_path / "count"))["records"]
        cuts = sorted({rows[i]["offset"] for i in rows} | {
            rows[i]["offset"] + rows[i]["length"] // 3 for i in rows
        })
        for cut in cuts[1::3]:
            root = save_database(small_database, tmp_path / f"db-{cut}")
            pack = root / PACK_NAME
            pack.write_bytes(pack.read_bytes()[:cut])
            with pytest.raises(CorruptionError, match="truncated pack"):
                load_database(root)
            salvaged, report = load_database(root, salvage=True)
            tail = {i for i, row in rows.items() if row["offset"] + row["length"] > cut}
            assert set(report.quarantined_ids()) == dependents(small_database, tail)
            assert all(
                "truncated pack" in entry.reason
                for entry in report.quarantined
                if entry.image_id in tail
            )
            assert salvaged.verify_integrity() == []
