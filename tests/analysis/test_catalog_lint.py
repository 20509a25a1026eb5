"""The catalog checker (:func:`repro.db.integrity.verify_integrity`):
clean on healthy databases, catches every seeded defect class with its
exact code."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.color.quantization import UniformQuantizer
from repro.db.database import MultimediaDatabase
from repro.db.integrity import scan_catalog, verify_integrity
from repro.editing.operations import Combine, Define, Merge, Mutate
from repro.editing.sequence import EditSequence
from repro.images.geometry import Rect
from repro.images.raster import Image

IDENTITY_WEIGHTS = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def _image(rng, height=8, width=8) -> Image:
    pixels = rng.integers(0, 256, size=(height, width, 3)).astype(np.uint8)
    return Image(pixels)


def _by_code(database, code):
    return [p for p in verify_integrity(database) if p.code == code]


def _replace_sequence(database, image_id, sequence) -> None:
    """Seed a defect by swapping a stored sequence behind the catalog's
    validation (the whole point: the verifier must catch what the write
    path would have rejected)."""
    record = database.catalog.edited_record(image_id)
    database.catalog._edited[image_id] = dataclasses.replace(
        record, sequence=sequence
    )


@pytest.fixture()
def db():
    rng = np.random.default_rng(11)
    database = MultimediaDatabase(
        quantizer=UniformQuantizer(2, "rgb"), bounds_cache=True
    )
    base = database.insert_image(_image(rng))
    edited = database.insert_edited(
        EditSequence(
            base_id=base,
            operations=(Define(Rect(0, 0, 4, 4)), Combine(IDENTITY_WEIGHTS)),
        )
    )
    return database, base, edited


class TestHealthyDatabase:
    def test_no_errors(self, db):
        database, _, _ = db
        assert len(database) == 2
        assert verify_integrity(database) == []

    def test_small_database_fixture_clean(self, small_database):
        problems = verify_integrity(small_database)
        assert problems == [], "\n".join(map(str, problems))


class TestDanglingReference:
    def test_dangling_base(self, db):
        database, _, edited = db
        record = database.catalog.edited_record(edited)
        _replace_sequence(
            database,
            edited,
            EditSequence(base_id="ghost", operations=record.sequence.operations),
        )
        findings = _by_code(database, "DB001")
        assert [f.location for f in findings] == [edited]
        assert "missing base 'ghost'" in findings[0].message

    def test_dangling_merge_target(self, db):
        database, base, edited = db
        _replace_sequence(
            database,
            edited,
            EditSequence(
                base_id=base,
                operations=(Define(Rect(0, 0, 4, 4)), Merge("nowhere", 0, 0)),
            ),
        )
        findings = _by_code(database, "DB001")
        assert findings
        assert "missing Merge target 'nowhere'" in findings[0].message


class TestMergeCycle:
    def test_two_image_cycle(self, db):
        database, base, e1 = db
        e2 = database.insert_edited(
            EditSequence(
                base_id=base,
                operations=(Define(Rect(0, 0, 4, 4)), Merge(e1, 0, 0)),
            )
        )
        _replace_sequence(
            database,
            e1,
            EditSequence(
                base_id=base,
                operations=(Define(Rect(0, 0, 4, 4)), Merge(e2, 0, 0)),
            ),
        )
        findings = _by_code(database, "DB002")
        assert len(findings) == 1
        assert e1 in findings[0].message and e2 in findings[0].message

    def test_self_cycle(self, db):
        database, _, edited = db
        _replace_sequence(
            database,
            edited,
            EditSequence(base_id=edited, operations=(Combine(IDENTITY_WEIGHTS),)),
        )
        assert _by_code(database, "DB002")


class TestSizeUnderflow:
    def test_merge_on_empty_dr(self, db):
        database, base, edited = db
        # The Define clips to nothing on the 8x8 base, so the Merge has
        # an empty DR — the Table 1 Merge rule is inapplicable.
        _replace_sequence(
            database,
            edited,
            EditSequence(
                base_id=base,
                operations=(Define(Rect(20, 20, 24, 24)), Merge(None)),
            ),
        )
        findings = _by_code(database, "DB003")
        assert findings and findings[0].location == edited
        assert findings[0].message.startswith("Merge at op 1 ")

    def test_underflow_not_reported_for_dangling(self, db):
        # An unknowable size (dangling base) must not double-report.
        database, _, edited = db
        _replace_sequence(
            database,
            edited,
            EditSequence(base_id="ghost", operations=(Merge(None),)),
        )
        assert _by_code(database, "DB001")
        assert not _by_code(database, "DB003")


class TestBWMPlacement:
    def test_missing_edited_image(self, db):
        database, _, edited = db
        database.bwm_structure.remove_edited(edited)
        findings = _by_code(database, "DB004")
        assert findings and "missing" in findings[0].message

    def test_widening_image_left_unclassified(self, db):
        database, _, edited = db
        database.bwm_structure.remove_edited(edited)
        database.bwm_structure.unclassified.append(edited)
        findings = _by_code(database, "DB004")
        assert findings and "Unclassified" in findings[0].message

    def test_non_widening_image_filed_main(self, db):
        database, base, edited = db
        # A general affine warp is NOT bound-widening; leaving the image
        # in the Main cluster makes the Figure 2 shortcut unsound.
        _replace_sequence(
            database,
            edited,
            EditSequence(
                base_id=base,
                operations=(Define(Rect(0, 0, 4, 4)), Mutate.scale(1.5)),
            ),
        )
        findings = _by_code(database, "DB004")
        assert findings
        assert "not bound-widening" in findings[0].message

    def test_stale_structure_entry(self, db):
        database, base, _ = db
        database.bwm_structure.unclassified.append("phantom-1")
        findings = _by_code(database, "DB004")
        assert any(f.location == "phantom-1" for f in findings)


class TestLinks:
    def test_missing_referrer(self, db):
        database, base, edited = db
        merging = database.insert_edited(
            EditSequence(
                base_id=base,
                operations=(Define(Rect(0, 0, 4, 4)), Merge(edited, 0, 0)),
            )
        )
        database.catalog._merge_users[edited].remove(merging)
        findings = _by_code(database, "DB008")
        assert [f.location for f in findings] == [merging]
        assert "referrers of Merge target" in findings[0].message


class TestDependencyGraph:
    def test_clean_after_invalidation(self, db):
        # The engine's edge contract: an edge names a reference of a
        # stored dependent, so deleting the dependent scrubs its edges.
        database, base, edited = db
        database.engine.bounds_all_bins(edited)
        assert database.engine.dependency_edges() == [(base, edited)]
        database.delete_edited(edited)
        assert database.engine.dependency_edges() == []


def _plant_dangling_base(database, base, edited):
    operations = database.catalog.sequence_of(edited).operations
    _replace_sequence(
        database, edited, EditSequence(base_id="ghost", operations=operations)
    )
    return edited


def _plant_dangling_merge_target(database, base, edited):
    _replace_sequence(
        database,
        edited,
        EditSequence(
            base_id=base,
            operations=(Define(Rect(0, 0, 4, 4)), Merge("nowhere", 0, 0)),
        ),
    )
    return edited


def _plant_two_node_cycle(database, base, edited):
    other = database.insert_edited(
        EditSequence(
            base_id=base,
            operations=(Define(Rect(0, 0, 4, 4)), Merge(edited, 0, 0)),
        )
    )
    _replace_sequence(
        database,
        edited,
        EditSequence(
            base_id=base,
            operations=(Define(Rect(0, 0, 4, 4)), Merge(other, 0, 0)),
        ),
    )
    return edited


def _plant_merge_on_empty_dr(database, base, edited):
    _replace_sequence(
        database,
        edited,
        EditSequence(
            base_id=base,
            operations=(Define(Rect(20, 20, 24, 24)), Merge(None)),
        ),
    )
    return edited


def _plant_non_widening_in_main(database, base, edited):
    _replace_sequence(
        database,
        edited,
        EditSequence(
            base_id=base,
            operations=(Define(Rect(0, 0, 4, 4)), Mutate.scale(1.5)),
        ),
    )
    return edited


def _plant_widening_in_unclassified(database, base, edited):
    database.bwm_structure.remove_edited(edited)
    database.bwm_structure.unclassified.append(edited)
    return edited


def _plant_non_binary_cluster_key(database, base, edited):
    database.bwm_structure.main[edited] = []
    return edited


def _plant_both_components(database, base, edited):
    database.bwm_structure.unclassified.append(edited)
    return edited


def _plant_orphan_entry(database, base, edited):
    database.bwm_structure.unclassified.append("phantom-1")
    return "phantom-1"


class TestAgreesWithVerifyIntegrity:
    """:func:`verify_integrity` renders DB001 – DB004 from one
    :func:`scan_catalog`, so a planted defect shows up in both, under
    the same id."""

    @pytest.mark.parametrize(
        "plant, code, found_by, problem",
        [
            (_plant_dangling_base, "DB001", "dangling", "references missing"),
            (_plant_dangling_merge_target, "DB001", "dangling", "references missing"),
            (_plant_two_node_cycle, "DB002", "cycles", "reference cycle"),
            (_plant_merge_on_empty_dr, "DB003", "underflows", "empty Defined Region"),
            (_plant_non_widening_in_main, "DB004", "placements", "misplaced in Main"),
            (
                _plant_widening_in_unclassified,
                "DB004",
                "placements",
                "misplaced in Unclassified",
            ),
            (_plant_orphan_entry, "DB004", "placements", "not a catalog edited image"),
            (
                _plant_non_binary_cluster_key,
                "DB004",
                "placements",
                "is not a binary image",
            ),
            (_plant_both_components, "DB004", "placements", "in both components"),
        ],
    )
    def test_planted_defect_reported_by_both(self, db, plant, code, found_by, problem):
        database, base, edited = db
        planted = plant(database, base, edited)
        scanned = getattr(scan_catalog(database), found_by)
        # A cycle is an id path; the others lead with the offending id.
        assert any(
            planted in (found if found_by == "cycles" else found[:1])
            for found in scanned
        )
        findings = _by_code(database, code)
        assert planted in [finding.location for finding in findings]
        assert any(
            problem in finding.message and finding.location == planted
            for finding in findings
        )
