"""Unit tests for catalog records and the catalog itself."""

import pytest

from repro.color.histogram import ColorHistogram
from repro.color.quantization import UniformQuantizer
from repro.db.catalog import Catalog
from repro.db.records import BinaryImageRecord, EditedImageRecord
from repro.editing.operations import Combine, Merge
from repro.editing.sequence import EditSequence
from repro.errors import (
    DatabaseError,
    DuplicateObjectError,
    UnknownObjectError,
)
from repro.images.raster import Image

Q2 = UniformQuantizer(2, "rgb")


def binary_record(image_id="b1", color=(0, 0, 0)):
    image = Image.filled(4, 4, color)
    return BinaryImageRecord(image_id, image, ColorHistogram.of_image(image, Q2))


class TestRecords:
    def test_binary_record_checks_consistency(self):
        image = Image.filled(4, 4, (0, 0, 0))
        other = Image.filled(2, 2, (0, 0, 0))
        with pytest.raises(DatabaseError):
            BinaryImageRecord("b", other, ColorHistogram.of_image(image, Q2))

    def test_empty_id_rejected(self):
        image = Image.filled(2, 2, (0, 0, 0))
        with pytest.raises(DatabaseError):
            BinaryImageRecord("", image, ColorHistogram.of_image(image, Q2))
        with pytest.raises(DatabaseError):
            EditedImageRecord("", EditSequence("b"))

    def test_storage_sizes(self):
        record = binary_record()
        assert record.storage_size_bytes() > 4 * 4 * 3
        edited = EditedImageRecord("e", EditSequence("b", (Combine.box(),)))
        assert edited.storage_size_bytes() == edited.sequence.storage_size_bytes()

    def test_format_tags(self):
        assert binary_record().format == "binary"
        assert EditedImageRecord("e", EditSequence("b")).format == "edited"

    def test_base_id_shortcut(self):
        assert EditedImageRecord("e", EditSequence("b")).base_id == "b"


class TestCatalogMutation:
    def test_add_and_lookup(self):
        catalog = Catalog()
        catalog.add_binary(binary_record("b1"))
        assert catalog.contains("b1")
        assert "b1" in catalog
        assert catalog.binary_count == 1
        assert catalog.histogram_of("b1").total == 16

    def test_duplicate_ids_rejected_across_formats(self):
        catalog = Catalog()
        catalog.add_binary(binary_record("x"))
        with pytest.raises(DuplicateObjectError):
            catalog.add_binary(binary_record("x"))
        with pytest.raises(DuplicateObjectError):
            catalog.add_edited(EditedImageRecord("x", EditSequence("x")))

    def test_edited_requires_known_references(self):
        catalog = Catalog()
        catalog.add_binary(binary_record("b1"))
        with pytest.raises(UnknownObjectError):
            catalog.add_edited(EditedImageRecord("e1", EditSequence("ghost")))
        with pytest.raises(UnknownObjectError):
            catalog.add_edited(
                EditedImageRecord("e1", EditSequence("b1", (Merge("ghost", 0, 0),)))
            )

    def test_derivation_links(self):
        catalog = Catalog()
        catalog.add_binary(binary_record("b1"))
        catalog.add_edited(EditedImageRecord("e1", EditSequence("b1")))
        catalog.add_edited(EditedImageRecord("e2", EditSequence("b1")))
        assert catalog.derived_from("b1") == ("e1", "e2")
        assert catalog.derived_from("e1") == ()

    def test_derived_from_unknown(self):
        with pytest.raises(UnknownObjectError):
            Catalog().derived_from("nope")

    def test_remove_edited(self):
        catalog = Catalog()
        catalog.add_binary(binary_record("b1"))
        catalog.add_edited(EditedImageRecord("e1", EditSequence("b1")))
        record = catalog.remove_edited("e1")
        assert record.image_id == "e1"
        assert catalog.derived_from("b1") == ()
        with pytest.raises(UnknownObjectError):
            catalog.remove_edited("e1")

    def test_remove_binary_blocked_by_children(self):
        catalog = Catalog()
        catalog.add_binary(binary_record("b1"))
        catalog.add_edited(EditedImageRecord("e1", EditSequence("b1")))
        with pytest.raises(DatabaseError):
            catalog.remove_binary("b1")
        catalog.remove_edited("e1")
        catalog.remove_binary("b1")
        assert not catalog.contains("b1")

    def test_remove_binary_blocked_by_merge_target(self):
        catalog = Catalog()
        catalog.add_binary(binary_record("b1"))
        catalog.add_binary(binary_record("b2", color=(255, 255, 255)))
        catalog.add_edited(
            EditedImageRecord("e1", EditSequence("b1", (Merge("b2", 0, 0),)))
        )
        with pytest.raises(DatabaseError):
            catalog.remove_binary("b2")

    def test_remove_edited_blocked_by_referrers(self):
        catalog = Catalog()
        catalog.add_binary(binary_record("b1"))
        catalog.add_edited(EditedImageRecord("x", EditSequence("b1")))
        catalog.add_edited(EditedImageRecord("y", EditSequence("x")))
        catalog.add_edited(
            EditedImageRecord("z", EditSequence("b1", (Merge("y", 0, 0),)))
        )
        assert catalog.referrers("b1") == ("x", "z")
        assert catalog.referrers("x") == ("y",)
        assert catalog.referrers("y") == ("z",)
        for blocked in ("x", "y"):  # a base, and a Merge target
            with pytest.raises(DatabaseError):
                catalog.remove_edited(blocked)
            assert catalog.contains(blocked)
        for free in ("z", "y", "x"):
            catalog.remove_edited(free)
        assert catalog.referrers("b1") == ()
        catalog.remove_binary("b1")

    def test_allocate_id_skips_taken(self):
        catalog = Catalog()
        first = catalog.allocate_id("img")
        catalog.add_binary(binary_record(first))
        second = catalog.allocate_id("img")
        assert first != second


class TestCatalogProtocols:
    def test_catalog_view_iteration_order(self):
        catalog = Catalog()
        catalog.add_binary(binary_record("b2"))
        catalog.add_binary(binary_record("b1"))
        catalog.add_edited(EditedImageRecord("e1", EditSequence("b1")))
        assert list(catalog.binary_ids()) == ["b2", "b1"]  # insertion order
        assert list(catalog.edited_ids()) == ["e1"]
        assert len(catalog) == 3

    def test_lookup_for_bounds_dispatch(self):
        catalog = Catalog()
        catalog.add_binary(binary_record("b1"))
        catalog.add_edited(EditedImageRecord("e1", EditSequence("b1")))
        histogram, height, width = catalog.lookup_for_bounds("b1")
        assert (height, width) == (4, 4)
        assert isinstance(catalog.lookup_for_bounds("e1"), EditSequence)
        with pytest.raises(UnknownObjectError):
            catalog.lookup_for_bounds("nope")

    def test_typed_record_accessors(self):
        catalog = Catalog()
        catalog.add_binary(binary_record("b1"))
        catalog.add_edited(EditedImageRecord("e1", EditSequence("b1")))
        assert catalog.binary_record("b1").image_id == "b1"
        assert catalog.edited_record("e1").image_id == "e1"
        with pytest.raises(UnknownObjectError):
            catalog.binary_record("e1")
        with pytest.raises(UnknownObjectError):
            catalog.edited_record("b1")
        assert catalog.record("b1").format == "binary"
        assert catalog.record("e1").format == "edited"
        with pytest.raises(UnknownObjectError):
            catalog.record("zzz")
