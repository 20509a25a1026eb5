"""Unit tests for the MultimediaDatabase facade."""

import numpy as np
import pytest

from repro.color.histogram import ColorHistogram
from repro.color.names import FLAG_PALETTE
from repro.color.quantization import UniformQuantizer
from repro.core.query import RangeQuery
from repro.db.database import MultimediaDatabase
from repro.editing.operations import Combine, Define, Modify
from repro.editing.sequence import EditSequence
from repro.errors import QueryError, UnknownObjectError
from repro.images.generators import random_palette_image
from repro.images.geometry import Rect
from repro.images.raster import Image


class TestInsertion:
    def test_insert_assigns_readable_ids(self):
        database = MultimediaDatabase()
        image_id = database.insert_image(Image.filled(4, 4, (0, 0, 0)))
        assert image_id.startswith("img-")
        edited_id = database.insert_edited(EditSequence(image_id))
        assert edited_id.startswith("edit-")

    def test_insert_copies_pixels(self):
        database = MultimediaDatabase()
        image = Image.filled(4, 4, (0, 0, 0))
        image_id = database.insert_image(image)
        image.set_pixel(0, 0, (255, 255, 255))
        assert database.instantiate(image_id).get_pixel(0, 0) == (0, 0, 0)

    def test_explicit_ids_respected(self):
        database = MultimediaDatabase()
        assert database.insert_image(Image.filled(2, 2), image_id="mine") == "mine"

    def test_insert_updates_bwm_and_index(self):
        database = MultimediaDatabase()
        base = database.insert_image(Image.filled(4, 4, (0, 0, 0)))
        database.insert_edited(EditSequence(base, (Combine.box(),)))
        summary = database.structure_summary()
        assert summary == {
            "binary_images": 1,
            "edited_images": 1,
            "main_clusters": 1,
            "main_edited": 1,
            "unclassified": 0,
        }

    def test_delete_edited(self):
        database = MultimediaDatabase()
        base = database.insert_image(Image.filled(4, 4, (0, 0, 0)))
        edited = database.insert_edited(EditSequence(base, (Combine.box(),)))
        database.delete_edited(edited)
        assert database.structure_summary()["edited_images"] == 0
        with pytest.raises(UnknownObjectError):
            database.delete_edited(edited)

    def test_delete_edited_refused_while_edits_build_on_it(self):
        from repro.errors import DatabaseError

        database = MultimediaDatabase()
        base = database.insert_image(Image.filled(4, 4, (0, 0, 0)))
        middle = database.insert_edited(EditSequence(base, (Combine.box(),)))
        leaf = database.insert_edited(EditSequence(middle))
        with pytest.raises(DatabaseError):
            database.delete_edited(middle)
        assert list(database.ids()) == [base, middle, leaf]
        assert database.verify_integrity() == []
        assert database.instantiate(leaf) == database.instantiate(middle)
        database.delete_edited(leaf)
        database.delete_edited(middle)
        assert database.verify_integrity() == []

    def test_len_and_ids(self):
        database = MultimediaDatabase()
        base = database.insert_image(Image.filled(2, 2))
        edited = database.insert_edited(EditSequence(base))
        assert len(database) == 2
        assert list(database.ids()) == [base, edited]


class TestInstantiation:
    def test_instantiate_edited_executes_sequence(self):
        database = MultimediaDatabase()
        base = database.insert_image(Image.filled(4, 4, (10, 10, 10)))
        edited = database.insert_edited(
            EditSequence(base, (Modify((10, 10, 10), (250, 250, 250)),))
        )
        out = database.instantiate(edited)
        assert out.count_color((250, 250, 250)) == 16

    def test_instantiate_chained_edit(self):
        database = MultimediaDatabase()
        base = database.insert_image(Image.filled(4, 4, (10, 10, 10)))
        mid = database.insert_edited(
            EditSequence(base, (Modify((10, 10, 10), (99, 99, 99)),))
        )
        top = database.insert_edited(
            EditSequence(mid, (Modify((99, 99, 99), (7, 7, 7)),))
        )
        assert database.instantiate(top).count_color((7, 7, 7)) == 16

    def test_exact_histogram_matches_instantiation(self, small_database):
        for edited_id in small_database.catalog.edited_ids():
            truth = ColorHistogram.of_image(
                small_database.instantiate(edited_id), small_database.quantizer
            )
            assert small_database.exact_histogram(edited_id) == truth

    def test_bounds_accessor(self):
        database = MultimediaDatabase()
        base = database.insert_image(Image.filled(4, 4, (0, 0, 0)))
        edited = database.insert_edited(
            EditSequence(base, (Define(Rect(0, 0, 2, 2)), Combine.box()))
        )
        bounds = database.bounds(edited, database.quantizer.bin_of((0, 0, 0)))
        assert bounds.lo == 12 and bounds.hi == 16

    def test_derivation_navigation(self):
        database = MultimediaDatabase()
        base = database.insert_image(Image.filled(2, 2))
        edited = database.insert_edited(EditSequence(base))
        assert database.edited_versions_of(base) == (edited,)
        assert database.base_of(edited) == base


class TestRangeQueries:
    def test_unknown_method_rejected(self, small_database):
        with pytest.raises(QueryError):
            small_database.range_query(RangeQuery(0, 0.0, 1.0), method="magic")

    def test_bin_validated_against_quantizer(self, small_database):
        from repro.errors import ColorError

        with pytest.raises(ColorError):
            small_database.range_query(RangeQuery(64, 0.0, 1.0))

    def test_color_query_by_name(self):
        database = MultimediaDatabase()
        database.insert_image(Image.filled(4, 4, (0, 40, 104)), image_id="navy-flag")
        result = database.text_query("at least 90% blue")
        assert "navy-flag" in result.matches

    def test_color_query_by_rgb(self):
        database = MultimediaDatabase()
        database.insert_image(Image.filled(4, 4, (0, 40, 104)), image_id="navy-flag")
        bin_index = database.quantizer.bin_of((0, 40, 104))
        result = database.range_query(RangeQuery(bin_index, 0.9, 1.0))
        assert "navy-flag" in result.matches

    def test_text_query_end_to_end(self):
        database = MultimediaDatabase()
        database.insert_image(Image.filled(4, 4, (0, 40, 104)), image_id="navy-flag")
        database.insert_image(Image.filled(4, 4, (255, 255, 255)), image_id="white")
        result = database.text_query("retrieve all images that are at least 25% blue")
        assert result.matches == {"navy-flag"}

    def test_indexed_binary_query_matches_linear_truth(
        self, small_database, rng, search_binary_index
    ):
        from repro.workloads.queries import make_query_workload

        for query in make_query_workload(small_database, rng, 8):
            indexed = search_binary_index(small_database, query)
            exact = {
                image_id
                for image_id in small_database.catalog.binary_ids()
                if query.matches_histogram(small_database.catalog.histogram_of(image_id))
            }
            assert indexed == exact

    def test_linear_index_kind(self, rng, search_binary_index):
        database = MultimediaDatabase()
        image_id = database.insert_image(random_palette_image(rng, 8, 8, FLAG_PALETTE))
        histogram = database.catalog.histogram_of(image_id)
        bin_index = histogram.dominant_bins(1)[0]
        query = RangeQuery(bin_index, 0.0, 1.0)
        assert image_id in search_binary_index(database, query, "linear")

    def test_unknown_index_kind(self, search_binary_index):
        from repro.errors import IndexError_

        with pytest.raises(IndexError_):
            search_binary_index(MultimediaDatabase(), RangeQuery(0, 0.0, 1.0), "btree")
        # The database itself no longer takes the knob.
        with pytest.raises(TypeError):
            MultimediaDatabase(index_kind="rtree")


class TestKNN:
    def test_strategies_agree(self, small_database):
        query_image = small_database.instantiate(
            next(iter(small_database.catalog.binary_ids()))
        )
        exact = small_database.knn(query_image, 4, method="exact")
        bounded = small_database.knn(query_image, 4, method="bounded")
        assert [round(d, 9) for d, _ in exact.neighbors] == [
            round(d, 9) for d, _ in bounded.neighbors
        ]

    def test_binary_method_restricted_to_binaries(self, small_database):
        query_image = small_database.instantiate(
            next(iter(small_database.catalog.binary_ids()))
        )
        result = small_database.knn(query_image, 3, method="binary")
        binary_ids = set(small_database.catalog.binary_ids())
        assert set(result.ids()) <= binary_ids

    def test_self_is_nearest(self, small_database):
        base = next(iter(small_database.catalog.binary_ids()))
        result = small_database.knn(small_database.instantiate(base), 1, method="exact")
        assert result.neighbors[0][0] == pytest.approx(0.0)

    def test_accepts_histogram_query(self, small_database):
        base = next(iter(small_database.catalog.binary_ids()))
        histogram = small_database.catalog.histogram_of(base)
        assert small_database.knn(histogram, 2, method="binary").ids()

    def test_rejects_foreign_quantizer(self, small_database):
        image = Image.filled(4, 4, (0, 0, 0))
        foreign = ColorHistogram.of_image(image, UniformQuantizer(2, "rgb"))
        with pytest.raises(QueryError):
            small_database.knn(foreign, 2)

    def test_unknown_method(self, small_database):
        image = small_database.instantiate(
            next(iter(small_database.catalog.binary_ids()))
        )
        with pytest.raises(QueryError):
            small_database.knn(image, 2, method="warp")

    def test_k_validation(self, small_database):
        image = small_database.instantiate(
            next(iter(small_database.catalog.binary_ids()))
        )
        with pytest.raises(QueryError):
            small_database.knn(image, 0)


class TestStorageReport:
    def test_sequences_much_smaller_than_rasters(self, small_database):
        report = small_database.storage_report(include_instantiated=True)
        assert report.edited_images == 12
        assert report.edited_sequence_bytes < report.edited_if_instantiated_bytes
        assert 0 < report.savings_ratio < 0.5
        assert report.bytes_saved > 0
        assert "binary images" in report.describe()

    def test_report_without_instantiation(self, small_database):
        report = small_database.storage_report()
        assert report.edited_if_instantiated_bytes is None
        assert report.bytes_saved is None
        assert report.savings_ratio is None
        assert report.total_bytes == report.binary_bytes + report.edited_sequence_bytes


class TestVAFileIndexKind:
    def test_vafile_index_answers_range_queries(self, rng, search_binary_index):
        from repro.workloads.queries import make_query_workload

        database = MultimediaDatabase()
        for _ in range(6):
            database.insert_image(random_palette_image(rng, 10, 12, FLAG_PALETTE))
        for query in make_query_workload(database, rng, 6):
            indexed = search_binary_index(database, query, "vafile")
            exact = {
                image_id
                for image_id in database.catalog.binary_ids()
                if query.matches_histogram(database.catalog.histogram_of(image_id))
            }
            assert indexed == exact


class TestBinaryMaintenance:
    def test_delete_image_removes_everywhere(self, rng):
        database = MultimediaDatabase()
        keep = database.insert_image(random_palette_image(rng, 8, 10, FLAG_PALETTE))
        victim = database.insert_image(random_palette_image(rng, 8, 10, FLAG_PALETTE))
        database.delete_image(victim)
        assert not database.catalog.contains(victim)
        assert list(database.ids()) == [keep]
        assert database.verify_integrity() == []

    def test_delete_image_blocked_by_derived(self, rng):
        from repro.errors import DatabaseError

        database = MultimediaDatabase()
        base = database.insert_image(random_palette_image(rng, 8, 10, FLAG_PALETTE))
        database.insert_edited(EditSequence(base))
        with pytest.raises(DatabaseError):
            database.delete_image(base)
        assert database.catalog.contains(base)
        assert database.verify_integrity() == []

    def test_update_image_refreshes_features_and_queries(self, rng):
        database = MultimediaDatabase()
        image_id = database.insert_image(Image.filled(6, 6, (0, 40, 104)))
        assert image_id in database.text_query("at least 90% blue").matches

        database.update_image(image_id, Image.filled(6, 6, (200, 16, 46)))
        assert image_id not in database.text_query("at least 90% blue").matches
        assert image_id in database.text_query("at least 90% red").matches
        assert database.verify_integrity() == []

    def test_update_image_propagates_to_derived_bounds(self, rng):
        database = MultimediaDatabase(bounds_cache=True)
        base = database.insert_image(Image.filled(6, 6, (0, 40, 104)))
        # An identity-sequence edit: its bounds equal the base's exact count.
        edited = database.insert_edited(EditSequence(base))
        blue_bin = database.quantizer.bin_of((0, 40, 104))
        assert database.bounds(edited, blue_bin).hi == 36

        database.update_image(base, Image.filled(6, 6, (200, 16, 46)))
        # Cached bounds invalidated; the derived image now tracks red.
        assert database.bounds(edited, blue_bin).hi == 0
        assert database.instantiate(edited).count_color((0, 40, 104)) == 0
