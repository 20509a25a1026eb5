"""Unit tests for selectivity statistics and EXPLAIN."""

import numpy as np
import pytest

from repro.color.quantization import UniformQuantizer
from repro.core.query import RangeQuery
from repro.db.database import MultimediaDatabase
from repro.db.statistics import DatabaseStatistics
from repro.errors import QueryError
from repro.images.raster import Image
from repro.workloads.datasets import build_flag_database
from repro.workloads.queries import make_query_workload


@pytest.fixture(scope="module")
def database():
    return build_flag_database(np.random.default_rng(21), scale=0.05)


@pytest.fixture(scope="module")
def statistics(database):
    stats = DatabaseStatistics(database)
    stats.refresh()
    return stats


class TestBinStatistics:
    def test_bounds_of_fractions(self, database, statistics):
        for bin_index in range(0, database.quantizer.bin_count, 7):
            stats = statistics.bin_statistics(bin_index)
            assert 0.0 <= stats.minimum <= stats.mean <= stats.maximum <= 1.0

    def test_bucket_counts_cover_all_binaries(self, database, statistics):
        stats = statistics.bin_statistics(0)
        assert int(stats.bucket_counts.sum()) == database.catalog.binary_count

    def test_full_range_selectivity_is_one(self, statistics):
        stats = statistics.bin_statistics(0)
        assert stats.estimate_selectivity(0.0, 1.0) == pytest.approx(1.0)

    def test_empty_range_rejected(self, statistics):
        with pytest.raises(QueryError):
            statistics.bin_statistics(0).estimate_selectivity(0.9, 0.1)

    def test_invalid_bin_rejected(self, statistics):
        from repro.errors import ColorError

        with pytest.raises(ColorError):
            statistics.bin_statistics(999)

    def test_estimates_track_truth(self, database, statistics):
        """Estimates land within a coarse band of true selectivity."""
        rng = np.random.default_rng(8)
        catalog = database.catalog
        binary_count = catalog.binary_count
        for query in make_query_workload(database, rng, 10):
            stats = statistics.bin_statistics(query.bin_index)
            estimated = stats.estimate_selectivity(query.pct_min, query.pct_max)
            true = sum(
                query.matches_histogram(catalog.histogram_of(image_id))
                for image_id in catalog.binary_ids()
            ) / binary_count
            assert abs(estimated - true) <= 0.35  # equi-width is coarse

    def test_no_binaries_raises(self):
        empty = MultimediaDatabase()
        stats = DatabaseStatistics(empty)
        with pytest.raises(QueryError):
            stats.bin_statistics(0)


class TestExplain:
    def test_explain_matches_actual_execution(self, database, statistics):
        rng = np.random.default_rng(9)
        for query in make_query_workload(database, rng, 8):
            explanation = statistics.explain(query)
            actual = database.range_query(query, method="bwm")
            assert (
                explanation.clusters_short_circuited
                == actual.stats.clusters_short_circuited
            )
            assert (
                explanation.edited_accepted_without_rules
                == actual.stats.edited_accepted_without_rules
            )
            assert explanation.rules_bwm_would_apply == actual.stats.rules_applied
            rbm = database.range_query(query, method="rbm")
            assert explanation.rules_rbm_would_apply == rbm.stats.rules_applied

    def test_rules_saved_non_negative(self, database, statistics):
        rng = np.random.default_rng(10)
        for query in make_query_workload(database, rng, 6):
            assert statistics.explain(query).rules_saved >= 0

    def test_describe_renders(self, database, statistics):
        text = statistics.explain(RangeQuery.at_least(0, 0.2)).describe()
        assert "EXPLAIN" in text
        assert "rule applications" in text

    def test_database_explain_is_the_statistics_explain(self, database, statistics):
        query = RangeQuery.at_least(0, 0.2)
        before = database.engine.rules_applied
        assert database.explain(query) == statistics.explain(query)
        assert database.engine.rules_applied == before

    def test_explain_is_cheap(self, database, statistics):
        """EXPLAIN must not run any BOUNDS walks."""
        before = database.engine.rules_applied
        statistics.explain(RangeQuery.at_least(0, 0.2))
        assert database.engine.rules_applied == before


def _per_column_reference(database):
    """The refresh the whole-matrix one replaced: one column at a time."""
    catalog = database.catalog
    fractions = [
        catalog.histogram_of(image_id).fractions()
        for image_id in catalog.binary_ids()
    ]
    matrix = np.stack(fractions)  # images x bins
    reference = {}
    for bin_index in range(database.quantizer.bin_count):
        column = matrix[:, bin_index]
        buckets = np.clip((column * 10).astype(np.int64), 0, 9)
        reference[bin_index] = (
            float(column.min()),
            float(column.max()),
            float(column.mean()),
            np.bincount(buckets, minlength=10),
        )
    return reference


def _assert_bit_identical(database):
    stats = DatabaseStatistics(database)
    stats.refresh()
    for bin_index, (low, high, mean, counts) in _per_column_reference(
        database
    ).items():
        got = stats.bin_statistics(bin_index)
        assert got.bin_index == bin_index
        assert [type(v) for v in (got.minimum, got.maximum, got.mean)] == [float] * 3
        assert (repr(got.minimum), repr(got.maximum), repr(got.mean)) == (
            repr(low), repr(high), repr(mean)
        ), bin_index
        assert got.bucket_counts.dtype == counts.dtype
        assert got.bucket_counts.shape == counts.shape
        assert np.array_equal(got.bucket_counts, counts), bin_index


def _noise_database(rng, count, quantizer=None, height=7, width=9):
    database = MultimediaDatabase(quantizer=quantizer)
    for _ in range(count):
        pixels = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
        database.insert_image(Image(pixels))
    return database


class TestRefreshIsBitIdentical:
    """Whole-matrix ``refresh`` against the per-column reference."""

    def test_flag_catalog(self, database):
        _assert_bit_identical(database)

    @pytest.mark.parametrize("count", [2, 9, 130, 300])
    def test_noise_catalogs(self, count):
        # Past 8 and 128 images the mean's pairwise summation changes
        # shape; a row-by-row reduction would differ in the last bits.
        _assert_bit_identical(_noise_database(np.random.default_rng(count), count))

    def test_fraction_of_exactly_one_lands_in_the_top_bucket(self):
        database = _noise_database(np.random.default_rng(3), 5)
        database.insert_image(Image(np.full((4, 6, 3), 255, dtype=np.uint8)))
        _assert_bit_identical(database)
        white = database.quantizer.bin_of((255, 255, 255))
        stats = DatabaseStatistics(database).bin_statistics(white)
        assert stats.maximum == 1.0
        assert int(stats.bucket_counts[-1]) >= 1

    def test_single_image(self):
        database = _noise_database(np.random.default_rng(4), 1)
        _assert_bit_identical(database)
        stats = DatabaseStatistics(database).bin_statistics(0)
        assert stats.minimum == stats.maximum == stats.mean

    def test_no_binaries_leaves_nothing_to_read(self):
        stats = DatabaseStatistics(MultimediaDatabase())
        stats.refresh()
        with pytest.raises(QueryError):
            stats.bin_statistics(0)

    @pytest.mark.parametrize("divisions", [2, 3, 5])
    def test_other_quantizers(self, divisions):
        quantizer = UniformQuantizer(divisions=divisions)
        database = _noise_database(np.random.default_rng(divisions), 40, quantizer)
        _assert_bit_identical(database)
        stats = DatabaseStatistics(database)
        stats.refresh()
        assert stats.bin_statistics(divisions ** 3 - 1).bin_index == divisions ** 3 - 1
