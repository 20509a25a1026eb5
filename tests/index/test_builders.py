"""Catalog-level index builders fed by the vectorized BOUNDS kernel."""

import numpy as np
import pytest

from repro.color.names import FLAG_PALETTE
from repro.core.query import RangeQuery
from repro.db.database import MultimediaDatabase
from repro.errors import IndexError_
from repro.images.generators import random_palette_image
from repro.index import (
    LinearIndex,
    MBR,
    RTree,
    VAFile,
    build_binary_histogram_index,
    build_edited_bounds_index,
    edited_range_candidates,
)
from repro.service import QueryService, Strategy


@pytest.fixture
def database(rng):
    db = MultimediaDatabase()
    for seed in range(4):
        base = db.insert_image(random_palette_image(rng, 8, 10, FLAG_PALETTE))
        db.augment(base, np.random.default_rng(seed), 2, FLAG_PALETTE)
    return db


class TestBinaryPointIndexes:
    @pytest.mark.parametrize("kind", ["rtree", "vafile", "linear"])
    def test_indexes_every_binary_image(self, database, kind):
        index = build_binary_histogram_index(database.catalog, kind)
        assert len(index) == database.catalog.binary_count

    @pytest.mark.parametrize("kind", ["rtree", "vafile", "linear"])
    def test_slab_search_matches_exact_check(self, database, kind):
        index = build_binary_histogram_index(database.catalog, kind)
        query = RangeQuery.at_least(0, 0.15)
        slab = MBR.slab(
            database.quantizer.bin_count, 0, 0.15, 1.0, domain_lo=0.0, domain_hi=1.0
        )
        expected = sorted(
            image_id
            for image_id in database.catalog.binary_ids()
            if query.matches_histogram(database.catalog.histogram_of(image_id))
        )
        assert sorted(index.search(slab)) == expected

    def test_rtree_is_bulk_loaded(self, database):
        index = build_binary_histogram_index(database.catalog, "rtree")
        assert isinstance(index, RTree)
        index.check_invariants()

    def test_unknown_kind_rejected(self, database):
        with pytest.raises(IndexError_, match="point index kind"):
            build_binary_histogram_index(database.catalog, "btree")


class TestEditedBoundsIndex:
    @pytest.mark.parametrize("kind", ["rtree", "linear"])
    def test_indexes_every_edited_image(self, database, kind):
        index = build_edited_bounds_index(database.catalog, database.engine, kind)
        assert isinstance(index, (RTree, LinearIndex))
        assert len(index) == database.catalog.edited_count

    @pytest.mark.parametrize("kind", ["rtree", "linear"])
    @pytest.mark.parametrize("pct_min", [0.0, 0.1, 0.4])
    def test_candidates_equal_rbm_acceptance(self, database, kind, pct_min):
        index = build_edited_bounds_index(database.catalog, database.engine, kind)
        for bin_index in (0, 1, database.quantizer.bin_count - 1):
            query = RangeQuery.at_least(bin_index, pct_min)
            candidates = edited_range_candidates(
                index, database.quantizer.bin_count, query
            )
            accepted = sorted(
                edited_id
                for edited_id in database.catalog.edited_ids()
                if database.engine.bounds(edited_id, bin_index).overlaps(
                    query.pct_min, query.pct_max
                )
            )
            assert candidates == accepted

    def test_vafile_rejected_for_intervals(self, database):
        with pytest.raises(IndexError_, match="interval index kind"):
            build_edited_bounds_index(database.catalog, database.engine, "vafile")

    def test_empty_catalog(self):
        db = MultimediaDatabase()
        assert len(build_binary_histogram_index(db.catalog, "rtree")) == 0
        assert len(build_edited_bounds_index(db.catalog, db.engine, "rtree")) == 0
        assert isinstance(
            build_binary_histogram_index(db.catalog, "vafile"), VAFile
        )


@pytest.fixture(scope="module")
def large_database():
    """320 edited images: enough for the interval R-tree to have levels."""
    rng = np.random.default_rng(44)
    db = MultimediaDatabase()
    for seed in range(80):
        base = db.insert_image(random_palette_image(rng, 8, 10, FLAG_PALETTE))
        db.augment(base, np.random.default_rng(seed), 4, FLAG_PALETTE)
    return db


class TestEditedBoundsIndexAtSize:
    def test_packed_tree_has_levels_and_valid_structure(self, large_database):
        assert large_database.catalog.edited_count >= 300
        index = build_edited_bounds_index(
            large_database.catalog, large_database.engine, "rtree"
        )
        assert isinstance(index, RTree)
        assert len(index) == large_database.catalog.edited_count
        assert index.height > 1
        index.check_invariants()

    def test_candidates_equal_linear_and_rbm_on_every_bin(self, large_database):
        db = large_database
        rtree = build_edited_bounds_index(db.catalog, db.engine, "rtree")
        linear = build_edited_bounds_index(db.catalog, db.engine, "linear")
        bins = db.quantizer.bin_count
        edited_ids = list(db.catalog.edited_ids())
        for bin_index in range(bins):
            bounds = [(i, db.engine.bounds(i, bin_index)) for i in edited_ids]
            for pct_min, pct_max in ((0.0, 0.05), (0.1, 0.3), (0.25, 1.0), (0.6, 0.9)):
                query = RangeQuery(bin_index, pct_min, pct_max)
                candidates = edited_range_candidates(rtree, bins, query)
                assert candidates == edited_range_candidates(linear, bins, query)
                accepted = sorted(
                    edited_id
                    for edited_id, pixel_bounds in bounds
                    if pixel_bounds.overlaps(pct_min, pct_max)
                )
                assert candidates == accepted

    def test_forced_index_assisted_matches_vectorized_batch(self, large_database):
        matched = 0
        with QueryService(large_database, max_workers=1) as service:
            for bin_index in range(large_database.quantizer.bin_count):
                query = RangeQuery.at_least(bin_index, 0.1)
                indexed = service.execute(query, strategy="index_assisted")
                service.cache.clear()
                swept = service.execute(query, strategy="vectorized_batch")
                service.cache.clear()
                assert indexed.strategy is Strategy.INDEX_ASSISTED
                assert indexed.result.matches == swept.result.matches
                matched += len(swept.result.matches)
        assert matched > 0
