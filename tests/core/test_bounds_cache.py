"""Dependency-aware memo cache: targeted invalidation, counters, staleness."""

import numpy as np
import pytest

from repro.color.histogram import ColorHistogram
from repro.color.names import FLAG_PALETTE
from repro.color.quantization import UniformQuantizer
from repro.core.bounds import BoundsEngine
from repro.core.query import RangeQuery
from repro.db.database import MultimediaDatabase
from repro.editing.operations import Combine, Define, Merge
from repro.editing.sequence import EditSequence
from repro.errors import UnknownObjectError
from repro.images.generators import random_palette_image
from repro.images.geometry import Rect
from repro.images.raster import Image

Q2 = UniformQuantizer(2, "rgb")


class DictStore:
    def __init__(self):
        self.records = {}

    def add_binary(self, image_id, image):
        histogram = ColorHistogram.of_image(image, Q2)
        self.records[image_id] = (histogram, image.height, image.width)

    def add_edited(self, image_id, sequence):
        self.records[image_id] = sequence

    def lookup_for_bounds(self, image_id):
        if image_id not in self.records:
            raise UnknownObjectError(image_id)
        return self.records[image_id]


@pytest.fixture
def store():
    s = DictStore()
    s.add_binary("b1", Image.filled(4, 4, (0, 0, 0)))
    s.add_binary("b2", Image.filled(4, 4, (255, 255, 255)))
    # e1 <- b1; e2 <- e1 (chained); m <- b2 but Merges e1 (cross edge).
    s.add_edited("e1", EditSequence("b1", (Combine.box(),)))
    s.add_edited("e2", EditSequence("e1", (Combine.box(),)))
    s.add_edited(
        "m",
        EditSequence(
            "b2", (Define(Rect(0, 0, 2, 2)), Combine.box(), Merge("e1", 0, 0))
        ),
    )
    return s


@pytest.fixture
def engine(store):
    return BoundsEngine(store, Q2, cache_enabled=True)


def warm(engine):
    for image_id in ("b1", "b2", "e1", "e2", "m"):
        engine.bounds_all_bins(image_id)


class TestCounters:
    def test_miss_then_hit(self, engine):
        engine.bounds_all_bins("e1")
        assert (engine.cache_hits, engine.cache_misses) == (0, 1)
        engine.bounds_all_bins("e1")
        assert (engine.cache_hits, engine.cache_misses) == (1, 1)

    def test_scalar_bounds_served_from_vector_cache(self, engine):
        engine.bounds_all_bins("e1")
        vec = engine.bounds_all_bins("e1")
        scalar = engine.bounds("e1", 1)
        assert engine.cache_hits == 2
        assert (scalar.lo, scalar.hi) == (int(vec[0][1]), int(vec[1][1]))

    def test_cache_stats_shape(self, engine):
        warm(engine)
        stats = engine.cache_stats()
        assert stats["vector_entries"] == 5
        assert stats["misses"] == 5
        assert stats["invalidation_calls"] == 0

    def test_disabled_cache_counts_nothing(self, store):
        engine = BoundsEngine(store, Q2, cache_enabled=False)
        engine.bounds_all_bins("e1")
        engine.bounds_all_bins("e1")
        assert engine.cache_hits == 0 and engine.cache_misses == 0


class TestTargetedInvalidation:
    def test_unrelated_image_survives(self, engine):
        warm(engine)
        # b2 feeds only m; b1's chain must survive.
        dropped = engine.invalidate("b2")
        assert dropped == 2  # b2 itself and m
        hits_before = engine.cache_hits
        engine.bounds_all_bins("e1")
        engine.bounds_all_bins("e2")
        assert engine.cache_hits == hits_before + 2

    def test_chain_and_merge_edges_are_transitive(self, engine):
        warm(engine)
        # b1 -> e1 -> e2 and e1 -> m (Merge target edge).
        dropped = engine.invalidate("b1")
        assert dropped == 4  # b1, e1, e2, m
        assert engine.cache_stats()["vector_entries"] == 1  # only b2 left

    def test_midchain_invalidation_spares_the_base(self, engine):
        warm(engine)
        dropped = engine.invalidate("e1")
        assert dropped == 3  # e1, e2, m — not b1, not b2
        hits_before = engine.cache_hits
        engine.bounds_all_bins("b1")
        engine.bounds_all_bins("b2")
        assert engine.cache_hits == hits_before + 2

    def test_leaf_invalidation_drops_only_leaf(self, engine):
        warm(engine)
        assert engine.invalidate("e2") == 1
        assert engine.cache_stats()["vector_entries"] == 4

    def test_counters_accumulate(self, engine):
        warm(engine)
        engine.invalidate("e2")
        engine.invalidate("unknown-id")
        assert engine.cache_invalidation_calls == 2
        assert engine.cache_invalidated_entries == 1

    def test_scalar_entries_dropped_too(self, engine):
        scalar = engine.bounds("e2", 0)  # scalar memo via scalar walk path
        # Force a scalar cache entry for an image with no vec entry: e2's
        # walk registered deps b1 -> e1 -> e2 along the way.
        dropped = engine.invalidate("b1")
        assert dropped >= 1
        assert engine.bounds("e2", 0) == scalar  # recomputed, same value

    def test_bin_read_through_the_all_bins_memo_is_promoted(self, engine, store):
        engine.bounds_all_bins_batch(["e2"])
        before = engine.cache_stats()["scalar_entries"]
        first = engine.bounds("e2", 1)
        assert engine.bounds("e2", 1) is first
        assert engine.cache_stats()["scalar_entries"] == before + 1
        # Both tiers go with the base; the re-walk equals a cache-off answer.
        engine.invalidate("b1")
        assert engine.cache_stats()["scalar_entries"] == before
        assert not engine.has_cached_bounds("e2")
        assert engine.bounds("e2", 1) == BoundsEngine(store, Q2).bounds("e2", 1)

    def test_whole_cache_flush_still_available(self, engine):
        warm(engine)
        engine.invalidate_cache()
        stats = engine.cache_stats()
        assert stats["vector_entries"] == 0
        assert stats["invalidated_entries"] == 5


class TestDatabaseNeverServesStaleBounds:
    def test_update_image_refreshes_dependent_bounds(self, rng):
        database = MultimediaDatabase(bounds_cache=True)
        base = database.insert_image(Image.filled(4, 4, (0, 0, 0)))
        other = database.insert_image(Image.filled(4, 4, (255, 255, 255)))
        edited = database.insert_edited(
            EditSequence(base, (Define(Rect(0, 0, 2, 2)), Combine.box()))
        )
        before = database.engine.bounds_all_bins(edited)
        other_before = database.engine.bounds_all_bins(other)

        database.update_image(base, Image.filled(4, 4, (250, 250, 250)))
        after = database.engine.bounds_all_bins(edited)
        assert not (
            np.array_equal(before[0], after[0])
            and np.array_equal(before[1], after[1])
        )
        # Fresh engine agrees: nothing stale survived the update.
        fresh = BoundsEngine(database.catalog, database.quantizer)
        expected = fresh.bounds_all_bins(edited)
        assert np.array_equal(after[0], expected[0])
        assert np.array_equal(after[1], expected[1])
        # The unrelated image's entry was untouched (still a cache hit).
        hits = database.engine.cache_hits
        assert database.engine.bounds_all_bins(other) is other_before
        assert database.engine.cache_hits == hits + 1

    def test_delete_and_reinsert_edited_chain(self, rng):
        database = MultimediaDatabase(bounds_cache=True)
        base = database.insert_image(
            random_palette_image(rng, 6, 6, FLAG_PALETTE)
        )
        e1 = database.insert_edited(EditSequence(base, (Combine.box(),)))
        e2 = database.insert_edited(EditSequence(e1, (Combine.box(),)))
        database.engine.bounds_all_bins(e2)
        database.delete_edited(e2)
        e2b = database.insert_edited(
            EditSequence(e1, (Define(Rect(0, 0, 3, 3)), Combine.box())),
            image_id=e2,
        )
        fresh = BoundsEngine(database.catalog, database.quantizer)
        got = database.engine.bounds_all_bins(e2b)
        expected = fresh.bounds_all_bins(e2b)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])

    def test_range_queries_match_uncached_database(self, rng):
        cached = MultimediaDatabase(bounds_cache=True)
        plain = MultimediaDatabase()
        for seed in range(3):
            image = random_palette_image(rng, 8, 8, FLAG_PALETTE)
            bid = cached.insert_image(image, image_id=f"b{seed}")
            plain.insert_image(image, image_id=f"b{seed}")
            cached.augment(bid, np.random.default_rng(seed), 2, FLAG_PALETTE)
            for edited_id in cached.edited_versions_of(bid):
                plain.insert_edited(
                    cached.catalog.sequence_of(edited_id), image_id=edited_id
                )
        query = RangeQuery.at_least(0, 0.1)
        for method in ("rbm", "bwm"):
            assert (
                cached.range_query(query, method=method).matches
                == plain.range_query(query, method=method).matches
            )
        # Mutate the catalog, then re-check: the cache must track it.
        cached.delete_edited(next(iter(cached.catalog.edited_ids())))
        plain.delete_edited(next(iter(plain.catalog.edited_ids())))
        assert (
            cached.range_query(query, method="rbm").matches
            == plain.range_query(query, method="rbm").matches
        )
