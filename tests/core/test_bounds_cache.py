"""Dependency-aware memo cache: targeted invalidation, counters, staleness."""

import sys
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.color.histogram import ColorHistogram
from repro.color.names import FLAG_PALETTE
from repro.color.quantization import UniformQuantizer
from repro.core.bounds import BoundsEngine
from repro.core.bwm import BWMProcessor
from repro.core.query import RangeQuery
from repro.core.rbm import RBMProcessor
from repro.db.database import MultimediaDatabase
from repro.editing.operations import Combine, Define, Merge
from repro.editing.recipes import build_variant
from repro.editing.sequence import EditSequence
from repro.errors import RuleError, UnknownObjectError
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
        assert set(stats) == {
            "hits", "misses", "invalidation_calls", "invalidated_entries",
            "vector_entries", "exact_hits", "exact_fills",
        }
        assert stats["vector_entries"] == 5
        assert stats["misses"] == 5
        assert stats["invalidation_calls"] == 0
        # Bounds reads alone never touch the exact column.
        assert stats["exact_hits"] == stats["exact_fills"] == 0

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

    def test_row_filled_by_a_scalar_read_is_dirtied(self, engine):
        scalar = engine.bounds("e2", 0)  # fills e2's row by a one-id sweep
        # Only the requested id holds a row: e1 and b1 were swept as
        # references, and their edges b1 -> e1 -> e2 registered.
        assert engine.has_cached_bounds("e2")
        assert not engine.has_cached_bounds("e1")
        assert engine.cache_stats()["vector_entries"] == 1
        assert engine.invalidate("b1") == 1
        assert not engine.has_cached_bounds("e2")
        assert engine.bounds("e2", 0) == scalar  # refilled, same value

    def test_one_fill_serves_every_bin_of_a_row(self, engine, store):
        first = engine.bounds("e2", 1)
        rules, misses = engine.rules_applied, engine.cache_misses
        plain = BoundsEngine(store, Q2)
        for bin_index in range(Q2.bin_count):
            assert engine.bounds("e2", bin_index) == plain.bounds("e2", bin_index)
        assert engine.bounds("e2", 1) == first
        assert (engine.rules_applied, engine.cache_misses) == (rules, misses)
        assert engine.cache_stats()["vector_entries"] == 1
        # The row goes dirty with the base; the refill equals a cache-off answer.
        engine.invalidate("b1")
        assert engine.cache_stats()["vector_entries"] == 0
        assert not engine.has_cached_bounds("e2")
        assert engine.bounds("e2", 1) == plain.bounds("e2", 1)
        assert engine.cache_misses == misses + 1

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
        other_after = database.engine.bounds_all_bins(other)
        assert np.array_equal(other_after[0], other_before[0])
        assert other_after[2:] == other_before[2:]
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


class TestMemoRows:
    """The memo's own bookkeeping: capacity, reuse, nothing kept when off."""

    def _chain_store(self, count):
        store = DictStore()
        store.add_binary("b", Image.filled(4, 4, (0, 0, 0)))
        for index in range(count):
            store.add_edited(f"e{index}", EditSequence("b", (Combine.box(),)))
        return store, [f"e{index}" for index in range(count)]

    def test_memo_grows_past_its_first_capacity(self):
        store, ids = self._chain_store(150)  # first capacity is 64 rows
        engine = BoundsEngine(store, Q2, cache_enabled=True)
        first = engine.bounds_all_bins_batch(ids[:10])
        held = [np.array(first.lo), np.array(first.hi)]
        everything = engine.bounds_all_bins_batch(ids)  # grows twice
        assert engine.cache_stats()["vector_entries"] == 150
        assert (engine.cache_hits, engine.cache_misses) == (10, 150)
        # Growth swapped the storage; the rows it held moved with it.
        assert np.array_equal(everything.lo[:10], held[0])
        assert np.array_equal(everything.hi[:10], held[1])
        plain = BoundsEngine(store, Q2)
        for image_id in (ids[0], ids[70], ids[149]):
            assert engine.bounds(image_id, 0) == plain.bounds(image_id, 0)

    def test_released_rows_are_reused(self):
        store, ids = self._chain_store(8)
        engine = BoundsEngine(store, Q2, cache_enabled=True)
        rows = engine.memo_rows(ids)
        engine.bounds_of_rows(rows)
        epoch = engine.memo_epoch
        del store.records["e3"]
        assert engine.invalidate("e3") == 1
        assert engine.memo_epoch > epoch  # holders of rows must re-ask
        assert not engine.has_cached_bounds("e3")
        store.add_edited("fresh", EditSequence("b", (Combine.box(),)))
        assert engine.memo_rows(["fresh"])[0] == rows[3]
        assert not engine.has_cached_bounds("fresh")  # dirty until read
        engine.bounds_all_bins("fresh")
        assert engine.cache_stats()["vector_entries"] == 8
        # An id the store rejects pins no row either.
        with pytest.raises(UnknownObjectError):
            engine.bounds("nowhere", 0)
        assert len(engine.memo_rows(["again"])) == 1
        assert engine.memo_rows(["again"])[0] <= 8

    def test_an_uncached_engine_retains_nothing(self, rng):
        database = MultimediaDatabase()
        base = database.insert_image(random_palette_image(rng, 8, 8, FLAG_PALETTE))
        database.augment(base, rng, 6, FLAG_PALETTE, bound_widening_fraction=0.5)
        query = RangeQuery.at_least(0, 0.9)
        engine = database.engine
        for ask in (
            lambda: database.range_query(query, method="rbm"),
            lambda: database.range_query(query, method="bwm"),
            lambda: database.range_query_batch([query], method="rbm"),
            lambda: database.range_query_batch([query], method="bwm"),
            lambda: database.knn(database.catalog.histogram_of(base), 2),
        ):
            grew = []
            for _ in range(2):
                before = engine.rules_applied
                ask()
                grew.append(engine.rules_applied - before)
            assert grew[0] == grew[1] > 0
        assert engine.cache_stats()["vector_entries"] == 0
        assert (engine.cache_hits, engine.cache_misses) == (0, 0)
        with pytest.raises(RuleError, match="cache_enabled"):
            engine.memo_rows([base])


def _python_calls(function):
    """How many Python-level calls ``function()`` makes."""
    calls = [0]

    def count(frame, event, arg):
        if event == "call":
            calls[0] += 1

    sys.setprofile(count)
    try:
        function()
    finally:
        sys.setprofile(None)
    return calls[0]


_STEPS = ("insert", "derive", "derive", "update", "delete", "reinsert", "seed")


class TestCachedDatabaseIsTheUncachedOne:
    """Random mutation scripts on a memoizing database and an uncached
    twin: every read agrees after every step."""

    QUERIES = (RangeQuery.at_least(0, 0.2), RangeQuery(63, 0.0, 0.5))
    TEXT = "at least 10% red and at most 60% blue"

    def _derive(self, rng, plain):
        ids = list(plain.ids())
        base = ids[int(rng.integers(len(ids)))]
        shape = plain.bounds(base, 0)
        target = ids[int(rng.integers(len(ids)))]
        operations = build_variant(
            rng,
            shape.height,
            shape.width,
            FLAG_PALETTE,
            bound_widening=bool(rng.integers(2)),
            merge_target=target,
        )
        if rng.integers(3) == 0:
            operations = [Define(Rect(0, 0, 2, 3)), Merge(target, 1, 1)]
        return EditSequence(base, tuple(operations))

    def _apply(self, step, rng, cached, plain, counter):
        catalog = plain.catalog
        loose = [i for i in catalog.edited_ids() if not catalog.referrers(i)]
        if step == "insert" or not catalog.binary_count:
            image = random_palette_image(rng, 6, 8, FLAG_PALETTE)
            for database in (cached, plain):
                database.insert_image(image, image_id=f"b{counter}")
        elif step == "derive":
            sequence = self._derive(rng, plain)
            for database in (cached, plain):
                database.insert_edited(sequence, image_id=f"e{counter}")
        elif step == "update":
            binary = list(catalog.binary_ids())
            victim = binary[int(rng.integers(len(binary)))]
            image = random_palette_image(rng, 6, 8, FLAG_PALETTE)
            for database in (cached, plain):
                database.update_image(victim, image)
        elif step in ("delete", "reinsert") and loose:
            victim = loose[int(rng.integers(len(loose)))]
            for database in (cached, plain):
                database.delete_edited(victim)
            if step == "reinsert":
                sequence = self._derive(rng, plain)
                for database in (cached, plain):
                    database.insert_edited(sequence, image_id=victim)
        elif step == "seed" and catalog.edited_count:
            edited = list(catalog.edited_ids())
            image_id = edited[int(rng.integers(len(edited)))]
            # What a compactor roll-back and its next fill do: dirty the
            # row, then refill it with the one-id sweep a read runs.
            cached.engine.invalidate(image_id)
            cached.engine.bounds_all_bins_batch((image_id,))
            assert cached.engine.has_cached_bounds(image_id)

    def _agree(self, rng, cached, plain):
        scalar = {
            "bwm": BWMProcessor(cached.bwm_structure, cached.catalog, cached.engine),
            "rbm": RBMProcessor(cached.catalog, cached.engine),
        }
        for method in ("bwm", "rbm"):
            for query in self.QUERIES:
                expected = plain.range_query(query, method=method).matches
                assert cached.range_query(query, method=method).matches == expected
                warm = cached.range_query(query, method=method)
                assert warm.matches == expected
                # Warm, the column compare counts what the scalar walk counts.
                assert astuple(warm.stats) == astuple(
                    scalar[method].process(query).stats
                )
            batch = cached.range_query_batch(list(self.QUERIES), method=method)
            assert [r.matches for r in batch] == [
                r.matches
                for r in plain.range_query_batch(list(self.QUERIES), method=method)
            ]
            assert (
                cached.text_query(self.TEXT, method=method).matches
                == plain.text_query(self.TEXT, method=method).matches
            )
        probe = plain.catalog.histogram_of(next(iter(plain.catalog.binary_ids())))
        exact = plain.knn(probe, 3, method="exact").neighbors
        assert repr(cached.knn(probe, 3).neighbors) == repr(exact)
        assert repr(cached.knn(probe, 3, method="intersection").neighbors) == repr(
            plain.knn(probe, 3, method="intersection").neighbors
        )
        ids = list(plain.ids())
        for _ in range(4):
            image_id = ids[int(rng.integers(len(ids)))]
            bin_index = int(rng.integers(64))
            assert cached.bounds(image_id, bin_index) == plain.bounds(
                image_id, bin_index
            )
        # Every learned dependency edge holds against the live catalog:
        # the dependent is a stored edited image whose sequence references
        # ``referenced``, and ``referenced`` is stored.
        catalog = cached.catalog
        edited = set(catalog.edited_ids())
        for referenced, dependent in cached.engine.dependency_edges():
            assert dependent in edited
            assert referenced in catalog.sequence_of(dependent).referenced_ids()
            assert catalog.contains(referenced)

    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.lists(st.sampled_from(_STEPS), min_size=1, max_size=10),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_read_agrees_after_every_step(self, seed, steps):
        rng = np.random.default_rng(seed)
        cached, plain = MultimediaDatabase(bounds_cache=True), MultimediaDatabase()
        for counter, step in enumerate(["insert", "derive"] + steps):
            self._apply(step, rng, cached, plain, counter)
            self._agree(rng, cached, plain)

    def test_a_warm_query_runs_no_python_per_image(self, rng):
        database = MultimediaDatabase(bounds_cache=True)
        bases = [
            database.insert_image(random_palette_image(rng, 6, 8, FLAG_PALETTE))
            for _ in range(60)
        ]
        for base in bases:
            database.augment(
                base, rng, 3, FLAG_PALETTE,
                bound_widening_fraction=0.67, merge_target_pool=bases,
            )
        assert len(database) == 240
        # Cold, the counter does see per-image work (a store lookup each).
        cold = lambda: database.range_query(self.QUERIES[0], method="rbm")  # noqa: E731
        assert _python_calls(cold) > len(database)
        for method in ("rbm", "bwm"):
            for query in self.QUERIES:
                ask = lambda: database.range_query(query, method=method)  # noqa: E731
                ask()
                assert _python_calls(ask) < 80  # warm: a column compare


class TestRowsOutliveInPlaceChanges:
    """A memo row changes owner only when its image leaves the store."""

    def test_update_dirties_and_keeps_the_row(self, rng):
        database = MultimediaDatabase(bounds_cache=True)
        base = database.insert_image(random_palette_image(rng, 8, 8, FLAG_PALETTE))
        edited = database.augment(base, rng, 3, FLAG_PALETTE)
        engine = database.engine
        rows = engine.memo_rows([base] + edited)
        engine.bounds_of_rows(rows)
        owners, epoch = engine.owner_epoch, engine.memo_epoch
        database.update_image(base, random_palette_image(rng, 8, 8, FLAG_PALETTE))
        assert engine.memo_epoch > epoch  # exact-column refinements restart
        assert engine.owner_epoch == owners  # ...but every row keeps its image
        assert np.array_equal(engine.memo_rows([base] + edited), rows)
        assert not any(engine.has_cached_bounds(i) for i in [base] + edited)
        plain = BoundsEngine(database.catalog, database.quantizer)
        for image_id in [base] + edited:
            assert engine.bounds(image_id, 5) == plain.bounds(image_id, 5)
        # A compactor fill and its roll-back keep the row too.
        engine.bounds_all_bins_batch((edited[0],))
        assert engine.has_cached_bounds(edited[0])
        engine.invalidate(edited[0])
        assert engine.owner_epoch == owners
        database.delete_edited(edited[2])
        assert engine.owner_epoch == owners + 1
        assert edited[2] not in engine._row_of


def _oracle_edges(engine, image_id):
    """What invalidating ``image_id`` leaves of the graph, by the full
    scan: the walk from it over the reverse edges drops every edge whose
    either end it reached."""
    edges = engine.dependency_edges()
    reached = {image_id}
    stack = [image_id]
    while stack:
        current = stack.pop()
        for referenced, dependent in edges:
            if referenced == current and dependent not in reached:
                reached.add(dependent)
                stack.append(dependent)
    return [(r, d) for r, d in edges if r not in reached and d not in reached]


class TestTargetedScrubIsTheFullScan:
    @pytest.mark.parametrize("seed", [3, 17, 48])
    def test_edges_after_seeded_churn(self, seed):
        rng = np.random.default_rng(seed)
        database = MultimediaDatabase(bounds_cache=True)
        engine = database.engine
        bases = [
            database.insert_image(random_palette_image(rng, 6, 8, FLAG_PALETTE))
            for _ in range(4)
        ]
        edited = []
        checked = 0
        for step in range(60):
            catalog = database.catalog
            loose = [i for i in edited if not catalog.referrers(i)]
            ids = bases + edited
            kind = int(rng.integers(5))
            if kind <= 1 or not loose:
                base = ids[int(rng.integers(len(ids)))]
                target = ids[int(rng.integers(len(ids)))]
                shape = engine.bounds(base, 0)
                sequence = EditSequence(
                    base,
                    (Define(Rect(0, 0, shape.height, shape.width)), Combine.box())
                    if kind == 0
                    else (Define(Rect(0, 0, 2, 3)), Merge(target, 1, 1)),
                )
                image_id = f"e{step}"
                database.insert_edited(sequence, image_id)
                edited.append(image_id)
                changed = image_id
            elif kind == 2:
                changed = loose[int(rng.integers(len(loose)))]
                expected = _oracle_edges(engine, changed)
                database.delete_edited(changed)
                edited.remove(changed)
            else:
                changed = bases[int(rng.integers(len(bases)))]
                expected = _oracle_edges(engine, changed)
                database.update_image(
                    changed, random_palette_image(rng, 6, 8, FLAG_PALETTE)
                )
            if kind >= 2:
                assert engine.dependency_edges() == expected, (seed, step)
                checked += 1
            # Refill a random part of the memo, registering edges again.
            live = bases + edited
            picks = rng.choice(len(live), size=min(len(live), 6), replace=False)
            engine.bounds_all_bins_batch([live[int(i)] for i in picks])
        assert checked > 20
        assert engine.dependency_edges()


class TestRBMLayoutFollowsMembership:
    """The RBM processor keeps no clusters, so only the structure's
    version tells it that an image came or went."""

    QUERY = RangeQuery(0, 0.0, 1.0)  # every stored image matches

    def test_rbm_after_every_kind_of_change(self, rng):
        cached, plain = MultimediaDatabase(bounds_cache=True), MultimediaDatabase()
        both = (cached, plain)
        for database in both:
            for index in range(3):
                image = random_palette_image(
                    np.random.default_rng(index), 6, 8, FLAG_PALETTE
                )
                database.insert_image(image, f"b{index}")
            database.insert_edited(EditSequence("b0", (Combine.box(),)), "e0")

        def agree():
            for method in ("rbm", "bwm"):
                expected = plain.range_query(self.QUERY, method=method).matches
                assert cached.range_query(self.QUERY, method=method).matches == expected
            assert cached.range_query(self.QUERY, method="rbm").matches == set(
                plain.ids()
            )

        agree()
        for database in both:
            database.insert_edited(EditSequence("b1", (Combine.box(),)), "e1")
        agree()
        for database in both:
            database.delete_edited("e0")
        agree()
        image = random_palette_image(rng, 6, 8, FLAG_PALETTE)
        for database in both:
            database.update_image("b2", image)
        agree()
        with pytest.raises(UnknownObjectError):
            cached.engine.bounds("ghost", 0)  # a failed fill releases its row
        for database in both:
            database.insert_edited(EditSequence("b2", (Combine.box(),)), "e2")
        agree()
        cached.engine.invalidate_cache()
        agree()
        for database in both:
            database.insert_image(image, "b3")
        agree()
