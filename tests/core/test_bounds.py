"""Unit tests for the BOUNDS engine (stores, recursion, errors)."""

import numpy as np
import pytest

from repro.color.histogram import ColorHistogram
from repro.color.names import FLAG_PALETTE
from repro.color.quantization import UniformQuantizer
from repro.core.bounds import BoundsEngine, PixelBounds
from repro.db.database import MultimediaDatabase
from repro.editing.operations import Combine, Define, Merge, Modify
from repro.editing.sequence import EditSequence
from repro.errors import RuleError, UnknownObjectError
from repro.images.generators import random_palette_image
from repro.images.geometry import Rect
from repro.images.raster import Image
from repro.workloads.queries import make_query_workload

Q2 = UniformQuantizer(2, "rgb")


class DictStore:
    """Minimal BoundsStore over a dict for isolated engine tests."""

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
    s.add_binary("base", Image.filled(4, 6, (0, 0, 0)))
    s.add_binary("target", Image.filled(3, 3, (255, 255, 255)))
    return s


@pytest.fixture
def engine(store):
    return BoundsEngine(store, Q2)


class TestPixelBounds:
    def test_exact(self):
        bounds = PixelBounds.exact(5, 4, 6)
        assert bounds.lo == bounds.hi == 5
        assert bounds.total == 24
        assert bounds.fraction_lo == bounds.fraction_hi == pytest.approx(5 / 24)

    def test_overlaps(self):
        bounds = PixelBounds(6, 12, 4, 6)  # fractions [0.25, 0.5]
        assert bounds.overlaps(0.4, 0.9)
        assert bounds.overlaps(0.0, 0.25)
        assert bounds.overlaps(0.5, 1.0)
        assert not bounds.overlaps(0.51, 1.0)
        assert not bounds.overlaps(0.0, 0.24)

    def test_overlaps_rejects_empty_range(self):
        with pytest.raises(RuleError):
            PixelBounds(0, 1, 1, 2).overlaps(0.9, 0.1)

    def test_contains_fraction(self):
        bounds = PixelBounds(6, 12, 4, 6)
        assert bounds.contains_fraction(0.3)
        assert bounds.contains_fraction(0.25)
        assert not bounds.contains_fraction(0.6)


class TestEngineBasics:
    def test_binary_bounds_are_exact(self, engine):
        bounds = engine.bounds("base", 0)
        assert bounds.lo == bounds.hi == 24
        bounds = engine.bounds("target", 0)
        assert bounds.lo == bounds.hi == 0

    def test_edited_bounds_walk_rules(self, engine, store):
        store.add_edited(
            "e1",
            EditSequence("base", (Define(Rect(0, 0, 2, 2)), Combine.box())),
        )
        bounds = engine.bounds("e1", 0)
        assert (bounds.lo, bounds.hi) == (20, 24)
        assert engine.rules_applied == 2

    def test_unknown_id_raises(self, engine):
        with pytest.raises(UnknownObjectError):
            engine.bounds("ghost", 0)

    def test_invalid_bin_raises(self, engine):
        from repro.errors import ColorError

        with pytest.raises(ColorError):
            engine.bounds("base", 99)

    def test_fraction_bounds_helper(self, engine, store):
        store.add_edited("e1", EditSequence("base", (Combine.box(),)))
        bounds = engine.bounds("e1", 0)
        assert (bounds.fraction_lo, bounds.fraction_hi) == (0.0, 1.0)

    def test_sequence_bounds_ad_hoc(self, engine):
        seq = EditSequence("base", (Define(Rect(0, 0, 1, 1)), Merge(None)))
        bounds = engine.sequence_bounds(seq, 0)
        assert (bounds.height, bounds.width) == (1, 1)
        assert (bounds.lo, bounds.hi) == (1, 1)

    def test_rules_applied_counter_accumulates(self, engine, store):
        store.add_edited("e1", EditSequence("base", (Combine.box(), Combine.box())))
        engine.bounds("e1", 0)
        engine.bounds("e1", 1)
        assert engine.rules_applied == 4


class TestMergeResolution:
    def test_merge_onto_binary_target(self, engine, store):
        store.add_edited("e1", EditSequence("base", (Merge("target", 0, 0),)))
        bounds = engine.bounds("e1", 7)  # bin of white
        # 4x6 black DR pasted over 3x3 white target at origin: canvas 4x6,
        # the target is fully covered, zero white pixels remain.
        assert (bounds.height, bounds.width) == (4, 6)
        assert (bounds.lo, bounds.hi) == (0, 0)

    def test_merge_onto_edited_target_recurses(self, engine, store):
        store.add_edited("mid", EditSequence("target", (Combine.box(),)))
        store.add_edited("top", EditSequence("base", (Merge("mid", 0, 10),)))
        bounds = engine.bounds("top", 7)
        # mid is a blurred 3x3 white image: white count in [0, 9]; pasted
        # disjointly (y=10), everything stays visible.
        assert (bounds.height, bounds.width) == (4, 16)
        assert bounds.lo == 0
        assert bounds.hi == 9

    def test_cycle_detection(self, store):
        # a references b which references a (malformed catalog).
        store.add_edited("a", EditSequence("b", ()))
        store.add_edited("b", EditSequence("a", ()))
        engine = BoundsEngine(store, Q2)
        with pytest.raises(RuleError):
            engine.bounds("a", 0)

    def test_depth_limit(self, store):
        previous = "base"
        for index in range(12):
            name = f"chain-{index}"
            store.add_edited(name, EditSequence(previous, (Combine.box(),)))
            previous = name
        engine = BoundsEngine(store, Q2, max_depth=4)
        with pytest.raises(RuleError):
            engine.bounds(previous, 0)

    def test_chained_base_starts_from_interval(self, engine, store):
        store.add_edited("mid", EditSequence("base", (Combine.box(),)))
        store.add_edited("top", EditSequence("mid", ()))
        bounds = engine.bounds("top", 0)
        assert (bounds.lo, bounds.hi) == (0, 24)

    def test_bad_max_depth_rejected(self, store):
        with pytest.raises(RuleError):
            BoundsEngine(store, Q2, max_depth=0)


class TestOneIdAllBins:
    """``bounds_all_bins`` / ``fraction_bounds_all_bins_batch`` against the
    scalar walk (more corpora in ``tests/core/test_optable.py``)."""

    def test_merge_onto_edited_target_matches_scalar(self, engine, store):
        store.add_edited("mid", EditSequence("target", (Combine.box(),)))
        store.add_edited("top", EditSequence("base", (Merge("mid", 0, 10),)))
        lo, hi, height, width = engine.bounds_all_bins("top")
        for bin_index in range(Q2.bin_count):
            scalar = engine.bounds("top", bin_index)
            assert (scalar.lo, scalar.hi, scalar.height, scalar.width) == (
                int(lo[bin_index]), int(hi[bin_index]), height, width
            )

    def test_fractions_divide_like_pixel_bounds(self, engine, store):
        store.add_edited(
            "e1", EditSequence("base", (Define(Rect(0, 0, 2, 3)), Combine.box()))
        )
        lower, upper = engine.fraction_bounds_all_bins_batch(("e1",))[0]
        for bin_index in range(Q2.bin_count):
            scalar = engine.bounds("e1", bin_index)
            assert lower[bin_index] == scalar.fraction_lo  # bitwise, not approx
            assert upper[bin_index] == scalar.fraction_hi

    def test_outputs_are_read_only_cached_or_not(self, store):
        store.add_edited("e1", EditSequence("base", (Combine.box(),)))
        for cache_enabled in (False, True):
            engine = BoundsEngine(store, Q2, cache_enabled=cache_enabled)
            for image_id in ("base", "e1", "e1"):
                lo, hi, _, _ = engine.bounds_all_bins(image_id)
                with pytest.raises(ValueError):
                    lo[0] = 1
                with pytest.raises(ValueError):
                    hi[0] = 1


class TestWalkStates:
    """The per-operation replay behind prune attribution."""

    @pytest.fixture
    def chained(self, store):
        store.add_edited(
            "mid", EditSequence("target", (Define(Rect(0, 0, 2, 2)), Combine.box()))
        )
        store.add_edited(
            "top",
            EditSequence(
                "mid",
                (
                    Define(Rect(0, 0, 2, 3)),
                    Combine.box(),
                    Merge("mid", 1, 1),
                    Define(Rect(1, 1, 3, 3)),
                    Merge(None),
                ),
            ),
        )
        return store

    @pytest.mark.parametrize("cache_enabled", [False, True])
    def test_last_state_is_bounds_all_bins(self, chained, cache_enabled):
        engine = BoundsEngine(chained, Q2, cache_enabled=cache_enabled)
        sequence, states = engine.walk_states("top")
        assert len(states) == len(sequence.operations) + 1
        lo, hi, height, width = engine.bounds_all_bins("top")
        assert states[-1][0].tobytes() == lo.tobytes()
        assert states[-1][1].tobytes() == hi.tobytes()
        assert states[-1][2:] == (height, width)

    def test_every_state_matches_a_scalar_prefix_walk(self, chained):
        engine = BoundsEngine(chained, Q2)
        sequence, states = engine.walk_states("top")
        for applied, (lo, hi, height, width) in enumerate(states):
            prefix = EditSequence(sequence.base_id, sequence.operations[:applied])
            for bin_index in range(Q2.bin_count):
                scalar = engine.sequence_bounds(prefix, bin_index)
                assert (scalar.lo, scalar.hi, scalar.height, scalar.width) == (
                    int(lo[bin_index]), int(hi[bin_index]), height, width
                ), (applied, bin_index)

    def test_replay_adds_nothing_to_rules_applied(self, chained, store):
        # Binary base, no edited target: nothing but the replay runs.
        store.add_edited("flat", EditSequence("base", (Combine.box(),) * 3))
        engine = BoundsEngine(chained, Q2)
        engine.walk_states("flat")
        assert engine.rules_applied == 0
        # Edited base and target: resolving them is real, memoizable work
        # (counted once); the replay of the outer sequence is not.
        cached = BoundsEngine(chained, Q2, cache_enabled=True)
        cached.bounds_all_bins("mid")
        before = cached.rules_applied
        assert before == 2
        cached.walk_states("top")
        assert cached.rules_applied == before

    def test_rule_errors_surface_like_the_scalar_walk(self, store):
        store.add_edited(
            "bad", EditSequence("base", (Define(Rect(9, 9, 12, 12)), Merge(None)))
        )
        engine = BoundsEngine(store, Q2)
        with pytest.raises(RuleError) as scalar_err:
            engine.bounds("bad", 0)
        with pytest.raises(RuleError) as replay_err:
            engine.walk_states("bad")
        assert str(replay_err.value) == str(scalar_err.value)

    def test_binary_image_rejected(self, engine):
        with pytest.raises(RuleError, match="binary"):
            engine.walk_states("base")


class TestOpTableManagerLifecycle:
    """One manager, one invalidation listener, however sweeps race."""

    def test_concurrent_first_sweeps_share_one_manager(self, store, monkeypatch):
        import threading
        import time

        import repro.core.bounds as bounds_module

        built = []

        class SlowManager(bounds_module.OpTableManager):
            def __init__(self, *args, **kwargs):
                built.append(self)
                time.sleep(0.05)  # widen any check-then-create window
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(bounds_module, "OpTableManager", SlowManager)
        store.add_edited("e1", EditSequence("base", (Combine.box(),)))
        engine = BoundsEngine(store, Q2)
        barrier = threading.Barrier(2, timeout=5)
        seen = []

        def first_sweep():
            barrier.wait()
            engine.bounds_all_bins_batch(["e1"])
            seen.append(engine.optable_manager)

        threads = [threading.Thread(target=first_sweep) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(seen) == 2 and seen[0] is seen[1]
        assert len(built) == 1
        listeners = [
            callback
            for callback in engine._invalidation_listeners
            if getattr(callback, "__self__", None) in built
        ]
        assert listeners == [engine.optable_manager.on_invalidation]


def _walk_length(catalog, image_id):
    """Rules one scalar walk of ``image_id`` applies.

    Its own operations plus, recursively, the walks of the edited base
    and of every edited Merge target (once per Merge naming it).
    """
    if catalog.is_binary(image_id):
        return 0
    sequence = catalog.sequence_of(image_id)
    return (
        len(sequence.operations)
        + _walk_length(catalog, sequence.base_id)
        + sum(_walk_length(catalog, target) for target in sequence.merge_targets())
    )


class TestRuleCounts:
    """The work metric counts every rule the scalar walk applies."""

    @pytest.fixture(params=[7, 2006])
    def database(self, request):
        """A seeded augmented database, memo off, with chained edits."""
        rng = np.random.default_rng(request.param)
        database = MultimediaDatabase()
        base_ids = [
            database.insert_image(random_palette_image(rng, 12, 16, FLAG_PALETTE))
            for _ in range(4)
        ]
        for base_id in base_ids:
            database.augment(
                base_id, rng, variants=4, palette=FLAG_PALETTE,
                merge_target_pool=base_ids,
            )
        edited = next(iter(database.catalog.edited_ids()))
        # One edit of an edited image, and one Merge onto an edited image:
        # both walks recurse into ``edited``'s own walk.
        database.insert_edited(
            EditSequence(
                edited,
                (Define(Rect(0, 0, 6, 6)), Modify(FLAG_PALETTE[0], FLAG_PALETTE[1])),
            )
        )
        database.insert_edited(
            EditSequence(
                base_ids[1], (Define(Rect(2, 2, 8, 9)), Merge(edited, 1, 3))
            )
        )
        assert not database.engine.cache_enabled
        return database

    def test_rbm_and_bwm_count_every_walked_rule(self, database):
        catalog = database.catalog
        walks = {i: _walk_length(catalog, i) for i in catalog.edited_ids()}
        total = sum(walks.values())
        queries = make_query_workload(database, np.random.default_rng(1), 8)
        for query in queries:
            before = database.engine.rules_applied
            rbm = database.range_query(query, method="rbm")
            assert rbm.stats.rules_applied == database.engine.rules_applied - before
            assert rbm.stats.rules_applied == total

            skipped = sum(
                walks[member]
                for base_id, cluster in database.bwm_structure.clusters()
                if query.matches_histogram(catalog.histogram_of(base_id))
                for member in cluster
            )
            before = database.engine.rules_applied
            bwm = database.range_query(query, method="bwm")
            assert bwm.stats.rules_applied == database.engine.rules_applied - before
            assert bwm.stats.rules_applied == total - skipped
