"""The one-id all-bins surface (``BoundsEngine.bounds_all_bins``) vs the
scalar oracle, bin by bin.

``bounds_all_bins(id)`` is the columnar sweep for a single id; every
check here holds it to the paper's scalar walk ``bounds(id, bin)`` —
counts, dimensions, fractions, error type and message.  (The module and
test names date from the per-image vector kernel this surface used to
run on; they are kept because the test-floor list pins these ids.)
"""

import numpy as np
import pytest

from repro.color.histogram import ColorHistogram
from repro.color.names import FLAG_PALETTE
from repro.color.quantization import UniformQuantizer
from repro.core.bounds import BoundsEngine
from repro.editing.operations import Combine, Define, Merge, Modify
from repro.editing.random_edits import random_sequence
from repro.editing.sequence import EditSequence
from repro.errors import RuleError, UnknownObjectError
from repro.images.generators import random_palette_image
from repro.images.geometry import Rect
from repro.images.raster import Image


class DictStore:
    """Minimal BoundsStore over a dict for isolated engine tests."""

    def __init__(self, quantizer):
        self.quantizer = quantizer
        self.records = {}

    def add_binary(self, image_id, image):
        histogram = ColorHistogram.of_image(image, self.quantizer)
        self.records[image_id] = (histogram, image.height, image.width)

    def add_edited(self, image_id, sequence):
        self.records[image_id] = sequence

    def lookup_for_bounds(self, image_id):
        if image_id not in self.records:
            raise UnknownObjectError(image_id)
        return self.records[image_id]


def assert_all_bins_match_scalar(engine, image_id):
    """Every bin of the all-bins matrix equals the scalar walk exactly."""
    lo, hi, height, width = engine.bounds_all_bins(image_id)
    assert lo.dtype == np.int64 and hi.dtype == np.int64
    for bin_index in range(engine.quantizer.bin_count):
        scalar = engine.bounds(image_id, bin_index)
        assert scalar.height == height and scalar.width == width
        assert (scalar.lo, scalar.hi) == (int(lo[bin_index]), int(hi[bin_index])), (
            f"{image_id} bin {bin_index}"
        )


class TestRandomSequenceParity:
    @pytest.mark.parametrize("divisions", [2, 3])
    @pytest.mark.parametrize("seed", range(12))
    def test_vec_matches_scalar_on_random_sequences(self, divisions, seed):
        rng = np.random.default_rng(900 + seed)
        quantizer = UniformQuantizer(divisions, "rgb")
        store = DictStore(quantizer)
        base = random_palette_image(rng, 9, 11, FLAG_PALETTE)
        target = random_palette_image(rng, 5, 7, FLAG_PALETTE)
        store.add_binary("base", base)
        store.add_binary("target", target)
        colors = [tuple(int(v) for v in c) for c in FLAG_PALETTE]

        for case in range(6):
            sequence = random_sequence(
                rng,
                "base",
                9,
                11,
                colors,
                merge_targets={"target": (5, 7)},
            )
            store.add_edited(f"e{case}", sequence)
        engine = BoundsEngine(store, quantizer)
        for case in range(6):
            assert_all_bins_match_scalar(engine, f"e{case}")

    def test_chained_bases_and_edited_merge_targets(self, rng):
        quantizer = UniformQuantizer(2, "rgb")
        store = DictStore(quantizer)
        store.add_binary("base", random_palette_image(rng, 8, 8, FLAG_PALETTE))
        store.add_binary("t", random_palette_image(rng, 4, 4, FLAG_PALETTE))
        colors = [tuple(int(v) for v in c) for c in FLAG_PALETTE]
        # e1 derives from base; e2 chains on e1 and Merges edited e1 back in.
        store.add_edited(
            "e1", random_sequence(rng, "base", 8, 8, colors, merge_targets={"t": (4, 4)})
        )
        e1 = BoundsEngine(store, quantizer).bounds("e1", 0)
        e1_h, e1_w = e1.height, e1.width
        store.add_edited(
            "e2",
            EditSequence(
                "e1",
                (
                    Define(Rect(0, 0, max(1, e1_h // 2), max(1, e1_w // 2))),
                    Combine.box(),
                    Merge("e1", 1, 1),
                    Modify(colors[0], colors[1]),
                ),
            ),
        )
        engine = BoundsEngine(store, quantizer)
        assert_all_bins_match_scalar(engine, "e1")
        assert_all_bins_match_scalar(engine, "e2")

    def test_binary_image_all_bins_are_exact(self, rng):
        quantizer = UniformQuantizer(2, "rgb")
        store = DictStore(quantizer)
        image = random_palette_image(rng, 6, 6, FLAG_PALETTE)
        store.add_binary("b", image)
        engine = BoundsEngine(store, quantizer)
        lo, hi, height, width = engine.bounds_all_bins("b")
        histogram = ColorHistogram.of_image(image, quantizer)
        assert (lo == histogram.counts).all() and (hi == histogram.counts).all()
        assert (height, width) == (6, 6)


class TestErrorParity:
    def _engines_store(self):
        quantizer = UniformQuantizer(2, "rgb")
        store = DictStore(quantizer)
        store.add_binary("base", Image.filled(4, 4, (0, 0, 0)))
        return BoundsEngine(store, quantizer), store

    def test_cycle_raises_same_error(self):
        engine, store = self._engines_store()
        store.add_edited("a", EditSequence("base", (Merge("b", 0, 0),)))
        store.add_edited("b", EditSequence("base", (Merge("a", 0, 0),)))
        with pytest.raises(RuleError, match="cyclic") as scalar_err:
            engine.bounds("a", 0)
        with pytest.raises(RuleError, match="cyclic") as vec_err:
            engine.bounds_all_bins("a")
        assert str(scalar_err.value) == str(vec_err.value)

    def test_depth_limit_raises_same_error(self):
        engine, store = self._engines_store()
        previous = "base"
        for level in range(10):
            store.add_edited(f"c{level}", EditSequence(previous, (Combine.box(),)))
            previous = f"c{level}"
        with pytest.raises(RuleError, match="deeper") as scalar_err:
            engine.bounds(previous, 0)
        with pytest.raises(RuleError, match="deeper") as vec_err:
            engine.bounds_all_bins(previous)
        assert str(scalar_err.value) == str(vec_err.value)

    def test_unknown_image_raises(self):
        engine, _ = self._engines_store()
        with pytest.raises(UnknownObjectError) as scalar_err:
            engine.bounds("nope", 0)
        with pytest.raises(UnknownObjectError) as swept_err:
            engine.bounds_all_bins("nope")
        assert str(scalar_err.value) == str(swept_err.value)


class TestEngineSurface:
    def test_returned_arrays_are_read_only(self, rng):
        quantizer = UniformQuantizer(2, "rgb")
        store = DictStore(quantizer)
        store.add_binary("base", random_palette_image(rng, 6, 6, FLAG_PALETTE))
        store.add_edited("e", EditSequence("base", (Combine.box(),)))
        engine = BoundsEngine(store, quantizer)
        lo, hi, _, _ = engine.bounds_all_bins("e")
        with pytest.raises(ValueError):
            lo[0] = 1
        with pytest.raises(ValueError):
            hi[0] = 1

    def test_vec_walk_counts_one_rule_per_operation(self):
        quantizer = UniformQuantizer(2, "rgb")
        store = DictStore(quantizer)
        store.add_binary("base", Image.filled(4, 4, (0, 0, 0)))
        store.add_edited(
            "e", EditSequence("base", (Define(Rect(0, 0, 2, 2)), Combine.box()))
        )
        engine = BoundsEngine(store, quantizer)
        engine.bounds_all_bins("e")
        assert engine.rules_applied == 2

    def test_fraction_bounds_all_bins_bitwise_matches_scalar(self, rng):
        quantizer = UniformQuantizer(2, "rgb")
        store = DictStore(quantizer)
        store.add_binary("base", random_palette_image(rng, 6, 8, FLAG_PALETTE))
        colors = [tuple(int(v) for v in c) for c in FLAG_PALETTE]
        store.add_edited("e", random_sequence(rng, "base", 6, 8, colors))
        engine = BoundsEngine(store, quantizer)
        lower, upper = engine.fraction_bounds_all_bins_batch(("e",))[0]
        for bin_index in range(quantizer.bin_count):
            scalar = engine.bounds("e", bin_index)
            assert lower[bin_index] == scalar.fraction_lo  # bitwise, not approx
            assert upper[bin_index] == scalar.fraction_hi
