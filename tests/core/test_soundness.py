"""Invariant 1: BOUNDS always contains the instantiated histogram value.

This is the central correctness property of the whole paper: the rules
must never exclude a bin fraction the real edited image could have
(§3.2's "without producing false negatives").  We drive it with random
edit sequences over random base images, comparing the rule walk against
actual instantiation, for every histogram bin.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.color.histogram import ColorHistogram
from repro.color.names import FLAG_PALETTE
from repro.color.quantization import UniformQuantizer
from repro.core.bounds import BoundsEngine
from repro.editing.executor import EditExecutor
from repro.editing.random_edits import random_sequence
from repro.editing.recipes import BOUND_WIDENING_RECIPES, NON_WIDENING_RECIPES
from repro.editing.sequence import EditSequence
from repro.images.generators import random_palette_image
from tests.images.builders import random_noise_image


class MapStore:
    def __init__(self, quantizer):
        self.quantizer = quantizer
        self.records = {}

    def add_binary(self, image_id, image):
        self.records[image_id] = (
            ColorHistogram.of_image(image, self.quantizer),
            image.height,
            image.width,
        )

    def lookup_for_bounds(self, image_id):
        return self.records[image_id]


def assert_bounds_contain_truth(engine, executor, base, sequence, quantizer):
    out = executor.instantiate(base, sequence)
    truth = ColorHistogram.of_image(out, quantizer)
    for bin_index in range(quantizer.bin_count):
        bounds = engine.sequence_bounds(sequence, bin_index)
        assert (bounds.height, bounds.width) == (out.height, out.width), (
            sequence.serialize(),
            (bounds.height, bounds.width),
            (out.height, out.width),
        )
        fraction = truth.fraction(bin_index)
        assert bounds.contains_fraction(fraction), (
            sequence.serialize(),
            bin_index,
            (bounds.fraction_lo, bounds.fraction_hi),
            fraction,
        )


@pytest.mark.parametrize("space", ["rgb", "hsv"])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_random_sequences_sound_on_palette_images(space, seed):
    rng = np.random.default_rng(seed)
    quantizer = UniformQuantizer(2, space)
    base = random_palette_image(rng, 12, 14, FLAG_PALETTE)
    target = random_palette_image(rng, 8, 10, FLAG_PALETTE)

    store = MapStore(quantizer)
    store.add_binary("base", base)
    store.add_binary("tgt", target)
    engine = BoundsEngine(store, quantizer)
    executor = EditExecutor(resolve=lambda _t: target)

    sequence = random_sequence(
        rng,
        "base",
        base.height,
        base.width,
        list(base.distinct_colors())[:4],
        merge_targets={"tgt": (target.height, target.width)},
    )
    assert_bounds_contain_truth(engine, executor, base, sequence, quantizer)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_random_sequences_sound_on_noise_images(seed):
    rng = np.random.default_rng(seed)
    quantizer = UniformQuantizer(3, "rgb")
    base = random_noise_image(rng, 10, 10, levels=5)
    store = MapStore(quantizer)
    store.add_binary("base", base)
    engine = BoundsEngine(store, quantizer)
    executor = EditExecutor()

    sequence = random_sequence(
        rng, "base", base.height, base.width, list(base.distinct_colors())[:4]
    )
    assert_bounds_contain_truth(engine, executor, base, sequence, quantizer)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_recipe_sequences_sound(seed):
    rng = np.random.default_rng(seed)
    quantizer = UniformQuantizer(2, "rgb")
    base = random_palette_image(rng, 14, 16, FLAG_PALETTE)
    target = random_palette_image(rng, 14, 16, FLAG_PALETTE)
    store = MapStore(quantizer)
    store.add_binary("base", base)
    store.add_binary("tgt", target)
    engine = BoundsEngine(store, quantizer)
    executor = EditExecutor(resolve=lambda _t: target)

    pools = list(BOUND_WIDENING_RECIPES) + list(NON_WIDENING_RECIPES)
    recipe = pools[int(rng.integers(len(pools)))]
    ops = recipe(rng, base.height, base.width, FLAG_PALETTE)
    sequence = EditSequence("base", tuple(ops))
    assert_bounds_contain_truth(engine, executor, base, sequence, quantizer)


def test_custom_fill_color_soundness(rng):
    """Fill color must be threaded identically through rules and executor."""
    quantizer = UniformQuantizer(2, "rgb")
    fill = (255, 255, 255)  # white: a populated bin, not the default black
    base = random_palette_image(rng, 10, 12, FLAG_PALETTE)
    store = MapStore(quantizer)
    store.add_binary("base", base)
    engine = BoundsEngine(store, quantizer, fill_color=fill)
    executor = EditExecutor(fill_color=fill)

    for _ in range(40):
        sequence = random_sequence(
            rng, "base", base.height, base.width, list(base.distinct_colors())[:4]
        )
        assert_bounds_contain_truth(engine, executor, base, sequence, quantizer)


@given(
    seed=st.integers(0, 2**32 - 1),
    angle=st.floats(-3.1, 3.1, allow_nan=False),
)
@settings(max_examples=30, deadline=None)
def test_arbitrary_rotation_soundness(seed, angle):
    """Non-grid-aligned rotations: holes/overlaps stay within bounds."""
    from repro.editing.operations import Define, Mutate
    from repro.images.geometry import Rect

    rng = np.random.default_rng(seed)
    quantizer = UniformQuantizer(2, "rgb")
    base = random_palette_image(rng, 12, 12, FLAG_PALETTE)
    store = MapStore(quantizer)
    store.add_binary("base", base)
    engine = BoundsEngine(store, quantizer)
    executor = EditExecutor()

    sequence = EditSequence(
        "base",
        (
            Define(Rect(2, 2, 9, 9)),
            Mutate.rotation(angle, cx=5.5, cy=5.5),
        ),
    )
    assert_bounds_contain_truth(engine, executor, base, sequence, quantizer)
