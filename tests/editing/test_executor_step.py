"""The executor's in-place step is the value semantics it replaced, byte for byte.

``reference_step`` below is the pre-refactor executor kept as a test
oracle: every operation returns a new image, Combine pads the *whole*
image, Modify reduces over the channel axis, Mutate always forward-maps.
The production step writes into a canvas it owns, reads only a one-pixel
halo around the DR and moves integer translations as one block; these
tests pin that none of that is visible in a single pixel.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.color.names import FLAG_PALETTE
from repro.editing.executor import (
    EditExecutor,
    ExecutionState,
    combine_region,
    merge_canvas_geometry,
)
from repro.editing.operations import Combine, Define, Merge, Modify, Mutate
from repro.editing.random_edits import random_combine, random_sequence
from repro.editing.sequence import EditSequence
from repro.images.generators import random_palette_image
from repro.images.geometry import AffineMatrix, Rect, transform_rect_bbox
from repro.images.raster import Image

PALETTE = FLAG_PALETTE
FILL = (7, 8, 9)


# ----------------------------------------------------------------------
# Reference: the value-semantics executor
# ----------------------------------------------------------------------
def reference_combine(image, rect, weights):
    """Blur ``rect`` after edge-padding the whole image."""
    region = rect.clip(image.height, image.width)
    if region.is_empty:
        return image.copy()
    kernel = np.asarray(list(weights), dtype=np.float64).reshape(3, 3)
    kernel = kernel / kernel.sum()
    padded = np.pad(
        image.pixels.astype(np.float64), ((1, 1), (1, 1), (0, 0)), mode="edge"
    )
    accumulated = np.zeros((region.height, region.width, 3), dtype=np.float64)
    for dx in range(3):
        for dy in range(3):
            accumulated += kernel[dx, dy] * padded[
                region.x1 + dx:region.x2 + dx, region.y1 + dy:region.y2 + dy
            ]
    result = image.copy()
    result.pixels[region.x1:region.x2, region.y1:region.y2] = np.clip(
        np.floor(accumulated + 0.5), 0, 255
    ).astype(np.uint8)
    return result


def reference_forward_map(source, dr, matrix, fill):
    """Move every DR pixel through ``matrix`` one by one (rounded)."""
    xs, ys = np.meshgrid(
        np.arange(dr.x1, dr.x2), np.arange(dr.y1, dr.y2), indexing="ij"
    )
    xs, ys = xs.reshape(-1), ys.reshape(-1)
    tx = np.floor(matrix.m11 * xs + matrix.m12 * ys + matrix.m13 + 0.5).astype(np.int64)
    ty = np.floor(matrix.m21 * xs + matrix.m22 * ys + matrix.m23 + 0.5).astype(np.int64)
    result = source.copy()
    result.pixels[dr.x1:dr.x2, dr.y1:dr.y2] = np.array(fill, dtype=np.uint8)
    inside = (tx >= 0) & (tx < source.height) & (ty >= 0) & (ty < source.width)
    result.pixels[tx[inside], ty[inside]] = source.pixels[xs[inside], ys[inside]]
    return result


def reference_step(image, dr, op, targets):
    """One operation under value semantics: ``(new image, new DR)``."""
    if isinstance(op, Define):
        return image, op.rect.clip(image.height, image.width)
    if isinstance(op, Merge):
        content = image.crop(dr)
        if op.is_crop:
            return content, content.bounds
        target = targets[op.target_id]
        height, width, ox, oy = merge_canvas_geometry(
            content.height, content.width, target.height, target.width, op.x, op.y
        )
        canvas = Image.filled(height, width, FILL)
        canvas.paste(target, -ox, -oy)
        canvas.paste(content, op.x - ox, op.y - oy)
        return canvas, canvas.bounds
    if dr.is_empty:
        return image, dr
    if isinstance(op, Combine):
        return reference_combine(image, dr, op.weights), dr
    if isinstance(op, Modify):
        result = image.copy()
        region = result.region(dr)
        mask = (region == np.array(op.rgb_old, dtype=np.uint8)).all(axis=2)
        region[mask] = np.array(op.rgb_new, dtype=np.uint8)
        return result, dr
    assert isinstance(op, Mutate)
    if op.is_whole_image_scale(dr, image.bounds) and op.matrix.is_integer_scale():
        sx, sy = int(round(op.matrix.m11)), int(round(op.matrix.m22))
        scaled = Image(np.repeat(np.repeat(image.pixels, sx, axis=0), sy, axis=1))
        return scaled, scaled.bounds
    moved = reference_forward_map(image, dr, op.matrix, FILL)
    return moved, transform_rect_bbox(dr, op.matrix).clip(image.height, image.width)


def reference_instantiate(base, sequence, targets):
    image, dr = base.copy(), base.bounds
    for op in sequence.operations:
        image, dr = reference_step(image, dr, op, targets)
    return image


# ----------------------------------------------------------------------
# Whole sequences
# ----------------------------------------------------------------------
class TestSequences:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_instantiate_fold_and_reference_agree(self, seed):
        """All five ops, Merge with and without a target, DRs that overhang."""
        rng = np.random.default_rng(seed)
        base = random_palette_image(rng, int(rng.integers(1, 12)), int(rng.integers(1, 14)), PALETTE)
        targets = {
            "t1": random_palette_image(rng, 6, 9, PALETTE),
            "t2": random_palette_image(rng, 13, 4, PALETTE),
        }
        sequence = random_sequence(
            rng,
            "b",
            base.height,
            base.width,
            PALETTE,
            merge_targets={k: (v.height, v.width) for k, v in targets.items()},
            max_pixels=4096,
        )
        executor = EditExecutor(resolve=targets.__getitem__, fill_color=FILL)
        kept = base.copy()

        whole = executor.instantiate(base, sequence)

        assert base == kept  # the base is copied once, never written
        assert whole == reference_instantiate(base, sequence, targets)
        state = ExecutionState.initial(base)
        for op in sequence.operations:
            state = executor.apply_operation(state, op)
        assert state.image == whole

    def test_merge_target_is_only_read(self):
        target = Image.filled(5, 5, (1, 2, 3))
        kept = target.copy()
        sequence = EditSequence(
            "b", (Merge("t", 1, 1), Modify((1, 2, 3), (9, 9, 9)), Combine.box())
        )
        EditExecutor(resolve={"t": target}.__getitem__).instantiate(
            Image.filled(3, 3, (200, 0, 0)), sequence
        )
        assert target == kept


class TestApplyOperationIsPure:
    @pytest.mark.parametrize(
        "op",
        [
            Define.of(1, 1, 4, 5),
            Combine.box(),
            Modify(PALETTE[0], (1, 2, 3)),
            Mutate.translation(2, -1),
            Mutate.rotation_90(1, 3.0, 3.0),
            Mutate.scale(2),
            Merge(None),
            Merge("t", -1, 2),
        ],
        ids=lambda op: type(op).__name__,
    )
    def test_input_state_is_untouched(self, rng, op):
        # Two colors, so the Modify and the blur both have work to do.
        image = random_palette_image(rng, 8, 9, PALETTE[:2])
        executor = EditExecutor(resolve=lambda _: Image.filled(4, 4, (5, 5, 5)))
        state = ExecutionState(image, Rect(1, 0, 6, 7))
        before_pixels, before_dr = image.pixels.copy(), state.dr

        after = executor.apply_operation(state, op)

        assert after is not state
        assert after.image is not state.image
        assert not np.shares_memory(after.image.pixels, state.image.pixels)
        assert np.array_equal(state.image.pixels, before_pixels)
        assert state.dr == before_dr


# ----------------------------------------------------------------------
# Combine: the halo equals padding the whole image
# ----------------------------------------------------------------------
def _rects_by_borders_touched(height, width):
    return {
        "interior": Rect(2, 2, height - 2, width - 2),
        "top": Rect(0, 2, 3, width - 2),
        "bottom-right": Rect(3, 4, height, width),
        "left-right": Rect(2, 0, 4, width),
        "full": Rect(0, 0, height, width),
        "one-pixel": Rect(3, 3, 4, 4),
        "corner-pixel": Rect(height - 1, 0, height, 1),
        "overhang": Rect(-4, -4, 3, 100),
        "outside": Rect(height + 1, 0, height + 5, 3),
    }


class TestCombineHalo:
    @pytest.mark.parametrize("name", sorted(_rects_by_borders_touched(7, 9)))
    def test_borders_touched(self, rng, name):
        image = random_palette_image(rng, 7, 9, PALETTE)
        rect = _rects_by_borders_touched(7, 9)[name]
        kept = image.copy()
        for weights in (Combine.box().weights, random_combine(rng).weights):
            assert combine_region(image, rect, weights) == reference_combine(
                image, rect, weights
            )
        assert image == kept

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (5, 1), (2, 2)])
    def test_degenerate_images(self, rng, shape):
        image = Image(rng.integers(0, 256, size=shape + (3,), dtype=np.uint8))
        weights = random_combine(rng).weights
        assert combine_region(image, image.bounds, weights) == reference_combine(
            image, image.bounds, weights
        )

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_random_rects_on_noise(self, seed):
        rng = np.random.default_rng(seed)
        height, width = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        image = Image(rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8))
        x1, y1 = int(rng.integers(-2, height)), int(rng.integers(-2, width))
        rect = Rect(
            x1, y1, int(rng.integers(x1 + 1, height + 3)), int(rng.integers(y1 + 1, width + 3))
        )
        weights = random_combine(rng).weights
        assert combine_region(image, rect, weights) == reference_combine(
            image, rect, weights
        )


# ----------------------------------------------------------------------
# Mutate: the block move equals the pixel-by-pixel forward map
# ----------------------------------------------------------------------
class TestIntegerTranslation:
    @pytest.mark.parametrize("dr", [Rect(2, 3, 6, 8), Rect(0, 0, 8, 10), Rect(7, 9, 8, 10)])
    def test_every_offset(self, rng, dr):
        """Zero, overlapping the DR, partly and wholly off the canvas."""
        image = random_palette_image(rng, 8, 10, PALETTE)
        executor = EditExecutor(fill_color=FILL)
        for dx in range(-9, 10):
            for dy in range(-11, 12):
                op = Mutate.translation(dx, dy)
                if op.is_whole_image_scale(dr, image.bounds):
                    continue  # identity over the whole image: the scale row
                after = executor.apply_operation(ExecutionState(image, dr), op)
                assert after.image == reference_forward_map(image, dr, op.matrix, FILL), (dx, dy)
                assert after.dr == dr.translate(dx, dy).clip(8, 10), (dx, dy)

    def test_fractional_offsets_keep_the_forward_map(self, rng):
        image = random_palette_image(rng, 8, 10, PALETTE)
        dr = Rect(1, 1, 5, 6)
        for matrix in (
            AffineMatrix.translation(1.5, -0.5),
            AffineMatrix(1, 0, 2, 0, -1, 7),
            AffineMatrix(1, 0.5, 0, 0, 1, 0),
        ):
            after = EditExecutor(fill_color=FILL).apply_operation(
                ExecutionState(image, dr), Mutate(matrix)
            )
            assert after.image == reference_forward_map(image, dr, matrix, FILL)
