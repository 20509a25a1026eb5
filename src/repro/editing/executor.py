"""Executable semantics of the editing operations (instantiation).

"Such an image can be instantiated by accessing the referenced base image
and sequentially executing the associated editing operations" (§2).  This
module is that instantiation engine.  The Table 1 rules in
:mod:`repro.core.rules` are *sound abstractions of exactly these
semantics* — the property suite checks that the rule bounds always contain
the histogram of the image this executor produces — so every semantic
choice here is mirrored there:

* the Defined Region (DR) starts as the whole base image and is clipped
  to the current canvas after every ``Define``;
* ``Combine`` averages the 3x3 neighborhood of the *pre-operation* image
  with edge-clamped padding, writing only DR pixels;
* ``Mutate`` distinguishes whole-image integer scales (exact pixel
  replication), and otherwise forward-maps DR pixels (rounded), vacating
  the DR to the fill color before writing destinations, clipped to the
  canvas; afterwards the DR becomes the clipped bounding box of the
  transformed region;
* ``Merge`` with a NULL target crops the DR into a fresh image; with a
  target it pastes the DR into the (possibly expanded) target canvas at
  the given offset, new area taking the fill color.  After either form
  the DR resets to the whole result image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.editing.operations import (
    Combine,
    Define,
    Merge,
    Modify,
    Mutate,
    Operation,
)
from repro.editing.sequence import EditSequence
from repro.errors import ExecutionError
from repro.images.geometry import AffineMatrix, Rect, transform_rect_bbox
from repro.images.raster import ColorTuple, Image, validate_color

#: Resolves a Merge target id to its instantiated image.
TargetResolver = Callable[[str], Image]


@dataclass
class ExecutionState:
    """Current canvas and Defined Region while executing a sequence.

    The state owns its canvas: the per-operation steps write into
    ``image`` in place (or swap in a fresh canvas) and move ``dr`` along.
    """

    image: Image
    dr: Rect

    @staticmethod
    def initial(base: Image) -> "ExecutionState":
        """Start state: a copy of the base image with the DR covering all of it."""
        return ExecutionState(base.copy(), base.bounds)


class EditExecutor:
    """Instantiates edit sequences against base images.

    Parameters
    ----------
    resolve:
        Callback mapping a Merge target id to an :class:`Image`.  Only
        needed when sequences contain non-NULL Merges; omitted, such a
        sequence raises :class:`ExecutionError`.  The executor only reads
        the image it returns.
    fill_color:
        Color written into vacated/uncovered pixels by Mutate and Merge.
        The bound rules receive the same color so its bin is accounted.
    """

    def __init__(
        self,
        resolve: Optional[TargetResolver] = None,
        fill_color: Sequence[int] = (0, 0, 0),
    ) -> None:
        self._resolve = resolve
        self.fill_color: ColorTuple = validate_color(fill_color)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def instantiate(self, base: Image, sequence: EditSequence) -> Image:
        """Execute every operation of ``sequence`` against ``base``.

        ``base`` is copied once and never written to.
        """
        state = ExecutionState.initial(base)
        for position, op in enumerate(sequence.operations):
            try:
                self._step(state, op)
            except ExecutionError as exc:
                raise ExecutionError(
                    f"operation {position} ({op!r}) of sequence on "
                    f"{sequence.base_id!r}: {exc}"
                ) from exc
        return state.image

    def apply_operation(self, state: ExecutionState, op: Operation) -> ExecutionState:
        """Apply one operation, returning the next state; ``state`` is untouched."""
        result = ExecutionState(state.image.copy(), state.dr)
        self._step(result, op)
        return result

    # ------------------------------------------------------------------
    # Per-operation semantics: each step mutates the state it is given
    # ------------------------------------------------------------------
    def _step(self, state: ExecutionState, op: Operation) -> None:
        if isinstance(op, Define):
            self._apply_define(state, op)
        elif isinstance(op, Combine):
            self._apply_combine(state, op)
        elif isinstance(op, Modify):
            self._apply_modify(state, op)
        elif isinstance(op, Mutate):
            self._apply_mutate(state, op)
        elif isinstance(op, Merge):
            self._apply_merge(state, op)
        else:
            raise ExecutionError(f"unknown operation {op!r}")

    def _apply_define(self, state: ExecutionState, op: Define) -> None:
        state.dr = op.rect.clip(state.image.height, state.image.width)

    def _apply_combine(self, state: ExecutionState, op: Combine) -> None:
        if not state.dr.is_empty:
            _blur_in_place(state.image.pixels, state.dr, op.weights)

    def _apply_modify(self, state: ExecutionState, op: Modify) -> None:
        if state.dr.is_empty:
            return
        dr = state.dr
        region = state.image.pixels[dr.x1:dr.x2, dr.y1:dr.y2]
        old_r, old_g, old_b = op.rgb_old
        mask = (
            (region[..., 0] == old_r)
            & (region[..., 1] == old_g)
            & (region[..., 2] == old_b)
        )
        region[mask] = op.rgb_new

    def _apply_mutate(self, state: ExecutionState, op: Mutate) -> None:
        if state.dr.is_empty:
            return
        image = state.image
        dr = state.dr
        matrix = op.matrix
        if op.is_whole_image_scale(dr, image.bounds) and matrix.is_integer_scale():
            sx = int(round(matrix.m11))
            sy = int(round(matrix.m22))
            scaled = np.repeat(np.repeat(image.pixels, sx, axis=0), sy, axis=1)
            state.image = Image(scaled, copy=False)
            state.dr = state.image.bounds
            return
        if (
            (matrix.m11, matrix.m12, matrix.m21, matrix.m22) == (1.0, 0.0, 0.0, 1.0)
            and matrix.m13.is_integer()
            and matrix.m23.is_integer()
        ):
            self._translate_block(image, dr, int(matrix.m13), int(matrix.m23))
        else:
            self._forward_map(image, dr, matrix)
        state.dr = transform_rect_bbox(dr, matrix).clip(image.height, image.width)

    def _translate_block(self, image: Image, dr: Rect, dx: int, dy: int) -> None:
        """An integer translation forward-maps the DR as one block."""
        block = image.crop(dr)
        image.pixels[dr.x1:dr.x2, dr.y1:dr.y2] = self.fill_color
        image.paste(block, dr.x1 + dx, dr.y1 + dy)

    def _forward_map(self, image: Image, dr: Rect, matrix: AffineMatrix) -> None:
        pixels = image.pixels
        xs, ys = np.meshgrid(
            np.arange(dr.x1, dr.x2), np.arange(dr.y1, dr.y2), indexing="ij"
        )
        xs = xs.reshape(-1)
        ys = ys.reshape(-1)
        tx = np.floor(matrix.m11 * xs + matrix.m12 * ys + matrix.m13 + 0.5).astype(np.int64)
        ty = np.floor(matrix.m21 * xs + matrix.m22 * ys + matrix.m23 + 0.5).astype(np.int64)
        inside = (
            (tx >= 0) & (tx < image.height) & (ty >= 0) & (ty < image.width)
        )
        moved_colors = pixels[xs[inside], ys[inside]]
        # Vacate the source region before writing so a transform that maps
        # back over part of the DR keeps the moved content, not the fill.
        pixels[dr.x1:dr.x2, dr.y1:dr.y2] = self.fill_color
        pixels[tx[inside], ty[inside]] = moved_colors

    def _apply_merge(self, state: ExecutionState, op: Merge) -> None:
        if state.dr.is_empty:
            raise ExecutionError("Merge requires a non-empty Defined Region")
        dr_content = state.image.crop(state.dr)
        if op.is_crop:
            canvas = dr_content
        else:
            if self._resolve is None:
                raise ExecutionError(
                    f"Merge target {op.target_id!r} requires a target resolver"
                )
            target = self._resolve(op.target_id)
            canvas_h, canvas_w, ox, oy = merge_canvas_geometry(
                dr_content.height, dr_content.width, target.height, target.width, op.x, op.y
            )
            canvas = Image.filled(canvas_h, canvas_w, self.fill_color)
            canvas.paste(target, -ox, -oy)
            canvas.paste(dr_content, op.x - ox, op.y - oy)
        state.image = canvas
        state.dr = canvas.bounds


def merge_canvas_geometry(
    dr_height: int,
    dr_width: int,
    target_height: int,
    target_width: int,
    x: int,
    y: int,
) -> Tuple[int, int, int, int]:
    """Result canvas size and origin shift for a non-NULL Merge.

    Implements Table 1's dimension formula: the canvas is the bounding box
    of the target placed at the origin and the DR placed at ``(x, y)``.
    Returns ``(height, width, origin_x, origin_y)`` where the origin is
    the canvas coordinate of the target's former ``(0, 0)`` negated (i.e.
    canvas position ``p`` holds original position ``p + origin``).

    Shared by the executor and the Merge rule so both agree on the
    resulting image size.
    """
    ox = min(x, 0)
    oy = min(y, 0)
    height = max(x + dr_height, target_height) - ox
    width = max(y + dr_width, target_width) - oy
    return (height, width, ox, oy)


def combine_region(
    image: Image,
    rect: Rect,
    weights: Sequence[float],
) -> Image:
    """Blur the pixels of ``rect`` with a 3x3 weighted average.

    Neighborhoods are taken from the *original* image (a Combine is not
    applied progressively) with edge-clamped padding; weights are
    normalized to sum to one; channel results round half-up.  Exposed as
    a function because the synthetic-image generators reuse it.
    """
    result = image.copy()
    region = rect.clip(image.height, image.width)
    if not region.is_empty:
        _blur_in_place(result.pixels, region, weights)
    return result


def _blur_in_place(pixels: np.ndarray, region: Rect, weights: Sequence[float]) -> None:
    """:func:`combine_region` on a non-empty clipped ``region``, in place.

    Only the region plus a one-pixel halo is read: the halo is copied to
    float before anything is written, and the sides of it that fall off
    the image repeat the border row/column, which is what edge-padding
    the whole image would put there.
    """
    kernel = np.asarray(list(weights), dtype=np.float64).reshape(3, 3)
    total = kernel.sum()
    if total <= 0:
        raise ExecutionError("Combine weights must have positive sum")
    kernel = kernel / total

    height, width = pixels.shape[:2]
    rows, cols = region.height, region.width
    top = int(region.x1 == 0)
    left = int(region.y1 == 0)
    bottom = int(region.x2 == height)
    right = int(region.y2 == width)
    halo = np.empty((rows + 2, cols + 2, 3), dtype=np.float64)
    halo[top:rows + 2 - bottom, left:cols + 2 - right] = pixels[
        region.x1 - 1 + top:region.x2 + 1 - bottom,
        region.y1 - 1 + left:region.y2 + 1 - right,
    ]
    if top:
        halo[0] = halo[1]
    if bottom:
        halo[-1] = halo[-2]
    if left:
        halo[:, 0] = halo[:, 1]
    if right:
        halo[:, -1] = halo[:, -2]

    accumulated = kernel[0, 0] * halo[0:rows, 0:cols]
    for dx in range(3):
        for dy in range(3):
            if dx or dy:
                accumulated += kernel[dx, dy] * halo[dx:dx + rows, dy:dy + cols]
    accumulated += 0.5
    np.floor(accumulated, out=accumulated)
    pixels[region.x1:region.x2, region.y1:region.y2] = np.clip(
        accumulated, 0, 255, out=accumulated
    )
