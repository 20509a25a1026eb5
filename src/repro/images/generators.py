"""Generic synthetic image generators.

The flag and helmet dataset builders in ``repro.workloads`` compose these
primitives.  Everything is deterministic given a ``numpy.random.Generator``
so experiments are reproducible from a seed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.images.geometry import Rect
from repro.images.raster import ColorTuple, Image, validate_color


def solid(height: int, width: int, color: Sequence[int]) -> Image:
    """A single-color image."""
    return Image.filled(height, width, color)


def horizontal_bands(
    height: int, width: int, colors: Sequence[Sequence[int]]
) -> Image:
    """Stack equal-height horizontal bands of the given colors.

    The last band absorbs any rounding remainder so the image is exactly
    ``height`` rows tall.
    """
    if not colors:
        raise WorkloadError("at least one band color is required")
    image = Image.filled(height, width, colors[0])
    band_height = height // len(colors)
    if band_height == 0:
        raise WorkloadError(f"{len(colors)} bands do not fit in height {height}")
    for index, color in enumerate(colors):
        x1 = index * band_height
        x2 = height if index == len(colors) - 1 else (index + 1) * band_height
        image.pixels[x1:x2, :] = validate_color(color)
    return image


def vertical_bands(height: int, width: int, colors: Sequence[Sequence[int]]) -> Image:
    """Equal-width vertical bands; the last band absorbs the remainder."""
    if not colors:
        raise WorkloadError("at least one band color is required")
    image = Image.filled(height, width, colors[0])
    band_width = width // len(colors)
    if band_width == 0:
        raise WorkloadError(f"{len(colors)} bands do not fit in width {width}")
    for index, color in enumerate(colors):
        y1 = index * band_width
        y2 = width if index == len(colors) - 1 else (index + 1) * band_width
        image.pixels[:, y1:y2] = validate_color(color)
    return image


def draw_rect(image: Image, rect: Rect, color: Sequence[int]) -> Image:
    """Fill ``rect`` (clipped) with ``color``, in place."""
    r = rect.clip(image.height, image.width)
    if not r.is_empty:
        image.pixels[r.x1:r.x2, r.y1:r.y2] = validate_color(color)
    return image


def draw_disc(
    image: Image, cx: int, cy: int, radius: int, color: Sequence[int]
) -> Image:
    """Fill a disc of ``radius`` centered at ``(cx, cy)``, in place."""
    if radius < 0:
        raise WorkloadError("radius must be non-negative")
    xs = np.arange(image.height)[:, None] - cx
    ys = np.arange(image.width)[None, :] - cy
    mask = xs * xs + ys * ys <= radius * radius
    image.pixels[mask] = validate_color(color)
    return image


def draw_cross(
    image: Image,
    center_x: int,
    center_y: int,
    thickness: int,
    color: Sequence[int],
) -> Image:
    """Draw a full-bleed Nordic-style cross, in place."""
    if thickness <= 0:
        raise WorkloadError("cross thickness must be positive")
    half = thickness // 2
    draw_rect(
        image,
        Rect(max(0, center_x - half), 0, min(image.height, center_x + half + 1), image.width),
        color,
    )
    draw_rect(
        image,
        Rect(0, max(0, center_y - half), image.height, min(image.width, center_y + half + 1)),
        color,
    )
    return image


def random_palette_image(
    rng: np.random.Generator,
    height: int,
    width: int,
    palette: Sequence[Sequence[int]],
    region_count: int = 6,
) -> Image:
    """A random image of rectangular regions drawn from a palette.

    Produces the flat-color, few-distinct-colors histograms typical of
    flags and logos, which is the regime the paper evaluates.
    """
    if not palette:
        raise WorkloadError("palette must not be empty")
    colors: List[ColorTuple] = [validate_color(c) for c in palette]
    base = colors[int(rng.integers(len(colors)))]
    image = Image.filled(height, width, base)
    for _ in range(region_count):
        x1 = int(rng.integers(0, height))
        y1 = int(rng.integers(0, width))
        x2 = int(rng.integers(x1 + 1, height + 1))
        y2 = int(rng.integers(y1 + 1, width + 1))
        color = colors[int(rng.integers(len(colors)))]
        draw_rect(image, Rect(x1, y1, x2, y2), color)
    return image


def darken(image: Image, factor: float) -> Image:
    """A darkened copy (lighting-change distortion for experiment A6)."""
    if not 0.0 <= factor <= 1.0:
        raise WorkloadError("darken factor must be in [0, 1]")
    arr = (image.pixels.astype(np.float64) * factor).round().astype(np.uint8)
    return Image(arr, copy=False)


def box_blur(image: Image, rect: Optional[Rect] = None) -> Image:
    """A 3x3 box-blurred copy (matches Combine-with-equal-weights semantics)."""
    from repro.editing.executor import combine_region  # local import to avoid cycle

    target = rect if rect is not None else image.bounds
    weights = tuple([1.0] * 9)
    return combine_region(image, target, weights)
