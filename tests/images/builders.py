"""Test images that no dataset builder draws.

Flat-colour flags and helmets put each image in a handful of bins; these
are the adversarial opposites the property tests use.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.images.raster import Image, validate_color


def checkerboard(
    height: int,
    width: int,
    cell: int,
    color_a: Sequence[int],
    color_b: Sequence[int],
) -> Image:
    """A checkerboard with ``cell x cell`` squares."""
    if cell <= 0:
        raise WorkloadError("cell size must be positive")
    rows = (np.arange(height) // cell)[:, None]
    cols = (np.arange(width) // cell)[None, :]
    mask = ((rows + cols) % 2).astype(bool)
    arr = np.empty((height, width, 3), dtype=np.uint8)
    arr[~mask] = validate_color(color_a)
    arr[mask] = validate_color(color_b)
    return Image(arr, copy=False)


def random_noise_image(
    rng: np.random.Generator,
    height: int,
    width: int,
    levels: int = 256,
) -> Image:
    """Uniform random noise, quantized to ``levels`` per channel.

    Histograms are spread across many bins.
    """
    if not 2 <= levels <= 256:
        raise WorkloadError("levels must be in [2, 256]")
    raw = rng.integers(0, levels, size=(height, width, 3))
    if levels != 256:
        raw = raw * 255 // (levels - 1)
    return Image(raw.astype(np.uint8), copy=False)
