"""Uniform color quantizers.

Section 3.1: bin colors "are usually obtained by uniformly quantizing the
space of a color model such as RGB, HSV, or Luv into a system-dependent
number of divisions".  A :class:`UniformQuantizer` divides each channel of
the chosen space into a fixed number of equal cells; a histogram bin is a
cell, indexed either by its ``(i, j, k)`` cell coordinates or by a flat
integer index.

The quantizer is the contract shared by feature extraction (histograms)
and the Table 1 rules: a rule only needs ``bin_of(color)`` to decide
whether ``RGB_old``/``RGB_new`` map to the queried bin.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Tuple

import numpy as np

from repro.color.spaces import channel_ranges, convert_pixels, validate_space
from repro.errors import ColorError
from repro.images.raster import ColorTuple, validate_color

BinIndex = int


@dataclass(frozen=True)
class UniformQuantizer:
    """Uniformly quantizes a color space into ``divisions^3`` bins.

    Parameters
    ----------
    divisions:
        Number of cells per channel (so ``divisions ** 3`` bins total).
        The paper's prototypes used small division counts; 4 (64 bins) is
        the library default set in :mod:`repro.db.database`.
    space:
        One of ``"rgb"``, ``"hsv"``, ``"luv"``.
    """

    divisions: int = 4
    space: str = "rgb"

    def __post_init__(self) -> None:
        if not 1 <= self.divisions <= 256:
            raise ColorError(f"divisions must be in [1, 256], got {self.divisions}")
        object.__setattr__(self, "space", validate_space(self.space))

    # ------------------------------------------------------------------
    @property
    def bin_count(self) -> int:
        """Total number of histogram bins."""
        return self.divisions ** 3

    def bin_of(self, color: Iterable[int]) -> BinIndex:
        """Flat bin index of a single RGB color.

        Memoized per (quantizer, color): colors come from a small palette.
        """
        return _bin_of_cached(self, validate_color(color))

    def bin_of_valid(self, color: ColorTuple) -> BinIndex:
        """:meth:`bin_of` for a color :func:`validate_color` already returned.

        The same memoized lookup without normalizing the color again:
        the Table 1 Modify rule, applied once per Modify of every walk,
        passes the colors ``Modify`` validated when it was built.
        """
        return _bin_of_cached(self, color)

    def bin_indices(self, rgb_pixels: np.ndarray) -> np.ndarray:
        """Flat bin indices for an ``(..., 3)`` uint8 RGB array."""
        pixels = np.asarray(rgb_pixels)
        if self.space == "rgb" and pixels.dtype == np.uint8:
            # RGB channels quantize independently: one look-up each.
            red, green, blue = _channel_tables(self)
            return (
                red.take(pixels[..., 0])
                + green.take(pixels[..., 1])
                + blue.take(pixels[..., 2])
            )
        return self._channel_offsets(pixels).sum(axis=-1)

    def _channel_offsets(self, rgb_pixels: np.ndarray) -> np.ndarray:
        """Each channel's cell times its stride in the flat bin index.

        The one statement of the binning rule: the flat index of a pixel
        is the sum of its three offsets.
        """
        coords = convert_pixels(rgb_pixels, self.space)
        offsets = np.empty(coords.shape, dtype=np.int64)
        stride = self.divisions * self.divisions
        for channel, (low, high) in enumerate(channel_ranges(self.space)):
            span = high - low
            scaled = (coords[..., channel] - low) / span * self.divisions
            cells = np.clip(np.floor(scaled).astype(np.int64), 0, self.divisions - 1)
            offsets[..., channel] = cells * stride
            stride //= self.divisions
        return offsets

    def cell_of(self, bin_index: BinIndex) -> Tuple[int, int, int]:
        """Inverse of the flat indexing: ``(i, j, k)`` cell coordinates."""
        self.validate_bin(bin_index)
        per_plane = self.divisions * self.divisions
        i = bin_index // per_plane
        j = (bin_index % per_plane) // self.divisions
        k = bin_index % self.divisions
        return (i, j, k)

    def validate_bin(self, bin_index: int) -> int:
        """Raise unless ``bin_index`` addresses a real bin."""
        if not 0 <= bin_index < self.bin_count:
            raise ColorError(
                f"bin {bin_index} outside [0, {self.bin_count}) for {self!r}"
            )
        return bin_index

    def describe(self) -> str:
        """Human-readable summary used by catalogs and reports."""
        return f"{self.space}/{self.divisions}^3={self.bin_count} bins"


@lru_cache(maxsize=65536)
def _bin_of_cached(quantizer: UniformQuantizer, rgb: Tuple[int, int, int]) -> int:
    pixel = np.array([rgb], dtype=np.uint8)
    return int(quantizer.bin_indices(pixel)[0])


@lru_cache(maxsize=64)
def _channel_tables(
    quantizer: UniformQuantizer,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-channel offsets of the values 0..255 of an RGB quantizer.

    :meth:`UniformQuantizer._channel_offsets` run once over a gray ramp,
    whose row ``v`` holds value ``v`` in every channel.
    """
    ramp = np.repeat(np.arange(256, dtype=np.uint8)[:, None], 3, axis=1)
    red, green, blue = np.ascontiguousarray(quantizer._channel_offsets(ramp).T)
    for table in (red, green, blue):
        table.setflags(write=False)
    return (red, green, blue)
