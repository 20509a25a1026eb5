"""Color histograms — the feature signature of the paper's CBIR system.

A :class:`ColorHistogram` stores, per quantizer bin, the *count* of image
pixels whose color maps to the bin, plus the total pixel count.  The
paper's queries and rules reason in both units:

* range queries compare the *fraction* ``count / total`` against
  ``[PCT_min, PCT_max]``;
* Table 1 rules adjust raw *counts* (``HB_min``, ``HB_max``) along with a
  running total.

Keeping counts (not fractions) as the primary representation makes the
rule arithmetic exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.color.quantization import BinIndex, UniformQuantizer
from repro.errors import HistogramError
from repro.images.raster import Image


@dataclass(frozen=True)
class ColorHistogram:
    """Immutable per-bin pixel counts under a specific quantizer.

    ``counts`` is a dense int64 vector of length ``quantizer.bin_count``;
    ``total`` is the image pixel count and always equals ``counts.sum()``.
    """

    quantizer: UniformQuantizer
    counts: np.ndarray
    total: int

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1 or counts.shape[0] != self.quantizer.bin_count:
            raise HistogramError(
                f"expected {self.quantizer.bin_count} bins, got shape {counts.shape}"
            )
        if (counts < 0).any():
            raise HistogramError("negative bin count")
        if int(counts.sum()) != self.total:
            raise HistogramError(
                f"total {self.total} does not match counts sum {int(counts.sum())}"
            )
        if self.total <= 0:
            raise HistogramError("histograms require at least one pixel")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def of_image(image: Image, quantizer: UniformQuantizer) -> "ColorHistogram":
        """Extract the histogram of ``image`` under ``quantizer``."""
        bins = quantizer.bin_indices(image.pixels.reshape(-1, 3))
        counts = np.bincount(bins, minlength=quantizer.bin_count)
        return ColorHistogram(quantizer, counts, image.size)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def count(self, bin_index: BinIndex) -> int:
        """Pixel count in ``bin_index``."""
        self.quantizer.validate_bin(bin_index)
        return int(self.counts[bin_index])

    def fraction(self, bin_index: BinIndex) -> float:
        """Fraction of pixels in ``bin_index`` (the paper's percentage)."""
        return self.count(bin_index) / self.total

    def fractions(self) -> np.ndarray:
        """The normalized histogram vector (sums to 1)."""
        return self.counts / float(self.total)

    def dominant_bins(self, k: int = 3) -> Tuple[int, ...]:
        """The ``k`` most populated bins, most populated first."""
        if k <= 0:
            raise HistogramError("k must be positive")
        order = np.argsort(-self.counts, kind="stable")
        occupied = [int(b) for b in order if self.counts[b] > 0]
        return tuple(occupied[:k])

    def satisfies_range(
        self, bin_index: BinIndex, pct_min: float, pct_max: float
    ) -> bool:
        """True when the bin's fraction lies in ``[pct_min, pct_max]``.

        The paper's Figure 2 uses strict inequalities; we use a closed
        interval so that degenerate queries (``pct_min == pct_max``) can
        still match, and apply the same convention uniformly in RBM and
        BWM (the equivalence property only needs consistency).
        """
        if pct_min > pct_max:
            raise HistogramError(f"empty query range [{pct_min}, {pct_max}]")
        return pct_min <= self.fraction(bin_index) <= pct_max

    # ------------------------------------------------------------------
    def require_compatible(self, other: "ColorHistogram") -> None:
        """Raise unless both histograms share a quantizer."""
        if self.quantizer != other.quantizer:
            raise HistogramError(
                f"incompatible quantizers: {self.quantizer.describe()} vs "
                f"{other.quantizer.describe()}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColorHistogram):
            return NotImplemented
        return (
            self.quantizer == other.quantizer
            and self.total == other.total
            and bool(np.array_equal(self.counts, other.counts))
        )

    def __hash__(self) -> int:
        return hash((self.quantizer, self.total, self.counts.tobytes()))

    def __repr__(self) -> str:
        occupied = int(np.count_nonzero(self.counts))
        return (
            f"ColorHistogram({self.quantizer.describe()}, total={self.total}, "
            f"occupied_bins={occupied})"
        )
