"""Minimum bounding (hyper-)rectangles for the R-tree.

The paper (§3.1, §4) motivates its data structure by analogy with
multidimensional access methods over histogram space — Guttman's R-tree
[13] and its variants [3, 10].  Histograms are points in ``n``-dim
fraction space, so the boxes here are axis-aligned hyper-rectangles over
float coordinates of any dimensionality.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import IndexError_


class MBR:
    """An axis-aligned hyper-rectangle ``[lo_i, hi_i]`` per dimension."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Sequence[float], hi: Sequence[float]) -> None:
        lo_arr = np.asarray(lo, dtype=np.float64)
        hi_arr = np.asarray(hi, dtype=np.float64)
        if lo_arr.shape != hi_arr.shape or lo_arr.ndim != 1:
            raise IndexError_(f"bad MBR shape: {lo_arr.shape} vs {hi_arr.shape}")
        if (lo_arr > hi_arr).any():
            raise IndexError_("MBR lower bound exceeds upper bound")
        self.lo = lo_arr
        self.hi = hi_arr

    # ------------------------------------------------------------------
    @staticmethod
    def point(coords: Sequence[float]) -> "MBR":
        """Degenerate box around a single point."""
        arr = np.asarray(coords, dtype=np.float64)
        return MBR(arr, arr.copy())

    @staticmethod
    def slab(
        dimensions: int, axis: int, lo: float, hi: float,
        domain_lo: float = -np.inf, domain_hi: float = np.inf,
    ) -> "MBR":
        """A box constraining one axis and leaving the rest unbounded.

        This is the shape of a single-bin range query over histogram
        space: ``fraction(bin) in [lo, hi]``, other bins unconstrained.
        """
        if not 0 <= axis < dimensions:
            raise IndexError_(f"axis {axis} outside {dimensions} dimensions")
        lows = np.full(dimensions, domain_lo)
        highs = np.full(dimensions, domain_hi)
        lows[axis] = lo
        highs[axis] = hi
        return MBR(lows, highs)

    @staticmethod
    def trusted(lo: np.ndarray, hi: np.ndarray) -> "MBR":
        """A box over float64 corners the caller has already checked.

        No copy, no shape or ``lo <= hi`` check: for builders that
        validate a whole ``(n, d)`` corner array at once.
        """
        box = MBR.__new__(MBR)
        box.lo, box.hi = lo, hi
        return box

    @property
    def dimensions(self) -> int:
        """Dimensionality of the box."""
        return int(self.lo.shape[0])

    # ------------------------------------------------------------------
    def intersects(self, other: "MBR") -> bool:
        """True when the boxes share at least one point."""
        return bool((self.lo <= other.hi).all() and (other.lo <= self.hi).all())

    def contains_point(self, coords: Sequence[float]) -> bool:
        """True when the point lies inside the box (boundaries included)."""
        arr = np.asarray(coords, dtype=np.float64)
        return bool((self.lo <= arr).all() and (arr <= self.hi).all())

    def union(self, other: "MBR") -> "MBR":
        """Smallest box covering both operands."""
        # Valid operands, valid box: no re-check.
        return MBR.trusted(
            np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi)
        )

    def margin_volume(self) -> float:
        """Product of side lengths (the R-tree 'area' heuristic)."""
        return float(np.multiply.reduce(self.hi - self.lo))  # == np.prod

    def enlargement(self, other: "MBR") -> float:
        """Volume growth needed to absorb ``other`` (Guttman's criterion)."""
        return self.union(other).margin_volume() - self.margin_volume()

    def min_distance_to_point(self, coords: Sequence[float]) -> float:
        """Euclidean distance from a point to the box (0 when inside).

        The standard MINDIST bound used by best-first kNN search.
        """
        arr = np.asarray(coords, dtype=np.float64)
        gaps = np.maximum(np.maximum(self.lo - arr, arr - self.hi), 0.0)
        return float(np.sqrt((gaps * gaps).sum()))

    @staticmethod
    def union_all(boxes: Iterable["MBR"]) -> Optional["MBR"]:
        """Union of any number of boxes; ``None`` for an empty iterable."""
        result: Optional[MBR] = None
        for box in boxes:
            result = box if result is None else result.union(box)
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MBR):
            return NotImplemented
        return bool(
            np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi)
        )

    def __repr__(self) -> str:
        return f"MBR(dims={self.dimensions})"
