"""VA-file: vector-approximation index for high-dimensional histograms.

The paper points at multidimensional access methods through the Gaede &
Günther survey [10].  R-trees degrade as dimensionality grows (histogram
spaces are 64-d and up); the vector-approximation file is the classic
answer: store a compact quantized *approximation* of every vector,
sequentially scan the approximations (cheap — a few bits per dimension),
and touch the exact vectors only for candidates the approximation cannot
rule out.

This implementation follows the original design:

* per dimension, ``bits`` bits split ``[lo, hi]`` into ``2^bits`` equal
  cells; an approximation is the tuple of cell indices;
* range search: compare the query box against each approximation's cell
  box; cells entirely outside exclude the vector, cells entirely inside
  accept it, straddling cells fall back to the exact vector;
* kNN: a first pass computes per-approximation lower/upper distance
  bounds; vectors whose lower bound exceeds the running k-th upper bound
  are pruned, the rest are refined in ascending lower-bound order.

Interface-compatible with :class:`repro.index.rtree.RTree` for point
data, so the A4 bench can compare all three access methods.
"""

from __future__ import annotations

import heapq
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IndexError_
from repro.index.mbr import MBR


class VAFile:
    """Vector-approximation file over points in ``[lo, hi]^d``.

    Parameters
    ----------
    bits:
        Bits per dimension (2-8); ``2^bits`` cells per dimension.
    lo, hi:
        The data domain per dimension (histogram fractions live in
        ``[0, 1]``, the default).
    """

    def __init__(self, bits: int = 4, lo: float = 0.0, hi: float = 1.0) -> None:
        if not 1 <= bits <= 8:
            raise IndexError_(f"bits must be in [1, 8], got {bits}")
        if hi <= lo:
            raise IndexError_(f"empty domain [{lo}, {hi}]")
        self._bits = bits
        self._cells = 1 << bits
        self._lo = float(lo)
        self._hi = float(hi)
        self._vectors: List[np.ndarray] = []
        self._approximations: List[np.ndarray] = []
        self._payloads: List[object] = []
        self._dimensions: Optional[int] = None
        #: Exact vectors touched by the most recent query (the VA-file's
        #: figure of merit: approximations answer most of the question).
        self.last_refinements = 0
        self._approx_matrix: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._payloads)

    def _cell_of(self, values: np.ndarray) -> np.ndarray:
        scaled = (values - self._lo) / (self._hi - self._lo) * self._cells
        return np.clip(scaled.astype(np.int64), 0, self._cells - 1)

    # ------------------------------------------------------------------
    def insert_point(self, coords: Sequence[float], payload: object) -> None:
        """Insert one vector with its payload."""
        vector = np.asarray(coords, dtype=np.float64)
        if vector.ndim != 1:
            raise IndexError_(f"expected a flat vector, got shape {vector.shape}")
        if (vector < self._lo - 1e-12).any() or (vector > self._hi + 1e-12).any():
            raise IndexError_(
                f"vector outside the domain [{self._lo}, {self._hi}]"
            )
        if self._dimensions is None:
            self._dimensions = int(vector.shape[0])
        elif vector.shape[0] != self._dimensions:
            raise IndexError_(
                f"dimension mismatch: file is {self._dimensions}-d, "
                f"vector is {vector.shape[0]}-d"
            )
        self._vectors.append(vector)
        self._approximations.append(self._cell_of(vector))
        self._payloads.append(payload)
        self._approx_matrix = None

    def insert(self, box: MBR, payload: object) -> None:
        """Insert a degenerate (point) box — interface parity with RTree."""
        if not np.array_equal(box.lo, box.hi):
            raise IndexError_("VA-files index points, not extended boxes")
        self.insert_point(box.lo, payload)

    def _approximation_matrix(self) -> np.ndarray:
        if self._approx_matrix is None:
            self._approx_matrix = np.stack(self._approximations)
        return self._approx_matrix

    # ------------------------------------------------------------------
    def search(self, box: MBR) -> List[object]:
        """Payloads of all points inside ``box`` (closed).

        The approximation scan is one vectorized pass over the packed
        cell matrix — the sequential-scan-of-tiny-records design that
        makes VA-files competitive; only straddling candidates touch
        their exact vectors.
        """
        if not self._payloads:
            return []
        self.last_refinements = 0
        query_lo = np.maximum(np.asarray(box.lo, dtype=np.float64), self._lo)
        query_hi = np.minimum(np.asarray(box.hi, dtype=np.float64), self._hi)

        cells = self._approximation_matrix()
        width = (self._hi - self._lo) / self._cells
        cell_lo = self._lo + cells * width
        cell_hi = cell_lo + width

        excluded = ((cell_lo > query_hi) | (cell_hi < query_lo)).any(axis=1)
        inside = ((cell_lo >= query_lo) & (cell_hi <= query_hi)).all(axis=1)

        results: List[object] = [
            self._payloads[index] for index in np.nonzero(inside & ~excluded)[0]
        ]
        for index in np.nonzero(~excluded & ~inside)[0]:
            self.last_refinements += 1
            vector = self._vectors[index]
            if ((vector >= box.lo) & (vector <= box.hi)).all():
                results.append(self._payloads[int(index)])
        return results

    def nearest(self, coords: Sequence[float], k: int = 1) -> List[Tuple[float, object]]:
        """The ``k`` nearest points by Euclidean distance, ascending.

        Two-phase VA-file search: bound distances from approximations,
        then refine candidates in ascending lower-bound order, stopping
        when the next lower bound exceeds the k-th best exact distance.
        """
        if k <= 0:
            raise IndexError_("k must be positive")
        if not self._payloads:
            return []
        query = np.asarray(coords, dtype=np.float64)
        self.last_refinements = 0

        cells = self._approximation_matrix()
        width = (self._hi - self._lo) / self._cells
        cell_lo = self._lo + cells * width
        cell_hi = cell_lo + width
        gaps = np.maximum(np.maximum(cell_lo - query, query - cell_hi), 0.0)
        lower_bounds = np.sqrt((gaps * gaps).sum(axis=1))
        candidates: List[Tuple[float, int]] = [
            (float(lower), index) for index, lower in enumerate(lower_bounds)
        ]
        heapq.heapify(candidates)

        best: List[Tuple[float, object]] = []
        while candidates:
            lower, index = heapq.heappop(candidates)
            if len(best) >= k and lower > best[k - 1][0]:
                break
            self.last_refinements += 1
            distance = float(np.linalg.norm(self._vectors[index] - query))
            best.append((distance, self._payloads[index]))
            best.sort(key=lambda item: item[0])
        return best[:k]

    def items(self) -> Iterator[Tuple[MBR, object]]:
        """Iterate every stored entry as (point box, payload)."""
        for vector, payload in zip(self._vectors, self._payloads):
            yield (MBR.point(vector), payload)

    def approximation_bytes(self) -> int:
        """Bytes the approximations occupy (the VA-file's selling point)."""
        if self._dimensions is None:
            return 0
        return len(self._payloads) * self._dimensions * self._bits // 8
