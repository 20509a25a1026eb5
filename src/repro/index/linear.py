"""Linear-scan index with the R-tree interface (the A4 baseline).

Sharing the interface lets the database swap access methods and lets the
A4 bench compare "index or not" for the conventional binary-image path
exactly as §3.1 frames it.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import IndexError_
from repro.index.mbr import MBR


class LinearIndex:
    """Stores ``(MBR, payload)`` pairs in a list; every query scans all."""

    def __init__(self) -> None:
        self._entries: List[Tuple[MBR, object]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def insert(self, box: MBR, payload: object) -> None:
        """Append one entry."""
        self._entries.append((box, payload))

    def insert_point(self, coords: Sequence[float], payload: object) -> None:
        """Append a point datum."""
        self.insert(MBR.point(coords), payload)

    def search(self, box: MBR) -> List[object]:
        """Payloads of all entries intersecting ``box``."""
        return [payload for entry_box, payload in self._entries if entry_box.intersects(box)]

    def nearest(self, coords: Sequence[float], k: int = 1) -> List[Tuple[float, object]]:
        """The ``k`` nearest entries by Euclidean MINDIST, ascending."""
        if k <= 0:
            raise IndexError_("k must be positive")
        point = np.asarray(coords, dtype=np.float64)
        scored = sorted(
            (box.min_distance_to_point(point), index)
            for index, (box, _) in enumerate(self._entries)
        )
        return [
            (distance, self._entries[index][1])
            for distance, index in scored[: min(k, len(scored))]
            if math.isfinite(distance)
        ]

    def items(self) -> Iterator[Tuple[MBR, object]]:
        """Iterate every stored entry."""
        return iter(self._entries)
