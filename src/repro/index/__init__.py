"""Multidimensional access methods: R-tree, VA-file, linear baseline.

Each inserts and searches; none deletes.  :mod:`repro.index.builders`
adds catalog-level builders that index a whole snapshot at once:
bulk-loaded point indexes over binary histograms and interval indexes
over edited images' vectorized BOUNDS boxes.  A front end that writes
rebuilds them rather than editing them in place.
"""

from repro.index.builders import (
    build_binary_histogram_index,
    build_edited_bounds_index,
    edited_range_candidates,
)
from repro.index.linear import LinearIndex
from repro.index.mbr import MBR
from repro.index.rtree import RTree
from repro.index.vafile import VAFile

__all__ = [
    "LinearIndex",
    "MBR",
    "RTree",
    "VAFile",
    "build_binary_histogram_index",
    "build_edited_bounds_index",
    "edited_range_candidates",
]
