"""Index builders over catalog contents, fed by the columnar sweep.

Two families:

* :func:`build_binary_histogram_index` — the conventional §3.1 access
  method over binary-image histogram points (R-tree, VA-file, or the
  linear baseline).
* :func:`build_edited_bounds_index` — an *interval* index over edited
  images: each image contributes the box
  ``[fraction_lo, fraction_hi]^bins`` from one all-bins BOUNDS sweep
  (:meth:`repro.core.bounds.BoundsEngine.fraction_bounds_all_bins_batch`).
  Searching it with a query slab returns exactly the edited images RBM
  would accept for that range — the pruning test becomes a spatial
  lookup.  VA-files approximate points only, so interval indexes support
  ``"rtree"`` and ``"linear"``.

Both R-trees are packed in one STR pass over the snapshot's corner
arrays (:meth:`repro.index.rtree.RTree.bulk_load_boxes`; points are
boxes whose ``lo == hi``), never built by one-at-a-time insertion.
Rebuild rather than maintain: these builders snapshot the catalog (e.g.
for a read-mostly serving tier or the benchmark harness).
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

from repro.core.bounds import BoundsEngine
from repro.core.query import RangeQuery
from repro.db.catalog import Catalog
from repro.errors import IndexError_
from repro.index.linear import LinearIndex
from repro.index.mbr import MBR
from repro.index.rtree import RTree
from repro.index.vafile import VAFile

#: Index kinds usable for binary histogram points.
POINT_INDEX_KINDS = ("rtree", "vafile", "linear")

#: Index kinds usable for edited-image bounds intervals (boxes).
INTERVAL_INDEX_KINDS = ("rtree", "linear")

AnyIndex = Union[RTree, VAFile, LinearIndex]
IntervalIndex = Union[RTree, LinearIndex]


def build_binary_histogram_index(
    catalog: Catalog,
    kind: str = "rtree",
    *,
    max_entries: int = 8,
    bits: int = 4,
) -> AnyIndex:
    """Index every binary image's histogram fractions as a point.

    The R-tree is packed by :meth:`RTree.bulk_load`; VA-file and linear
    insert point by point, which is already linear time for those
    structures.
    """
    ids = list(catalog.binary_ids())
    if kind == "rtree":
        if not ids:
            return RTree(max_entries=max_entries)
        points = [catalog.histogram_of(image_id).fractions() for image_id in ids]
        return RTree.bulk_load(points, ids, max_entries=max_entries)
    if kind == "vafile":
        index: AnyIndex = VAFile(bits=bits)
    elif kind == "linear":
        index = LinearIndex()
    else:
        raise IndexError_(
            f"unknown point index kind {kind!r}; expected one of {POINT_INDEX_KINDS}"
        )
    for image_id in ids:
        index.insert_point(catalog.histogram_of(image_id).fractions(), image_id)
    return index


def build_edited_bounds_index(
    catalog: Catalog,
    engine: BoundsEngine,
    kind: str = "rtree",
    *,
    max_entries: int = 8,
) -> IntervalIndex:
    """Index every edited image's BOUNDS box from one columnar sweep.

    The box for image ``E`` spans ``[BOUND_min/size, BOUND_max/size]``
    in every bin dimension, so a single-bin query slab intersects it iff
    the §3.2 pruning test accepts ``E`` — see
    :func:`edited_range_candidates`.  The R-tree is packed from the
    sweep's rows by :meth:`RTree.bulk_load_boxes`.
    """
    if kind not in INTERVAL_INDEX_KINDS:
        raise IndexError_(
            f"unknown interval index kind {kind!r}; "
            f"expected one of {INTERVAL_INDEX_KINDS}"
        )
    edited_ids = list(catalog.edited_ids())
    bounds = engine.fraction_bounds_all_bins_batch(edited_ids)
    if kind == "rtree":
        if not edited_ids:
            return RTree(max_entries=max_entries)
        lows = np.stack([lower for lower, _ in bounds])
        highs = np.stack([upper for _, upper in bounds])
        return RTree.bulk_load_boxes(lows, highs, edited_ids, max_entries)
    index = LinearIndex()
    for image_id, (lower, upper) in zip(edited_ids, bounds):
        index.insert(MBR(lower, upper), image_id)
    return index


def edited_range_candidates(
    index: IntervalIndex, bin_count: int, query: RangeQuery
) -> List[str]:
    """Edited images a bounds-interval index cannot exclude for ``query``.

    Sorted ids whose boxes intersect the query slab — identical to the
    set of edited images RBM's per-image BOUNDS test would accept
    (property-tested against :class:`repro.core.rbm.RBMProcessor`).
    """
    slab = MBR.slab(
        bin_count,
        query.bin_index,
        query.pct_min,
        query.pct_max,
        domain_lo=0.0,
        domain_hi=1.0,
    )
    return sorted(index.search(slab))  # type: ignore[arg-type]
