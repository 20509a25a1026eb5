"""Batch range-query processing.

A retrieval front-end (or the evaluation harness) frequently submits many
range queries at once.  Processing them together amortizes the per-image
catalog walk: each binary histogram is fetched once and checked against
every query, and the edited images the batch needs are computed by *one*
columnar sweep
(:meth:`repro.core.bounds.BoundsEngine.bounds_all_bins_batch` over the
:mod:`repro.core.optable` structure-of-arrays kernel) shared by every
query in the batch, whatever bins they target.

Matching is array-shaped too: base histograms are stacked once per call
and each query compares one column of them, and one column of the
sweep's ``(images x bins)`` interval matrices, against its range.

The result sets are identical to running the queries one at a time with
the same method — property-tested in ``tests/core/test_batch.py`` and,
edge for edge against the scalar processors, in
``tests/core/test_batch_columns.py``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.core.bounds import BoundsEngine
from repro.core.bwm import BWMStructure
from repro.core.optable import stack_rows
from repro.core.query import CatalogView, QueryResult, QueryStats, RangeQuery
from repro.errors import QueryError


def _group_by_bin(queries: Sequence[RangeQuery]) -> Dict[int, List[int]]:
    """Map each queried bin to the indices of the queries using it."""
    groups: Dict[int, List[int]] = defaultdict(list)
    for position, query in enumerate(queries):
        groups[query.bin_index].append(position)
    return groups


def _stack_histograms(
    view: CatalogView, image_ids: Sequence[str], bins: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(counts, totals)`` of binary images: each histogram fetched once,
    stacked into an ``(images x bins)`` matrix and a pixel-count column."""
    histograms = [view.histogram_of(image_id) for image_id in image_ids]
    counts = stack_rows([histogram.counts for histogram in histograms], bins)
    totals = np.array([histogram.total for histogram in histograms], dtype=np.int64)
    return counts, totals


# Both tests divide int64 counts by int64 pixel totals in float64, which
# is the correctly rounded quotient ``ColorHistogram.fraction`` and
# ``PixelBounds.fraction_lo`` / ``fraction_hi`` compute from Python ints
# (exact for counts below 2**53), so a threshold sitting exactly on
# ``k / total`` decides the same way as on the scalar path.
def _satisfied(query: RangeQuery, fraction: np.ndarray) -> np.ndarray:
    """Exact histograms: ``pct_min <= fraction <= pct_max`` per image."""
    return (query.pct_min <= fraction) & (fraction <= query.pct_max)


def _overlapping(
    query: RangeQuery, fraction_lo: np.ndarray, fraction_hi: np.ndarray
) -> np.ndarray:
    """The §3.2 pruning test (``PixelBounds.overlaps``) per image."""
    return (fraction_lo <= query.pct_max) & (fraction_hi >= query.pct_min)


class BatchRBMProcessor:
    """RBM over a batch: one columnar sweep covers every edited image."""

    name = "rbm-batch"

    def __init__(self, view: CatalogView, engine: BoundsEngine) -> None:
        self._view = view
        self._engine = engine

    def process_batch(self, queries: Sequence[RangeQuery]) -> List[QueryResult]:
        """Results in query order; identical sets to one-at-a-time RBM."""
        if not queries:
            raise QueryError("empty query batch")
        groups = _group_by_bin(queries)
        matches: List[Set[str]] = [set() for _ in queries]
        stats = QueryStats()

        binary_ids = list(self._view.binary_ids())
        counts, totals = _stack_histograms(
            self._view, binary_ids, self._engine.quantizer.bin_count
        )
        stats.histograms_checked += len(binary_ids)
        names = np.array(binary_ids, dtype=object)
        for bin_index, positions in groups.items():
            fraction = counts[:, bin_index] / totals
            for position in positions:
                found = _satisfied(queries[position], fraction)
                matches[position].update(names[found].tolist())

        edited_ids = list(self._view.edited_ids())
        rules_before = self._engine.rules_applied
        bounds = self._engine.bounds_all_bins_batch(edited_ids)
        stats.rules_applied += self._engine.rules_applied - rules_before
        totals = bounds.heights * bounds.widths
        names = np.array(edited_ids, dtype=object)
        for bin_index, positions in groups.items():
            fraction_lo = bounds.lo[:, bin_index] / totals
            fraction_hi = bounds.hi[:, bin_index] / totals
            stats.bounds_computed += len(edited_ids)
            for position in positions:
                found = _overlapping(queries[position], fraction_lo, fraction_hi)
                matches[position].update(names[found].tolist())

        return [QueryResult(frozenset(found), stats) for found in matches]


class BatchBWMProcessor:
    """BWM over a batch, sharing one vectorized BOUNDS walk per member.

    Figure 2 as a mask: the base histograms are compared against every
    query at once, giving a ``(queries x clusters)`` table of which
    cluster each query accepts wholesale; only members of a cluster that
    fails some query (plus Unclassified) need BOUNDS, one all-bins sweep
    serves every failing query regardless of bin, and each query reads
    just the rows of the clusters it failed.
    """

    name = "bwm-batch"

    def __init__(
        self,
        structure: BWMStructure,
        view: CatalogView,
        engine: BoundsEngine,
    ) -> None:
        self._structure = structure
        self._view = view
        self._engine = engine

    def process_batch(self, queries: Sequence[RangeQuery]) -> List[QueryResult]:
        """Results in query order; identical sets to one-at-a-time BWM."""
        if not queries:
            raise QueryError("empty query batch")
        groups = _group_by_bin(queries)
        matches: List[Set[str]] = [set() for _ in queries]
        stats = QueryStats()

        # Phase 1: base-histogram short-circuiting decides which members
        # need BOUNDS at all (pure histogram checks, no rule work).
        clusters = [
            (base_id, list(cluster)) for base_id, cluster in self._structure.clusters()
        ]
        counts, totals = _stack_histograms(
            self._view,
            [base_id for base_id, _ in clusters],
            self._engine.quantizer.bin_count,
        )
        stats.histograms_checked += len(clusters)
        sizes = np.array([len(members) for _, members in clusters], dtype=np.int64)
        accepted = np.zeros((len(queries), len(clusters)), dtype=bool)
        for bin_index, positions in groups.items():
            fraction = counts[:, bin_index] / totals
            for position in positions:
                accepted[position] = _satisfied(queries[position], fraction)
        stats.clusters_short_circuited += int(accepted.sum())
        stats.edited_accepted_without_rules += int((accepted * sizes).sum())
        for position, row in enumerate(accepted):
            found = matches[position]
            for index in np.nonzero(row)[0].tolist():
                base_id, members = clusters[index]
                found.add(base_id)
                found.update(members)

        # Phase 2: every member that survived short-circuiting plus the
        # unclassified stragglers pay one shared columnar sweep.
        filed = [
            (index, edited_id)
            for index in np.nonzero(~accepted.all(axis=0))[0].tolist()
            for edited_id in clusters[index][1]
        ]
        unclassified = list(self._structure.unclassified)
        needed = list(
            dict.fromkeys([edited_id for _, edited_id in filed] + unclassified)
        )
        if not needed:
            return [QueryResult(frozenset(found), stats) for found in matches]
        rules_before = self._engine.rules_applied
        bounds = self._engine.bounds_all_bins_batch(needed)
        stats.rules_applied += self._engine.rules_applied - rules_before

        totals = bounds.heights * bounds.widths
        names = np.array(needed, dtype=object)
        slot_of = {edited_id: slot for slot, edited_id in enumerate(needed)}
        member_cluster = np.array([index for index, _ in filed], dtype=np.int64)
        member_slot = np.array([slot_of[e] for _, e in filed], dtype=np.int64)
        straggler_slot = np.array([slot_of[e] for e in unclassified], dtype=np.int64)
        for bin_index, positions in groups.items():
            fraction_lo = bounds.lo[:, bin_index] / totals
            fraction_hi = bounds.hi[:, bin_index] / totals
            # A member's interval for this bin is read once however many
            # of the bin's queries its cluster failed.
            failed_here = ~accepted[positions].all(axis=0)
            stats.bounds_computed += int(sizes[failed_here].sum()) + len(unclassified)
            for position in positions:
                # The rows this query reads: members of the clusters it
                # failed, then Unclassified.
                slots = np.concatenate(
                    [member_slot[~accepted[position, member_cluster]], straggler_slot]
                )
                found = _overlapping(
                    queries[position], fraction_lo[slots], fraction_hi[slots]
                )
                matches[position].update(names[slots[found]].tolist())

        return [QueryResult(frozenset(found), stats) for found in matches]
        rules_before = self._engine.rules_applied
        bounds = self._engine.bounds_all_bins_batch(needed)
        stats.rules_applied += self._engine.rules_applied - rules_before

        totals = bounds.heights * bounds.widths
        names = np.array(needed, dtype=object)
        member_slot = np.array(filed_slot, dtype=np.int64)
        member_cluster = np.array(filed_cluster, dtype=np.int64)
        straggler_slot = np.array(
            [slot_of[edited_id] for edited_id in unclassified], dtype=np.int64
        )
        for bin_index, positions in groups.items():
            fraction_lo = bounds.lo[:, bin_index] / totals
            fraction_hi = bounds.hi[:, bin_index] / totals
            for position in positions:
                # The rows this query reads: members of the clusters it
                # failed, then Unclassified.
                slots = np.concatenate(
                    [member_slot[~accepted[position, member_cluster]], straggler_slot]
                )
                found = _overlapping(
                    queries[position], fraction_lo[slots], fraction_hi[slots]
                )
                matches[position].update(names[slots[found]].tolist())

        return [QueryResult(frozenset(found), stats) for found in matches]
