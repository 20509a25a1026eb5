"""Batch range-query processing.

A retrieval front-end (or the evaluation harness) frequently submits many
range queries at once.  Processing them together amortizes the per-image
catalog walk: each binary histogram is fetched once and checked against
every query, and the edited images the batch needs are computed by *one*
columnar sweep
(:meth:`repro.core.bounds.BoundsEngine.bounds_all_bins_batch` over the
:mod:`repro.core.optable` structure-of-arrays kernel) shared by every
query in the batch, whatever bins they target.

Matching is array-shaped too: each query compares one column of the base
histograms, and one column of the ``(images x bins)`` interval matrices,
against its range.  Only where those columns come from depends on the
engine's memo.  Off, the histograms are stacked and the intervals swept
for this call alone.  On, both are rows of the memo
(:meth:`repro.core.bounds.BoundsEngine.bounds_of_rows`), addressed
through one flat order of the catalog / BWM layout (bases, members,
stragglers) that the processor keeps between calls and rebuilds after an
insert or a delete — a warm query is a validity check, one column gather per
queried bin and two compares, which is why
:class:`repro.db.database.MultimediaDatabase` answers single queries on
a memoizing engine with a batch of one.

The result sets are identical to running the queries one at a time with
the same method — property-tested in ``tests/core/test_batch.py`` and,
edge for edge against the scalar processors, in
``tests/core/test_batch_columns.py``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Collection, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.bounds import BoundsEngine, BoundsMatrix
from repro.core.bwm import BWMStructure
from repro.core.query import CatalogView, QueryResult, QueryStats, RangeQuery
from repro.errors import QueryError


def _group_by_bin(queries: Sequence[RangeQuery]) -> Dict[int, List[int]]:
    """Map each queried bin to the indices of the queries using it."""
    groups: Dict[int, List[int]] = defaultdict(list)
    for position, query in enumerate(queries):
        groups[query.bin_index].append(position)
    return groups


class _Layout(NamedTuple):
    """A catalog flattened for array reads, in one flat order: the
    cluster bases, then the filed members cluster by cluster, then the
    stragglers filed nowhere.  ``names`` holds their ids as an object
    array and, on a memoizing engine, ``rows`` their memo rows;
    ``sizes`` counts each cluster's members and ``member_cluster`` gives
    each member the index of the cluster it is filed under.
    ``clustered`` is false for RBM's layout, which has no clusters:
    every binary image a base without members, every edited image a
    straggler."""

    names: np.ndarray
    rows: Optional[np.ndarray]
    sizes: np.ndarray
    member_cluster: np.ndarray
    clustered: bool = True

    @staticmethod
    def of(
        engine: BoundsEngine,
        clusters: Sequence[Tuple[str, Collection[str]]],
        stragglers: Sequence[str],
        clustered: bool = True,
    ) -> "_Layout":
        ids = [base_id for base_id, _ in clusters]
        for _, members in clusters:
            ids.extend(members)
        ids.extend(stragglers)
        sizes = np.array([len(members) for _, members in clusters], dtype=np.int64)
        return _Layout(
            np.array(ids, dtype=object),
            engine.memo_rows(ids) if engine.cache_enabled else None,
            sizes,
            np.repeat(np.arange(len(sizes)), sizes),
            clustered,
        )


def _exact(view: CatalogView, engine: BoundsEngine, layout: _Layout) -> BoundsMatrix:
    """The bases' exact counts: memo rows, or their histograms fetched
    once and stacked (``lo`` is ``hi``)."""
    bases = len(layout.sizes)
    if layout.rows is not None:
        return engine.bounds_of_rows(layout.rows[:bases])
    histograms = [
        view.histogram_of(image_id) for image_id in layout.names[:bases].tolist()
    ]
    return BoundsMatrix.of_histograms(histograms, engine.quantizer.bin_count)


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


def _match(
    view: CatalogView,
    engine: BoundsEngine,
    layout: _Layout,
    queries: Sequence[RangeQuery],
) -> List[QueryResult]:
    """Figure 2 as a mask, for every query at once (see
    :class:`BatchBWMProcessor`); results in query order."""
    if not queries:
        raise QueryError("empty query batch")
    groups = _group_by_bin(queries)
    stats = QueryStats()
    names, rows, sizes, member_cluster, clustered = layout
    bases = len(sizes)
    members = slice(bases, bases + len(member_cluster))
    stragglers = len(names) - members.stop

    # Phase 1: base-histogram short-circuiting decides which members
    # need BOUNDS at all (pure histogram checks, no rule work).
    exact = _exact(view, engine, layout)
    stats.histograms_checked += bases
    totals = exact.totals
    accepted = np.zeros((len(queries), bases), dtype=bool)
    for bin_index, positions in groups.items():
        fraction = exact.column(bin_index)[0] / totals
        for position in positions:
            accepted[position] = _satisfied(queries[position], fraction)
    if clustered:
        stats.clusters_short_circuited += int(np.count_nonzero(accepted))
        stats.edited_accepted_without_rules += int((accepted * sizes).sum())
    member_accepted = accepted[:, member_cluster]

    # Phase 2: every member that survived short-circuiting plus the
    # stragglers — the fill set — pay one shared columnar sweep, and
    # each queried bin is gathered once over the whole flat order.
    # Slots outside the fill set read a stand-in (the first filled
    # row): their values never decide a hit, as ``accepted`` overrides
    # the bases and accepts the members of the clusters it accepted, so
    # a dirty or never-filled row is never read.
    hit = np.zeros((len(queries), len(names)), dtype=bool)
    fill = np.concatenate(
        [
            np.flatnonzero(~member_accepted.all(axis=0)) + bases,
            np.arange(members.stop, len(names)),
        ]
    )
    if len(fill):
        rules_before = engine.rules_applied
        if rows is not None:
            # Validity and columns from one memo generation: the one
            # this call checked (and filled the dirty rows of).
            bounds = engine.bounds_of_rows(rows[fill])
        else:
            bounds = engine.bounds_all_bins_batch(names[fill].tolist())
        stats.rules_applied += engine.rules_applied - rules_before
        at = np.full(len(names), bounds.rows[0])
        at[fill] = bounds.rows
        columns = bounds.over(at)
        totals = columns.totals
        for bin_index, positions in groups.items():
            lo, hi = columns.column(bin_index)
            fraction_lo, fraction_hi = lo / totals, hi / totals
            # A member's interval for this bin is read once however many
            # of the bin's queries its cluster failed.
            failed_here = ~accepted[positions].all(axis=0)
            stats.bounds_computed += int(sizes[failed_here].sum()) + stragglers
            for position in positions:
                hit[position] = _overlapping(
                    queries[position], fraction_lo, fraction_hi
                )
    hit[:, :bases] = accepted
    hit[:, members] |= member_accepted
    return [QueryResult(frozenset(names[each].tolist()), stats) for each in hit]


class _Processor:
    """What both processors share: the structure, the view, the engine,
    and a layout kept between calls while (and only while) it holds memo
    rows — without the memo nothing of one call may serve the next.

    A kept layout is current while the catalog's membership and every
    memo row's owner are: the key is the BWM structure's ``version``,
    which every insert and delete bumps, and the engine's
    ``owner_epoch``, which moves when a row is released or the memo
    flushed.  An in-place update (``update_image``, a compactor
    roll-back) only dirties rows, which the next read fills through the
    same layout.
    """

    def __init__(
        self, structure: BWMStructure, view: CatalogView, engine: BoundsEngine
    ) -> None:
        self._structure = structure
        self._view = view
        self._engine = engine
        self._kept: Optional[Tuple[Tuple[int, int], _Layout]] = None

    def _flatten(self) -> _Layout:
        raise NotImplementedError

    def _layout(self) -> _Layout:
        kept = self._kept
        key = (self._structure.version, self._engine.owner_epoch)
        if kept is None or kept[0] != key:
            kept = (key, self._flatten())
            self._kept = kept if self._engine.cache_enabled else None
        return kept[1]


class BatchRBMProcessor(_Processor):
    """RBM over a batch: one columnar sweep covers every edited image.

    It reads no clusters; the structure is there for its ``version``,
    which keys the kept layout on the catalog's membership.
    """

    name = "rbm-batch"

    def _flatten(self) -> _Layout:
        return _Layout.of(
            self._engine,
            [(base_id, ()) for base_id in self._view.binary_ids()],
            list(self._view.edited_ids()),
            clustered=False,
        )

    def process_batch(self, queries: Sequence[RangeQuery]) -> List[QueryResult]:
        """Results in query order; identical sets to one-at-a-time RBM."""
        return _match(self._view, self._engine, self._layout(), queries)


class BatchBWMProcessor(_Processor):
    """BWM over a batch, sharing one vectorized BOUNDS walk per member.

    Figure 2 as a mask: the base histograms are compared against every
    query at once, giving a ``(queries x clusters)`` table of which
    cluster each query accepts wholesale; only members of a cluster that
    fails some query (plus Unclassified) need BOUNDS, one all-bins sweep
    serves every failing query regardless of bin, and each query reads
    just the rows of the clusters it failed.
    """

    name = "bwm-batch"

    def _flatten(self) -> _Layout:
        return _Layout.of(
            self._engine,
            list(self._structure.clusters()),
            list(self._structure.unclassified),
        )

    def process_batch(self, queries: Sequence[RangeQuery]) -> List[QueryResult]:
        """Results in query order; identical sets to one-at-a-time BWM."""
        return _match(self._view, self._engine, self._layout(), queries)
