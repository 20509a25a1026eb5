"""The batch processors' column compare is the scalar path, edge for edge.

``core/batch.py`` matches by comparing one column of a stacked matrix
per queried bin instead of building a ``PixelBounds`` per image.  These
properties pin that to the paper's scalar processors
(:class:`RBMProcessor` / :class:`BWMProcessor`) and to a row-at-a-time
loop kept here as the reference for the batch's own ``QueryStats``, on
random catalogs chosen to hit the edges: thresholds sitting exactly on a
``k / total`` grid point (so ``fraction == pct_min`` and ``== pct_max``
occur), duplicate queries, several queries on one bin, an empty Main
cluster, an all-Unclassified catalog, no edited images, no binary
images.  A fixed read script runs the same checks on both engines
through first, warm and post-mutation reads with the memo's counters
pinned, and two tests hold the memo-backed match to what Figure 2 saves
(an accepted cluster's members are never filled) and to reading one
memo generation.
"""

from __future__ import annotations

import warnings
from dataclasses import astuple, replace
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.color.names import FLAG_PALETTE
from repro.core.batch import BatchBWMProcessor, BatchRBMProcessor
from repro.core.bounds import PixelBounds
from repro.core.bwm import BWMProcessor, BWMStructure
from repro.core.query import QueryStats, RangeQuery
from repro.core.rbm import RBMProcessor
from repro.db.database import MultimediaDatabase
from repro.images.generators import random_palette_image

KINDS = (
    "mixed",
    "empty-cluster",
    "all-unclassified",
    "no-edited",
    "no-binary",
)


class _EditedOnlyView:
    """A catalog view that lists no binary image (their histograms stay
    reachable: edited images still start from them)."""

    def __init__(self, catalog):
        self._catalog = catalog

    def binary_ids(self):
        return iter(())

    def edited_ids(self):
        return self._catalog.edited_ids()

    def histogram_of(self, image_id):
        return self._catalog.histogram_of(image_id)

    def sequence_of(self, image_id):
        return self._catalog.sequence_of(image_id)


def _catalog(rng: np.random.Generator, kind: str):
    """``(structure, view, engine, database)`` for one random catalog."""
    database = MultimediaDatabase()
    base_ids = [
        database.insert_image(random_palette_image(rng, 6, 8, FLAG_PALETTE))
        for _ in range(int(rng.integers(1, 5)))
    ]
    if kind != "no-edited":
        widening = {"all-unclassified": 0.0, "no-binary": 0.5}.get(kind, 0.7)
        for base_id in base_ids:
            database.augment(
                base_id,
                rng,
                variants=int(rng.integers(1, 4)),
                palette=FLAG_PALETTE,
                bound_widening_fraction=widening,
                merge_target_pool=base_ids,
            )
    if kind == "empty-cluster":
        database.insert_image(random_palette_image(rng, 6, 8, FLAG_PALETTE))
    if kind == "no-binary":
        structure = BWMStructure()
        for edited_id in database.catalog.edited_ids():
            structure.unclassified.append(edited_id)
        return structure, _EditedOnlyView(database.catalog), database.engine, database
    return database.bwm_structure, database.catalog, database.engine, database


def _grid_queries(rng: np.random.Generator, database) -> List[RangeQuery]:
    """Queries whose thresholds are fractions some stored image attains."""
    catalog, engine = database.catalog, database.engine
    bins = sorted(
        {database.quantizer.bin_of(tuple(int(v) for v in c)) for c in FLAG_PALETTE}
    )[:4]
    queries: List[RangeQuery] = []
    for bin_index in bins:
        grid = {0.0, 1.0}
        for image_id in catalog.binary_ids():
            grid.add(catalog.histogram_of(image_id).fraction(bin_index))
        for image_id in catalog.edited_ids():
            bounds = engine.bounds(image_id, bin_index)
            grid.update((bounds.fraction_lo, bounds.fraction_hi))
        points = sorted(grid)
        for _ in range(3):
            low, high = sorted(rng.choice(points, size=2).tolist())
            shape = int(rng.integers(4))
            if shape == 0:
                queries.append(RangeQuery(bin_index, low, 1.0))
            elif shape == 1:
                queries.append(RangeQuery(bin_index, 0.0, high))
            elif shape == 2:
                queries.append(RangeQuery(bin_index, low, low))
            else:
                queries.append(RangeQuery(bin_index, low, high))
    queries.append(queries[0])  # a duplicate
    order = rng.permutation(len(queries))
    return [queries[int(i)] for i in order]


def _bin_bounds(all_bins, bin_index: int) -> PixelBounds:
    lo, hi, height, width = all_bins
    return PixelBounds(int(lo[bin_index]), int(hi[bin_index]), height, width)


def _by_bin(queries) -> Dict[int, List[int]]:
    groups: Dict[int, List[int]] = {}
    for position, query in enumerate(queries):
        groups.setdefault(query.bin_index, []).append(position)
    return groups


def _loop_rbm(view, engine, queries):
    """Row-at-a-time batch RBM: one ``PixelBounds`` per image and bin."""
    groups = _by_bin(queries)
    matches = [set() for _ in queries]
    stats = QueryStats()
    for image_id in view.binary_ids():
        histogram = view.histogram_of(image_id)
        stats.histograms_checked += 1
        for bin_index, positions in groups.items():
            fraction = histogram.fraction(bin_index)
            for position in positions:
                if queries[position].pct_min <= fraction <= queries[position].pct_max:
                    matches[position].add(image_id)
    edited_ids = list(view.edited_ids())
    before = engine.rules_applied
    rows = list(engine.bounds_all_bins_batch(edited_ids))
    stats.rules_applied += engine.rules_applied - before
    for image_id, all_bins in zip(edited_ids, rows):
        for bin_index, positions in groups.items():
            bounds = _bin_bounds(all_bins, bin_index)
            stats.bounds_computed += 1
            for position in positions:
                query = queries[position]
                if bounds.overlaps(query.pct_min, query.pct_max):
                    matches[position].add(image_id)
    return [frozenset(found) for found in matches], stats


def _loop_bwm(structure, view, engine, queries):
    """Row-at-a-time batch BWM (Figure 2 per cluster, per query)."""
    groups = _by_bin(queries)
    matches = [set() for _ in queries]
    stats = QueryStats()
    failing_clusters = []
    for base_id, cluster in structure.clusters():
        histogram = view.histogram_of(base_id)
        stats.histograms_checked += 1
        failing_by_bin: Dict[int, List[int]] = {}
        for bin_index, positions in groups.items():
            fraction = histogram.fraction(bin_index)
            for position in positions:
                query = queries[position]
                if query.pct_min <= fraction <= query.pct_max:
                    matches[position].add(base_id)
                    matches[position].update(cluster)
                    stats.clusters_short_circuited += 1
                    stats.edited_accepted_without_rules += len(cluster)
                else:
                    failing_by_bin.setdefault(bin_index, []).append(position)
        if failing_by_bin and cluster:
            failing_clusters.append((list(cluster), failing_by_bin))
    needed = list(
        dict.fromkeys(
            [e for cluster, _ in failing_clusters for e in cluster]
            + list(structure.unclassified)
        )
    )
    walked = {}
    if needed:
        before = engine.rules_applied
        walked = dict(zip(needed, engine.bounds_all_bins_batch(needed)))
        stats.rules_applied += engine.rules_applied - before
    reads = [(e, f) for cluster, f in failing_clusters for e in cluster]
    reads += [(e, groups) for e in structure.unclassified]
    for edited_id, bins in reads:
        for bin_index, positions in bins.items():
            stats.bounds_computed += 1
            bounds = _bin_bounds(walked[edited_id], bin_index)
            for position in positions:
                query = queries[position]
                if bounds.overlaps(query.pct_min, query.pct_max):
                    matches[position].add(edited_id)
    return [frozenset(found) for found in matches], stats


SCRIPT_SEED = 2015
#: The ``cache_stats()`` counters the read script pins (it runs no kNN,
#: so the exact column's stay 0).
CACHE_KEYS = (
    "hits",
    "misses",
    "invalidation_calls",
    "invalidated_entries",
    "vector_entries",
)


def _twin(memo: bool) -> MultimediaDatabase:
    """The read script's catalog, the same on every call."""
    database = _catalog(np.random.default_rng(SCRIPT_SEED), "mixed")[3]
    if memo:
        database.engine.enable_memo()
    return database


def _sans_rules(stats: QueryStats) -> QueryStats:
    """Every counter but ``rules_applied``, which a warm memo zeroes."""
    return replace(stats, rules_applied=0)


def _read_script(method: str, memo: bool):
    """Read a fixed batch through mutations; per step, the engine's
    ``cache_stats()`` and ``rules_applied`` and the batch's counters.

    Every read is checked on the way against the scalar processor and
    the loop reference, both run on a memo-off twin given the same
    mutations, so nothing they do touches the engine under test.
    """
    database, twin = _twin(memo), _twin(memo=False)
    queries = _grid_queries(np.random.default_rng(SCRIPT_SEED + 1), twin)
    base_id = next(iter(twin.catalog.binary_ids()))
    sequence = twin.catalog.sequence_of(next(iter(twin.catalog.edited_ids())))
    raster = random_palette_image(
        np.random.default_rng(SCRIPT_SEED + 2), 6, 8, FLAG_PALETTE
    )
    steps = [
        ("first", None),
        ("warm", None),
        ("update_image", lambda db: db.update_image(base_id, raster)),
        ("insert_edited", lambda db: db.insert_edited(sequence, "churn-1")),
        ("delete_edited", lambda db: db.delete_edited("churn-1")),
    ]
    trace = []
    for step, mutate in steps:
        if mutate is not None:
            mutate(database)
            mutate(twin)
        if method == "bwm":
            structure = twin.bwm_structure
            scalar = BWMProcessor(structure, twin.catalog, twin.engine)
            loop = _loop_bwm(structure, twin.catalog, twin.engine, queries)
        else:
            scalar = RBMProcessor(twin.catalog, twin.engine)
            loop = _loop_rbm(twin.catalog, twin.engine, queries)
        singles = [scalar.process(query) for query in queries]
        results = database.range_query_batch(queries, method=method)
        matches = [result.matches for result in results]
        assert matches == loop[0] == [single.matches for single in singles], step
        stats = results[0].stats
        assert all(type(value) is int for value in astuple(stats)), step
        assert _sans_rules(stats) == _sans_rules(loop[1]), step
        for query, expected in zip(queries[:3], singles):
            [alone] = database.range_query_batch([query], method=method)
            assert alone.matches == expected.matches, step
            assert _sans_rules(alone.stats) == _sans_rules(expected.stats), step
            if not memo:
                assert alone.stats == expected.stats, step
        if not memo:
            assert stats == loop[1], step
        counters = database.engine.cache_stats()
        trace.append(
            (
                step,
                tuple(counters[key] for key in CACHE_KEYS),
                database.engine.rules_applied,
                astuple(stats),
            )
        )
    return trace


#: ``_read_script``'s trace — per step the ``CACHE_KEYS`` counters,
#: ``rules_applied`` and the batch's ``QueryStats`` — as the match
#: computed it when each query still gathered its own subset of rows.
PINNED_READS = {
    ('bwm', True): [
        ('first', (44, 16, 16, 0, 16), 30, (4, 46, 30, 21, 42)),
        ('warm', (104, 16, 16, 0, 16), 30, (4, 46, 0, 21, 42)),
        ('update_image', (156, 20, 17, 4, 16), 42, (4, 46, 12, 22, 44)),
        ('insert_edited', (213, 21, 18, 4, 17), 46, (4, 50, 4, 22, 50)),
        ('delete_edited', (269, 21, 19, 5, 16), 46, (4, 46, 0, 22, 44)),
    ],
    ('bwm', False): [
        ('first', (0, 0, 16, 0, 0), 112, (4, 46, 30, 21, 42)),
        ('warm', (0, 0, 16, 0, 0), 224, (4, 46, 30, 21, 42)),
        ('update_image', (0, 0, 17, 0, 0), 316, (4, 46, 30, 22, 44)),
        ('insert_edited', (0, 0, 18, 0, 0), 416, (4, 50, 34, 22, 50)),
        ('delete_edited', (0, 0, 19, 0, 0), 508, (4, 46, 30, 22, 44)),
    ],
    ('rbm', True): [
        ('first', (48, 16, 16, 0, 16), 30, (4, 48, 30, 0, 0)),
        ('warm', (112, 16, 16, 0, 16), 30, (4, 48, 0, 0, 0)),
        ('update_image', (172, 20, 17, 4, 16), 42, (4, 48, 12, 0, 0)),
        ('insert_edited', (239, 21, 18, 4, 17), 46, (4, 52, 4, 0, 0)),
        ('delete_edited', (303, 21, 19, 5, 16), 46, (4, 48, 0, 0, 0)),
    ],
    ('rbm', False): [
        ('first', (0, 0, 16, 0, 0), 120, (4, 48, 30, 0, 0)),
        ('warm', (0, 0, 16, 0, 0), 240, (4, 48, 30, 0, 0)),
        ('update_image', (0, 0, 17, 0, 0), 360, (4, 48, 30, 0, 0)),
        ('insert_edited', (0, 0, 18, 0, 0), 496, (4, 52, 34, 0, 0)),
        ('delete_edited', (0, 0, 19, 0, 0), 616, (4, 48, 30, 0, 0)),
    ],
}


class TestColumnCompareIsTheScalarPath:
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS))
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_single_and_loop_reference(self, seed, kind):
        rng = np.random.default_rng(seed)
        structure, view, engine, database = _catalog(rng, kind)
        queries = _grid_queries(rng, database)
        processors = {
            "rbm": (
                BatchRBMProcessor(structure, view, engine),
                RBMProcessor(view, engine),
                lambda: _loop_rbm(view, engine, queries),
            ),
            "bwm": (
                BatchBWMProcessor(structure, view, engine),
                BWMProcessor(structure, view, engine),
                lambda: _loop_bwm(structure, view, engine, queries),
            ),
        }
        for method, (batch, single, loop) in processors.items():
            results = batch.process_batch(queries)
            singles = [single.process(query) for query in queries]
            assert [r.matches for r in results] == [s.matches for s in singles], (
                method
            )
            loop_matches, loop_stats = loop()
            assert [r.matches for r in results] == loop_matches, method
            assert all(r.stats is results[0].stats for r in results)
            assert astuple(results[0].stats) == astuple(loop_stats), method
            # A batch of one does the scalar processor's work, count for
            # count (these catalogs have no chained edits, so the sweep
            # shares nothing the scalar walk would repeat).
            for query, expected in zip(queries[:3], singles):
                alone = batch.process_batch([query])[0]
                assert alone.matches == expected.matches, method
                assert astuple(alone.stats) == astuple(expected.stats), method

    def test_thresholds_on_the_grid_are_closed_intervals(self, rng):
        """``fraction == pct_min`` and ``== pct_max`` both match, for a
        base histogram and for an edited image's bound."""
        structure, view, engine, database = _catalog(rng, "mixed")
        base_id = next(iter(database.catalog.binary_ids()))
        histogram = database.catalog.histogram_of(base_id)
        bin_index = int(np.argmax(histogram.counts))
        exact = histogram.fraction(bin_index)
        edited_id = next(iter(database.catalog.edited_ids()))
        bounds = engine.bounds(edited_id, bin_index)
        queries = [
            RangeQuery(bin_index, exact, exact),
            RangeQuery(bin_index, bounds.fraction_hi, 1.0),
            RangeQuery(bin_index, 0.0, bounds.fraction_lo),
        ]
        for method in ("rbm", "bwm"):
            point, at_hi, at_lo = database.range_query_batch(queries, method=method)
            assert base_id in point.matches
            assert edited_id in at_hi.matches
            assert edited_id in at_lo.matches

    @pytest.mark.parametrize("memo", [True, False], ids=["memo", "no-memo"])
    @pytest.mark.parametrize("method", ["bwm", "rbm"])
    def test_reads_through_mutations_match_the_scalar_path(self, method, memo):
        """A first read, a warm one, and reads after ``update_image``,
        ``insert_edited`` and ``delete_edited``: matches and
        ``QueryStats`` against the scalar processors and the loop, and
        the engine's counters against the values pinned below."""
        assert _read_script(method, memo) == PINNED_READS[method, memo]

    def test_an_accepted_cluster_is_never_filled(self):
        """Figure 2's saving on the memo: a cluster every query of the
        batch accepts keeps its member rows dirty, while the members of
        a cluster some query failed are filled."""
        database = _twin(memo=True)
        structure = database.bwm_structure
        base_id, members = next(
            (base_id, list(cluster))
            for base_id, cluster in structure.clusters()
            if len(cluster)
        )
        histogram = database.catalog.histogram_of(base_id)
        bin_index = int(np.argmax(histogram.counts))
        exact = histogram.fraction(bin_index)
        with warnings.catch_warnings():
            # The never-filled rows are not read: no 0 / 0 to warn about.
            warnings.simplefilter("error")
            [result] = database.range_query_batch([RangeQuery(bin_index, exact, exact)])
        assert base_id in result.matches
        assert set(members) <= result.matches
        for member in members:
            assert not database.engine.has_cached_bounds(member)
        failed = [
            member
            for other, cluster in structure.clusters()
            if other not in result.matches
            for member in cluster
        ]
        assert failed
        for member in failed:
            assert database.engine.has_cached_bounds(member)

    @pytest.mark.parametrize("method", ["bwm", "rbm"])
    def test_a_growth_mid_match_reads_one_generation(self, method, monkeypatch):
        """The memo grows to a new generation between the base fill and
        the member fill, and only the new generation holds the members
        and stragglers: a match that checked validity on one generation
        and gathered from the other would read unfilled rows."""
        database, twin = _twin(memo=True), _twin(memo=False)
        engine = database.engine
        queries = _grid_queries(np.random.default_rng(SCRIPT_SEED + 1), twin)
        edited_ids = list(twin.catalog.edited_ids())
        fill = engine._fill
        grown = []

        def growing_fill(rows):
            filled = fill(rows)
            if not grown:  # the first fill: the bases, in phase 1
                while engine._memo is filled:
                    engine.memo_rows([f"ghost-{len(engine._row_ids)}"])
                grown.append(fill(engine.memo_rows(edited_ids)))
            return filled

        monkeypatch.setattr(engine, "_fill", growing_fill)
        if method == "bwm":
            scalar = BWMProcessor(twin.bwm_structure, twin.catalog, twin.engine)
        else:
            scalar = RBMProcessor(twin.catalog, twin.engine)
        expected = [scalar.process(query).matches for query in queries]
        for _ in range(2):  # the read that grew the memo, then a warm one
            results = database.range_query_batch(queries, method=method)
            assert [result.matches for result in results] == expected
        assert grown and grown[0] is engine._memo

    def test_id_filed_under_two_clusters_is_read_per_filing(self, rng):
        """A (corrupt) double filing counts a read per filing, as the
        loop does, and still yields one match."""
        structure, view, engine, database = _catalog(rng, "mixed")
        clusters = [(b, c) for b, c in structure.clusters()]
        donor = next(c for _, c in clusters if len(c))
        other = next(c for _, c in clusters if c is not donor)
        other.append(donor[0])
        queries = [RangeQuery(b, 0.9, 1.0) for b in range(3)]
        results = BatchBWMProcessor(structure, view, engine).process_batch(queries)
        loop_matches, loop_stats = _loop_bwm(structure, view, engine, queries)
        assert [r.matches for r in results] == loop_matches
        assert astuple(results[0].stats) == astuple(loop_stats)
