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
images.
"""

from __future__ import annotations

from dataclasses import astuple
from typing import Dict, List

import numpy as np
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


class TestColumnCompareIsTheScalarPath:
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS))
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_single_and_loop_reference(self, seed, kind):
        rng = np.random.default_rng(seed)
        structure, view, engine, database = _catalog(rng, kind)
        queries = _grid_queries(rng, database)
        processors = {
            "rbm": (
                BatchRBMProcessor(view, engine),
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
