"""Similarity results are byte-identical to the scalar per-bin path.

Reimplements the pre-vectorization algorithms (per-bin scalar BOUNDS
walks, sort-per-insertion k-best) verbatim and checks the production
``knn_bounded`` / ``range_search`` / ``knn_intersection`` return the
exact same ``(float, id)`` tuples — not approximately: the vectorized
fraction matrix must reproduce the identical IEEE doubles — and the same
``KNNStats``, on a memo-off engine and on a memoizing one cold, warm and
partly warm.  The references also name the images they refine, in
order: exactly those the memo does not hold must be instantiated.
"""

import heapq
import math
from typing import List, NamedTuple, Tuple

import numpy as np
import pytest

from repro.color.histogram import ColorHistogram
from repro.color.names import FLAG_PALETTE
from repro.color.similarity import histogram_intersection, l1_distance
from repro.db.database import MultimediaDatabase
from repro.db.processors import _BLOCK_ROWS, KNNStats, SimilaritySearch
from repro.errors import QueryError
from repro.images.generators import random_palette_image
from tests.oracles import intersection_upper_bound, l1_lower_bound


class Reference(NamedTuple):
    """A reference answer, its work counters, and the edited ids it
    refined in refinement order."""

    neighbors: Tuple[Tuple[float, str], ...]
    stats: KNNStats
    refined: List[str]


def _reference(catalog, best, refined):
    """Every edited image the reference did not refine was pruned."""
    binary, edited = len(list(catalog.binary_ids())), len(list(catalog.edited_ids()))
    stats = KNNStats(binary + edited, edited - len(refined), len(refined))
    return Reference(tuple(best), stats, refined)


def scalar_fraction_bounds(engine, image_id, bin_count):
    """The old per-bin loop: one scalar walk per bin."""
    lower = np.empty(bin_count)
    upper = np.empty(bin_count)
    for bin_index in range(bin_count):
        bounds = engine.bounds(image_id, bin_index)
        lower[bin_index] = bounds.fraction_lo
        upper[bin_index] = bounds.fraction_hi
    return lower, upper


def reference_knn_bounded(database, query, k, catalog=None):
    """The pre-vectorization knn_bounded, including sort-per-insertion."""
    engine, catalog = database.engine, catalog or database.catalog
    query_fractions = query.fractions()
    bin_count = query.quantizer.bin_count
    best = [
        (l1_distance(query, catalog.histogram_of(image_id)), image_id)
        for image_id in catalog.binary_ids()
    ]
    best.sort()
    candidates = []
    for image_id in catalog.edited_ids():
        lower, upper = scalar_fraction_bounds(engine, image_id, bin_count)
        candidates.append((l1_lower_bound(query_fractions, lower, upper), image_id))
    heapq.heapify(candidates)
    refined = []
    while candidates:
        bound, image_id = heapq.heappop(candidates)
        kth = best[k - 1][0] if len(best) >= k else float("inf")
        if bound > kth:
            break
        refined.append(image_id)
        histogram = ColorHistogram.of_image(
            database.instantiate(image_id), query.quantizer
        )
        best.append((l1_distance(query, histogram), image_id))
        best.sort()
    return _reference(catalog, best[:k], refined)


def reference_range_search(database, query, epsilon, catalog=None):
    engine, catalog = database.engine, catalog or database.catalog
    query_fractions = query.fractions()
    bin_count = query.quantizer.bin_count
    matches = []
    for image_id in catalog.binary_ids():
        distance = l1_distance(query, catalog.histogram_of(image_id))
        if distance <= epsilon:
            matches.append((distance, image_id))
    refined = []
    for image_id in catalog.edited_ids():
        lower, upper = scalar_fraction_bounds(engine, image_id, bin_count)
        if l1_lower_bound(query_fractions, lower, upper) > epsilon:
            continue
        refined.append(image_id)
        histogram = ColorHistogram.of_image(
            database.instantiate(image_id), query.quantizer
        )
        distance = l1_distance(query, histogram)
        if distance <= epsilon:
            matches.append((distance, image_id))
    return _reference(catalog, sorted(matches), refined)


def reference_knn_intersection(database, query, k, catalog=None):
    engine, catalog = database.engine, catalog or database.catalog
    query_fractions = query.fractions()
    bin_count = query.quantizer.bin_count
    best = [
        (-histogram_intersection(query, catalog.histogram_of(image_id)), image_id)
        for image_id in catalog.binary_ids()
    ]
    best.sort()
    candidates = []
    for image_id in catalog.edited_ids():
        _, upper = scalar_fraction_bounds(engine, image_id, bin_count)
        candidates.append(
            (-intersection_upper_bound(query_fractions, upper), image_id)
        )
    heapq.heapify(candidates)
    refined = []
    while candidates:
        negative_bound, image_id = heapq.heappop(candidates)
        kth = -best[k - 1][0] if len(best) >= k else -1.0
        if -negative_bound < kth:
            break
        refined.append(image_id)
        histogram = ColorHistogram.of_image(
            database.instantiate(image_id), query.quantizer
        )
        best.append((-histogram_intersection(query, histogram), image_id))
        best.sort()
    neighbors = [(-negative, image_id) for negative, image_id in best[:k]]
    return _reference(catalog, neighbors, refined)


def build(bounds_cache=False, bases=5, variants=3):
    """The corpus: one seed, so every build holds the same images."""
    rng = np.random.default_rng(20060607)
    database = MultimediaDatabase(bounds_cache=bounds_cache)
    for seed in range(bases):
        base = database.insert_image(random_palette_image(rng, 9, 11, FLAG_PALETTE))
        database.augment(base, np.random.default_rng(seed), variants, FLAG_PALETTE)
    queries = [
        ColorHistogram.of_image(
            random_palette_image(rng, 9, 11, FLAG_PALETTE), database.quantizer
        )
        for _ in range(4)
    ]
    return database, queries


@pytest.fixture(scope="module")
def corpus():
    return build()


class TestByteIdenticalResults:
    @pytest.mark.parametrize("k", [1, 3, 7, 50])
    def test_knn_bounded(self, corpus, k):
        database, queries = corpus
        for query in queries:
            expected = reference_knn_bounded(database, query, k)
            got = database.knn(query, k, method="bounded")
            assert got.neighbors == expected.neighbors  # exact floats and order
            assert got.stats == expected.stats

    @pytest.mark.parametrize("epsilon", [0.0, 0.2, 0.8, 2.0])
    def test_range_search(self, corpus, epsilon):
        database, queries = corpus
        for query in queries:
            expected = reference_range_search(database, query, epsilon)
            got = database.similarity_range(query, epsilon)
            assert got.neighbors == expected.neighbors
            assert got.stats == expected.stats

    @pytest.mark.parametrize("k", [1, 4, 50])
    def test_knn_intersection(self, corpus, k):
        database, queries = corpus
        for query in queries:
            expected = reference_knn_intersection(database, query, k)
            got = database.knn(query, k, method="intersection")
            assert got.neighbors == expected.neighbors
            assert got.stats == expected.stats


class _Spy:
    """An instantiator that records which ids it was asked for."""

    def __init__(self, database):
        self._instantiate = database.instantiate
        self.calls = []

    def __call__(self, image_id):
        self.calls.append(image_id)
        return self._instantiate(image_id)


class _Hidden:
    """A catalog that shows ``SimilaritySearch`` only some of its images;
    the engine still reads the whole store."""

    def __init__(self, catalog, binary=True, edited=None):
        self._catalog = catalog
        self._binary = binary
        self._edited = edited

    def binary_ids(self):
        return list(self._catalog.binary_ids()) if self._binary else []

    def edited_ids(self):
        return list(self._catalog.edited_ids())[: self._edited]

    def histogram_of(self, image_id):
        return self._catalog.histogram_of(image_id)


CALLS = {
    "knn_bounded": (reference_knn_bounded, SimilaritySearch.knn_bounded),
    "knn_intersection": (reference_knn_intersection, SimilaritySearch.knn_intersection),
    "range_search": (reference_range_search, SimilaritySearch.range_search),
}


def held(database):
    """Edited ids whose exact histogram the memo holds."""
    engine, edited = database.engine, list(database.catalog.edited_ids())
    positions, _ = engine.exact_of_rows(engine.memo_rows(edited), engine.memo_epoch)
    return {edited[p] for p in positions.tolist()}


class TestWorkCountersThroughTheMemo:
    """A memoizing engine gives the memo-off reference's tuples and
    counters cold, warm and partly warm, and instantiates exactly the
    refined candidates its exact column does not hold, in the order the
    reference refines them."""

    @pytest.mark.parametrize("state", ["cold", "warm", "partly_warm"])
    @pytest.mark.parametrize(
        "name, parameter",
        [
            ("knn_bounded", 1),
            ("knn_bounded", 7),
            ("knn_bounded", 50),
            ("knn_intersection", 4),
            ("range_search", 0.2),
            ("range_search", 0.8),
        ],
    )
    def test_states(self, corpus, name, parameter, state):
        plain, queries = corpus
        cached, _ = build(bounds_cache=True)
        reference, method = CALLS[name]
        spy = _Spy(cached)
        search = SimilaritySearch(cached.catalog, cached.engine, spy)
        base = next(iter(cached.catalog.binary_ids()))
        for query in queries:
            expected = reference(plain, query, parameter)
            cached.engine.invalidate_cache()
            if state != "cold":
                search.range_search(query, math.inf)  # every edited image held
            if state == "partly_warm":
                before = held(cached)
                cached.engine.invalidate(base)
                dirtied = before - held(cached)
                assert dirtied
            spy.calls.clear()
            got = method(search, query, parameter)
            assert got.neighbors == expected.neighbors
            assert got.stats == expected.stats
            if state == "cold":
                assert spy.calls == expected.refined
            elif state == "warm":
                assert spy.calls == []
            else:
                assert spy.calls == [i for i in expected.refined if i in dirtied]


def search_of(database, catalog=None):
    """A search over ``database`` — or over ``catalog``, a view of it."""
    catalog = catalog or database.catalog
    return SimilaritySearch(catalog, database.engine, database.instantiate)


def size(catalog):
    return len(list(catalog.binary_ids())) + len(list(catalog.edited_ids()))


def answer(result):
    return result.neighbors, result.stats


class TestArrayPathEdges:
    def test_equal_scores_straddle_the_kth_place(self):
        database = MultimediaDatabase(bounds_cache=True)
        rng = np.random.default_rng(7)
        image = random_palette_image(rng, 9, 11, FLAG_PALETTE)
        for base in [database.insert_image(image) for _ in range(3)]:
            # The same variants of each copy: equal bounds and scores.
            database.augment(base, np.random.default_rng(1), 3, FLAG_PALETTE)
        other = random_palette_image(rng, 9, 11, FLAG_PALETTE)
        database.augment(database.insert_image(other), rng, 3, FLAG_PALETTE)
        query = ColorHistogram.of_image(image, database.quantizer)
        search, total = search_of(database), size(database.catalog)
        for k in range(1, total + 1):
            for name in ("knn_bounded", "knn_intersection"):
                reference, method = CALLS[name]
                expected = reference(database, query, k)
                for _ in range(2):  # cold, then warm
                    assert answer(method(search, query, k)) == expected[:2]
        truth = reference_knn_bounded(database, query, total).neighbors
        distances = [distance for distance, _ in truth]
        assert len(set(distances)) < len(distances) // 2  # ties are the point

    @pytest.mark.parametrize("bounds_cache", [False, True])
    def test_k_at_least_the_catalog_refines_everything(self, corpus, bounds_cache):
        plain, queries = corpus
        database = build(bounds_cache)[0] if bounds_cache else plain
        search, total = search_of(database), size(plain.catalog)
        for k in (total, total + 1, 10**9):
            for name in ("knn_bounded", "knn_intersection"):
                reference, method = CALLS[name]
                got = method(search, queries[0], k)
                assert answer(got) == reference(plain, queries[0], k)[:2]
                assert len(got.neighbors) == total
                assert got.stats.edited_pruned == 0

    @pytest.mark.parametrize("bounds_cache", [False, True])
    @pytest.mark.parametrize("binary, edited", [(False, None), (True, 0), (False, 0)])
    def test_no_binary_or_no_edited_images(self, corpus, bounds_cache, binary, edited):
        plain, queries = corpus
        database = build(bounds_cache)[0]
        search = search_of(database, _Hidden(database.catalog, binary, edited))
        view = _Hidden(plain.catalog, binary, edited)
        calls = (("knn_bounded", 3), ("knn_intersection", 3), ("range_search", 0.8))
        for query in queries:
            for name, parameter in calls:
                reference, method = CALLS[name]
                expected = reference(plain, query, parameter, view)
                assert answer(method(search, query, parameter)) == expected[:2]

    @pytest.mark.parametrize("bounds_cache", [False, True])
    @pytest.mark.parametrize(
        "edited", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1]
    )
    def test_bounds_equal_the_scalar_functions_across_block_edges(
        self, bounds_cache, edited
    ):
        database, queries = build(bounds_cache, bases=20, variants=13)
        catalog = database.catalog
        assert len(list(catalog.edited_ids())) > _BLOCK_ROWS
        search = search_of(database, _Hidden(catalog, True, edited))
        for query in queries[:2]:
            q = query.fractions()
            for intersection in (False, True):
                binary_ids, exact, refinement = search._rank(query, intersection)
                assert len(refinement.ids) == edited
                for image_id, score in zip(binary_ids, exact.tolist()):
                    histogram = catalog.histogram_of(image_id)
                    if intersection:
                        assert score == -histogram_intersection(query, histogram)
                    else:
                        assert score == l1_distance(query, histogram)
                for image_id, bound in zip(refinement.ids, refinement.bound.tolist()):
                    engine = database.engine
                    (lower, upper), = engine.fraction_bounds_all_bins_batch((image_id,))
                    if intersection:
                        assert bound == -intersection_upper_bound(q, upper)
                    else:
                        assert bound == l1_lower_bound(q, lower, upper)


@pytest.mark.parametrize("k", [2.5, math.inf, 1e9, True, False, "3", None])
def test_a_k_that_is_not_a_positive_integer_is_a_query_error(corpus, k):
    database, queries = corpus
    for method in ("bounded", "intersection", "exact", "binary"):
        with pytest.raises(QueryError):
            database.knn(queries[0], k, method=method)
    assert database.knn(queries[0], np.int64(3)) == database.knn(queries[0], 3)
