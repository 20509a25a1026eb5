"""Matrix ranking returns what one scalar call per image returned.

``SimilaritySearch`` scores every binary image and bounds every edited
image in one array expression each.  The reference below is the loop it
replaced — ``l1_distance`` / ``l1_lower_bound`` /
``histogram_intersection`` / ``intersection_upper_bound`` once per image —
and the results must be the same tuples (same doubles, ties by id) with
the same work counters, since the bounds decide who gets instantiated.
"""

import heapq

import numpy as np
import pytest

from repro.color.histogram import ColorHistogram
from repro.color.names import FLAG_PALETTE
from repro.color.similarity import histogram_intersection, l1_distance
from repro.db.database import MultimediaDatabase
from repro.editing.operations import Combine, Define, Modify, Mutate
from repro.editing.sequence import EditSequence
from repro.images.generators import random_palette_image
from repro.images.raster import Image
from repro.workloads.datasets import build_flag_database
from tests.oracles import intersection_upper_bound, l1_lower_bound


def exact_histogram(database, image_id, query):
    return ColorHistogram.of_image(database.instantiate(image_id), query.quantizer)


def reference_k_best(database, query, k, intersection):
    """Per-image scalar scoring, sort-per-insertion k-best, explicit counters."""
    catalog = database.catalog
    q = query.fractions()
    if intersection:
        def score(histogram):
            return -histogram_intersection(query, histogram)

        def bound(lower, upper):
            return -intersection_upper_bound(q, upper)
    else:
        def score(histogram):
            return l1_distance(query, histogram)

        def bound(lower, upper):
            return l1_lower_bound(q, lower, upper)

    best = sorted((score(catalog.histogram_of(i)), i) for i in catalog.binary_ids())
    edited_ids = list(catalog.edited_ids())
    rows = database.engine.fraction_bounds_all_bins_batch(edited_ids)
    candidates = [(bound(lo, hi), i) for i, (lo, hi) in zip(edited_ids, rows)]
    heapq.heapify(candidates)
    considered = len(best) + len(candidates)
    pruned = instantiated = 0
    while candidates:
        lowest, image_id = heapq.heappop(candidates)
        kth = best[k - 1][0] if len(best) >= k else float("inf")
        if lowest > kth:
            pruned = 1 + len(candidates)
            break
        instantiated += 1
        best.append((score(exact_histogram(database, image_id, query)), image_id))
        best.sort()
    sign = -1.0 if intersection else 1.0
    neighbors = tuple((sign * value, image_id) for value, image_id in best[:k])
    return neighbors, (considered, pruned, instantiated)


def reference_range(database, query, epsilon):
    catalog = database.catalog
    q = query.fractions()
    matches = []
    considered = pruned = instantiated = 0
    for image_id in catalog.binary_ids():
        considered += 1
        distance = l1_distance(query, catalog.histogram_of(image_id))
        if distance <= epsilon:
            matches.append((distance, image_id))
    edited_ids = list(catalog.edited_ids())
    rows = database.engine.fraction_bounds_all_bins_batch(edited_ids)
    for image_id, (lower, upper) in zip(edited_ids, rows):
        considered += 1
        if l1_lower_bound(q, lower, upper) > epsilon:
            pruned += 1
            continue
        instantiated += 1
        distance = l1_distance(query, exact_histogram(database, image_id, query))
        if distance <= epsilon:
            matches.append((distance, image_id))
    return tuple(sorted(matches)), (considered, pruned, instantiated)


def counters(stats):
    return (stats.candidates_considered, stats.edited_pruned, stats.edited_instantiated)


def brute_force(database, query):
    """Every image scored exactly, ascending by ``(distance, id)``."""
    catalog = database.catalog
    scored = [(l1_distance(query, catalog.histogram_of(i)), i) for i in catalog.binary_ids()]
    scored += [
        (l1_distance(query, exact_histogram(database, i, query)), i)
        for i in catalog.edited_ids()
    ]
    return sorted(scored)


# ----------------------------------------------------------------------
# Catalogs
# ----------------------------------------------------------------------
def tied_catalog():
    """Duplicate bases and identical variants: most distances tie."""
    rng = np.random.default_rng(5)
    database = MultimediaDatabase()
    rasters = [random_palette_image(rng, 9, 11, FLAG_PALETTE) for _ in range(3)]
    variants = (
        (Define.of(1, 1, 6, 8), Modify(FLAG_PALETTE[0], FLAG_PALETTE[3])),
        (Define.of(0, 0, 4, 11), Combine.box()),
        (Define.of(2, 2, 7, 9), Mutate.translation(1, -2)),
    )
    # Ids are allocated in insertion order; interleaving the copies means
    # a tie is never already in id order by construction.
    for raster in rasters + rasters[::-1] + rasters:
        base = database.insert_image(raster)
        for operations in variants + variants[:1]:
            database.insert_edited(EditSequence(base, operations))
    queries = [
        ColorHistogram.of_image(image, database.quantizer)
        for image in rasters + [random_palette_image(rng, 9, 11, FLAG_PALETTE)]
    ]
    return database, queries


def parity_corpus():
    """The fixture of ``test_similarity_parity.py``."""
    rng = np.random.default_rng(20060607)
    database = MultimediaDatabase()
    for seed in range(5):
        base = database.insert_image(random_palette_image(rng, 9, 11, FLAG_PALETTE))
        database.augment(base, np.random.default_rng(seed), 3, FLAG_PALETTE)
    queries = [
        ColorHistogram.of_image(
            random_palette_image(rng, 9, 11, FLAG_PALETTE), database.quantizer
        )
        for _ in range(4)
    ]
    return database, queries


def processors_corpus():
    """``tests/conftest.py``'s ``small_database``, queried with its own bases."""
    rng = np.random.default_rng(20060402)
    database = MultimediaDatabase()
    base_ids = [
        database.insert_image(random_palette_image(rng, 14, 18, FLAG_PALETTE))
        for _ in range(4)
    ]
    for base_id in base_ids:
        database.augment(
            base_id, rng, variants=3, palette=FLAG_PALETTE,
            bound_widening_fraction=0.67, merge_target_pool=base_ids,
        )
    queries = [database.catalog.histogram_of(base_id) for base_id in base_ids[:2]]
    return database, queries


def extensions_corpus():
    """The flag database of ``test_extensions.py``."""
    database = build_flag_database(np.random.default_rng(13), scale=0.04)
    base_ids = list(database.catalog.binary_ids())
    return database, [database.catalog.histogram_of(i) for i in base_ids[:3]]


@pytest.fixture(
    scope="module",
    params=[tied_catalog, parity_corpus, processors_corpus, extensions_corpus],
    ids=lambda build: build.__name__,
)
def corpus(request):
    return request.param()


# ----------------------------------------------------------------------
class TestSameTuplesSameWork:
    @pytest.mark.parametrize("k", [1, 4, 7, 200])
    def test_knn_bounded(self, corpus, k):
        database, queries = corpus
        for query in queries:
            neighbors, work = reference_k_best(database, query, k, intersection=False)
            got = database.knn(query, k, method="bounded")
            assert got.neighbors == neighbors
            assert counters(got.stats) == work

    @pytest.mark.parametrize("k", [1, 4, 7, 200])
    def test_knn_intersection(self, corpus, k):
        database, queries = corpus
        for query in queries:
            neighbors, work = reference_k_best(database, query, k, intersection=True)
            got = database.knn(query, k, method="intersection")
            assert got.neighbors == neighbors
            assert counters(got.stats) == work

    @pytest.mark.parametrize("epsilon", [0.0, 0.2, 0.6, 1.1, 2.0])
    def test_range_search(self, corpus, epsilon):
        database, queries = corpus
        for query in queries:
            matches, work = reference_range(database, query, epsilon)
            got = database.similarity_range(query, epsilon)
            assert got.neighbors == matches
            assert counters(got.stats) == work


class TestTies:
    def test_ties_resolve_by_id_like_exact_and_brute_force(self):
        database, queries = tied_catalog()
        for query in queries:
            truth = brute_force(database, query)
            distances = [distance for distance, _ in truth]
            assert len(set(distances)) < len(distances) // 2  # ties are the point
            for k in (1, 2, 5, 13, len(truth)):
                assert database.knn(query, k, method="bounded").neighbors == tuple(truth[:k])
                assert database.knn(query, k, method="exact").neighbors == tuple(truth[:k])
            for epsilon in sorted(set(distances))[:4]:
                expected = tuple(item for item in truth if item[0] <= epsilon)
                assert database.similarity_range(query, epsilon).neighbors == expected

    def test_intersection_ties_resolve_by_id(self):
        database, queries = tied_catalog()
        catalog = database.catalog
        for query in queries:
            scored = [
                (-histogram_intersection(query, catalog.histogram_of(i)), i)
                for i in catalog.binary_ids()
            ] + [
                (-histogram_intersection(query, exact_histogram(database, i, query)), i)
                for i in catalog.edited_ids()
            ]
            truth = tuple((-negative, i) for negative, i in sorted(scored))
            for k in (1, 3, 8, len(truth)):
                assert database.knn(query, k, method="intersection").neighbors == truth[:k]


class TestDegenerateCatalogs:
    def test_empty_and_binary_only(self):
        database = MultimediaDatabase()
        query = ColorHistogram.of_image(Image.filled(3, 3, (1, 2, 3)), database.quantizer)
        for method in ("bounded", "intersection"):
            assert database.knn(query, 3, method=method).neighbors == ()
        assert database.similarity_range(query, 2.0).neighbors == ()
        only = database.insert_image(Image.filled(3, 3, (1, 2, 3)))
        assert database.knn(query, 3, method="bounded").neighbors == ((0.0, only),)
        assert database.knn(query, 3, method="intersection").neighbors == ((1.0, only),)
        result = database.similarity_range(query, 0.0)
        assert result.neighbors == ((0.0, only),)
        assert counters(result.stats) == (1, 0, 0)
