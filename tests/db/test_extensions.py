"""Tests for the extension features: conjunctive queries, intersection
kNN, and the bounds cache."""

import numpy as np
import pytest

from repro.core.query import ConjunctiveQuery, RangeQuery
from repro.db.database import MultimediaDatabase
from repro.errors import QueryError
from repro.workloads.datasets import build_flag_database
from repro.workloads.queries import make_query_workload


@pytest.fixture(scope="module")
def database():
    return build_flag_database(np.random.default_rng(13), scale=0.04)


class TestConjunctiveQueries:
    def test_requires_constraints(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery(())

    def test_rejects_non_range_constraints(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery(("at least 25% blue",))

    def test_single_constraint_equals_range_query(self, database):
        constraint = RangeQuery.at_least(0, 0.2)
        conjunctive = database.conjunctive_query(ConjunctiveQuery((constraint,)))
        plain = database.range_query(constraint)
        assert conjunctive.matches == plain.matches

    def test_intersection_semantics(self, database):
        a = RangeQuery.at_least(0, 0.1)
        b = RangeQuery.at_most(5, 0.4)
        combined = database.conjunctive_query(ConjunctiveQuery((a, b)))
        expected = (
            database.range_query(a).matches & database.range_query(b).matches
        )
        assert combined.matches == expected

    def test_no_false_negatives_against_exact(self, database):
        a = RangeQuery.at_least(0, 0.1)
        b = RangeQuery.at_most(5, 0.4)
        conjunction = ConjunctiveQuery((a, b))
        conservative = database.conjunctive_query(conjunction).matches
        exact = database.conjunctive_query(conjunction, method="instantiate").matches
        assert exact <= conservative

    def test_work_counters_are_summed_over_constraints(self, database):
        """One AND-merge for the database and the service: the reported
        work is every constraint's, not the first constraint's."""
        from repro.service import QueryService

        a = RangeQuery.at_least(0, 0.1)
        b = RangeQuery.at_most(5, 0.4)
        parts = [database.range_query(q, method="instantiate") for q in (a, b)]
        combined = database.conjunctive_query(
            ConjunctiveQuery((a, b)), method="instantiate"
        )
        assert combined.stats.histograms_checked == sum(
            part.stats.histograms_checked for part in parts
        )
        assert combined.stats.histograms_checked == 2 * len(database)
        # A batch pass shares one stats object between its results; the
        # pass is counted once, not once per constraint.
        for method in ("rbm", "bwm"):
            batch = database.range_query_batch([a, b], method=method)
            merged = database.conjunctive_query(ConjunctiveQuery((a, b)), method=method)
            assert merged.stats == batch[0].stats
        # The service goes through the same merge.
        with QueryService(database, max_workers=1) as service:
            outcome = service.execute([a, b], strategy="vectorized_batch")
        assert outcome.result.stats.histograms_checked == sum(
            database.range_query(q, method="rbm").stats.histograms_checked
            for q in (a, b)
        )

    def test_matches_histogram_all_semantics(self, database):
        base = next(iter(database.catalog.binary_ids()))
        histogram = database.catalog.histogram_of(base)
        bin_index = histogram.dominant_bins(1)[0]
        fraction = histogram.fraction(bin_index)
        holds = RangeQuery(bin_index, max(0, fraction - 0.01), min(1, fraction + 0.01))
        fails = RangeQuery(bin_index, min(1.0, fraction + 0.5), 1.0)
        assert ConjunctiveQuery((holds,)).matches_histogram(histogram)
        assert not ConjunctiveQuery((holds, fails)).matches_histogram(histogram)

    def test_conjunctive_text_query(self, database):
        combined = database.text_query("at least 10% red and at most 80% white")
        red = database.text_query("at least 10% red")
        white = database.text_query("at most 80% white")
        assert combined.matches == red.matches & white.matches

    def test_expand_to_bases(self, database):
        combined = database.text_query(
            "at least 10% red and at most 80% white", expand_to_bases=True
        )
        plain = database.text_query("at least 10% red and at most 80% white")
        assert plain.matches <= combined.matches


class TestIntersectionKNN:
    def test_matches_exact_ranking(self, database):
        rng = np.random.default_rng(4)
        for _ in range(4):
            base_ids = list(database.catalog.binary_ids())
            probe = database.instantiate(base_ids[int(rng.integers(len(base_ids)))])
            exact = database.knn(probe, 4, method="exact")
            intersection = database.knn(probe, 4, method="intersection")
            # L1 and intersection induce the same order over normalized
            # histograms (l1 = 2 * (1 - intersection)); the two result
            # score sequences must therefore correspond.  Ids may differ
            # only where scores tie.
            for (distance, id_l1), (similarity, id_int) in zip(
                exact.neighbors, intersection.neighbors
            ):
                assert distance == pytest.approx(2.0 * (1.0 - similarity), abs=1e-9)

    def test_scores_are_similarities(self, database):
        base = next(iter(database.catalog.binary_ids()))
        result = database.knn(database.instantiate(base), 3, method="intersection")
        scores = [score for score, _ in result.neighbors]
        assert scores[0] == pytest.approx(1.0)  # self-match
        assert scores == sorted(scores, reverse=True)
        assert all(0.0 <= score <= 1.0 + 1e-9 for score in scores)

    def test_prunes_some_candidates(self, database):
        base = next(iter(database.catalog.binary_ids()))
        result = database.knn(database.instantiate(base), 2, method="intersection")
        assert (
            result.stats.edited_instantiated + result.stats.edited_pruned
            >= database.catalog.edited_count
        )


class TestBoundsCache:
    def test_cache_hits_accumulate(self):
        database = build_flag_database(
            np.random.default_rng(5), scale=0.03, **{}
        )
        cached = MultimediaDatabase(bounds_cache=True)
        # Rebuild the same content into a cache-enabled instance.
        for image_id in database.catalog.binary_ids():
            cached.insert_image(database.instantiate(image_id), image_id=image_id)
        for image_id in database.catalog.edited_ids():
            cached.insert_edited(
                database.catalog.sequence_of(image_id), image_id=image_id
            )
        query = RangeQuery.at_least(0, 0.2)
        first = cached.range_query(query, method="rbm")
        hits_before = cached.engine.cache_hits
        second = cached.range_query(query, method="rbm")
        assert second.matches == first.matches
        assert cached.engine.cache_hits > hits_before
        # The second pass applied no rules at all.
        assert second.stats.rules_applied == 0

    def test_cache_invalidated_on_insert(self, rng):
        from repro.color.names import FLAG_PALETTE
        from repro.images.generators import random_palette_image

        database = MultimediaDatabase(bounds_cache=True)
        base = database.insert_image(random_palette_image(rng, 10, 12, FLAG_PALETTE))
        edited = database.augment(base, rng, 2, FLAG_PALETTE)
        query = RangeQuery.at_least(0, 0.0)
        before = database.range_query(query)
        database.augment(base, rng, 1, FLAG_PALETTE)
        after = database.range_query(query)
        assert len(after) == len(before) + 1  # new edit visible, cache coherent

    def test_cached_results_equal_uncached(self, rng):
        plain = build_flag_database(np.random.default_rng(9), scale=0.03)
        cached = MultimediaDatabase(bounds_cache=True)
        for image_id in plain.catalog.binary_ids():
            cached.insert_image(plain.instantiate(image_id), image_id=image_id)
        for image_id in plain.catalog.edited_ids():
            cached.insert_edited(
                plain.catalog.sequence_of(image_id), image_id=image_id
            )
        for query in make_query_workload(plain, rng, 8):
            assert (
                plain.range_query(query).matches
                == cached.range_query(query).matches
            )


class TestSimilarityRange:
    def test_matches_exhaustive_scan(self, database):
        from repro.color.histogram import ColorHistogram
        from repro.color.similarity import l1_distance

        base = next(iter(database.catalog.binary_ids()))
        probe = database.instantiate(base)
        query_histogram = ColorHistogram.of_image(probe, database.quantizer)
        for epsilon in (0.0, 0.2, 0.5, 1.0):
            result = database.similarity_range(probe, epsilon)
            expected = set()
            for image_id in database.ids():
                truth = database.exact_histogram(image_id)
                if l1_distance(query_histogram, truth) <= epsilon:
                    expected.add(image_id)
            assert set(result.ids()) == expected, epsilon

    def test_distances_sorted_and_within_epsilon(self, database):
        base = next(iter(database.catalog.binary_ids()))
        result = database.similarity_range(database.instantiate(base), 0.6)
        distances = [d for d, _ in result.neighbors]
        assert distances == sorted(distances)
        assert all(d <= 0.6 for d in distances)

    def test_zero_epsilon_finds_self(self, database):
        base = next(iter(database.catalog.binary_ids()))
        result = database.similarity_range(database.instantiate(base), 0.0)
        assert base in result.ids()

    def test_pruning_happens(self, database):
        base = next(iter(database.catalog.binary_ids()))
        result = database.similarity_range(database.instantiate(base), 0.05)
        assert result.stats.edited_pruned > 0

    def test_negative_epsilon_rejected(self, database):
        base = next(iter(database.catalog.binary_ids()))
        with pytest.raises(QueryError):
            database.similarity_range(database.instantiate(base), -0.1)
