"""The cost-based planner: model shape, decisions, and strategy parity.

The load-bearing property is at the bottom: on randomized catalogs,
*every* strategy the planner can choose returns a result set identical
to the scalar RBM oracle — so whatever the cost model picks, answers
never change, only latency.
"""

import numpy as np
import pytest

from repro.color.names import FLAG_PALETTE
from repro.core.query import RangeQuery
from repro.db.database import MultimediaDatabase
from repro.db.statistics import DatabaseStatistics
from repro.editing.operations import Define, Merge
from repro.editing.sequence import EditSequence
from repro.errors import ServiceError
from repro.images.generators import random_palette_image
from repro.images.geometry import Rect
from repro.service import CatalogProfile, CostBasedPlanner, QueryService, Strategy


def populated_bin(database):
    """A bin some stored binary image actually occupies."""
    image_id = next(iter(database.catalog.binary_ids()))
    return database.catalog.histogram_of(image_id).dominant_bins(1)[0]


class TestExplainedPlan:
    def test_alternatives_cover_every_strategy(self, small_database):
        planner = CostBasedPlanner(small_database)
        plan = planner.plan(RangeQuery.at_least(populated_bin(small_database), 0.2))
        assert {a.strategy for a in plan.alternatives} == set(Strategy)
        planner.close()

    def test_chosen_is_cheapest(self, small_database):
        planner = CostBasedPlanner(small_database)
        plan = planner.plan(RangeQuery.at_least(populated_bin(small_database), 0.2))
        costs = [a.estimated_cost for a in plan.alternatives]
        assert costs == sorted(costs)
        assert plan.alternatives[0].strategy is plan.strategy
        assert plan.estimated_cost == costs[0]
        planner.close()

    def test_describe_mentions_every_alternative(self, small_database):
        planner = CostBasedPlanner(small_database)
        plan = planner.plan(RangeQuery.at_least(populated_bin(small_database), 0.2))
        text = plan.describe()
        for strategy in Strategy:
            assert strategy.value in text
        planner.close()

    def test_unconsidered_strategy_lookup_raises(self, small_database):
        planner = CostBasedPlanner(small_database)
        plan = planner.plan(RangeQuery.at_least(0, 0.1))
        with pytest.raises(ServiceError):
            plan.alternative("nope")
        planner.close()


class TestCostModel:
    def test_cold_cacheless_engine_prefers_classic_methods(self, small_database):
        """Without memo cache or indexes, vectorized/indexed cost more."""
        planner = CostBasedPlanner(small_database)
        plan = planner.plan(RangeQuery.at_least(populated_bin(small_database), 0.2))
        assert plan.strategy in (Strategy.LINEAR_RBM, Strategy.BWM)
        planner.close()

    def test_fresh_indexes_win_over_linear_scans(self, small_database):
        planner = CostBasedPlanner(small_database)
        query = RangeQuery.at_least(populated_bin(small_database), 0.2)
        stale = planner.plan(query, index_fresh=False)
        fresh = planner.plan(query, index_fresh=True)
        assert (
            fresh.alternative(Strategy.INDEX_ASSISTED).estimated_cost
            < stale.alternative(Strategy.INDEX_ASSISTED).estimated_cost
        )
        # Fresh spatial lookups must undercut the full linear scan (the
        # globally cheapest plan may still be BWM on a tiny catalog).
        assert (
            fresh.alternative(Strategy.INDEX_ASSISTED).estimated_cost
            < fresh.alternative(Strategy.LINEAR_RBM).estimated_cost
        )
        planner.close()

    def test_warm_vec_cache_discounts_vectorized(self, rng):
        database = MultimediaDatabase(bounds_cache=True)
        base = database.insert_image(
            random_palette_image(rng, 10, 12, FLAG_PALETTE)
        )
        database.augment(base, rng, variants=4, palette=FLAG_PALETTE)
        planner = CostBasedPlanner(database)
        query = RangeQuery.at_least(populated_bin(database), 0.2)
        cold = planner.plan(query).alternative(Strategy.VECTORIZED_BATCH)
        for edited_id in database.catalog.edited_ids():
            database.engine.bounds_all_bins(edited_id)
        warm = planner.plan(query).alternative(Strategy.VECTORIZED_BATCH)
        assert warm.estimated_cost < cold.estimated_cost
        planner.close()

    def test_batched_wins_large_catalogs_loses_tiny_ones(self):
        """The measured constants pin the crossover: the columnar sweep
        beats both classic strategies on a 10k-image catalog and loses
        to them on a small one, across the selectivity range."""
        planner = CostBasedPlanner(MultimediaDatabase())
        tiny = CatalogProfile(
            binary_count=4,
            edited_count=12,
            total_operations=50,
            main_edited=8,
            unclassified=4,
        )
        large = CatalogProfile(
            binary_count=100,
            edited_count=10_000,
            total_operations=50_000,
            main_edited=7_000,
            unclassified=3_000,
        )
        for selectivity in (0.05, 0.5, 0.95):
            tiny_batched = planner._cost_vectorized(tiny).estimated_cost
            assert tiny_batched > planner._cost_linear_rbm(tiny).estimated_cost
            assert tiny_batched > planner._cost_bwm(tiny, selectivity).estimated_cost
            large_batched = planner._cost_vectorized(large).estimated_cost
            assert large_batched < planner._cost_linear_rbm(large).estimated_cost
            assert (
                large_batched
                < planner._cost_bwm(large, selectivity).estimated_cost
            )
        planner.close()

    def test_selectivity_steers_bwm_cost(self, small_database):
        """A near-certain base match short-circuits clusters: BWM gets cheap."""
        planner = CostBasedPlanner(small_database)
        bin_index = populated_bin(small_database)
        broad = planner.plan(RangeQuery.at_least(bin_index, 0.0))
        narrow = planner.plan(RangeQuery.at_least(bin_index, 0.99))
        assert broad.selectivity > narrow.selectivity
        assert (
            broad.alternative(Strategy.BWM).estimated_cost
            <= narrow.alternative(Strategy.BWM).estimated_cost
        )
        planner.close()

    def test_profile_refreshes_after_mutation(self, small_database, rng):
        planner = CostBasedPlanner(small_database)
        before = planner.profile()
        small_database.insert_image(
            random_palette_image(rng, 8, 8, FLAG_PALETTE)
        )
        after = planner.profile()
        assert after.binary_count == before.binary_count + 1
        planner.close()

    def test_profile_counters_equal_a_recount(
        self, small_database, rng, monkeypatch
    ):
        """The running counters survive every kind of write, a failed
        one (BWM filing raises, the catalog insert rolls back) included."""
        database = small_database
        catalog, structure = database.catalog, database.bwm_structure
        planner = CostBasedPlanner(database)
        base = database.insert_image(random_palette_image(rng, 8, 8, FLAG_PALETTE))
        DR = Rect(0, 0, 2, 3)

        def recount() -> CatalogProfile:
            lengths = [len(catalog.sequence_of(i)) for i in catalog.edited_ids()]
            return CatalogProfile(
                binary_count=len(list(catalog.binary_ids())),
                edited_count=len(lengths),
                total_operations=sum(lengths),
                main_edited=sum(len(c) for _, c in structure.clusters()),
                unclassified=len(list(structure.unclassified)),
            )

        def failing_insert():
            def refuse(image_id, sequence):
                raise RuntimeError("filing failed")

            with monkeypatch.context() as patch:
                patch.setattr(structure, "insert_edited", refuse)
                with pytest.raises(RuntimeError):
                    database.insert_edited(EditSequence(base, (Define(DR),)))

        script = [
            lambda: database.augment(base, rng, 3, FLAG_PALETTE, 0.5),
            lambda: database.insert_edited(
                EditSequence(base, (Define(DR), Merge(base, 1, 1))), "merged"
            ),
            lambda: database.insert_edited(EditSequence("merged"), "chained"),
            failing_insert,
            lambda: database.delete_edited("chained"),
            lambda: database.update_image(
                base, random_palette_image(rng, 8, 8, FLAG_PALETTE)
            ),
            lambda: database.delete_edited("merged"),
            lambda: database.insert_edited(EditSequence(base, (Define(DR),)), "merged"),
        ]
        assert planner.profile() == recount()
        for step in script:
            step()
            assert planner.profile() == recount()
            assert planner.profile().edited_count > 0
        planner.close()

    def test_statistics_refresh_only_when_a_binary_image_changed(
        self, small_database, rng, monkeypatch
    ):
        database = small_database
        statistics = DatabaseStatistics(database)
        refresh, refreshes = statistics.refresh, []

        def counted_refresh():
            refreshes.append(1)
            refresh()

        monkeypatch.setattr(statistics, "refresh", counted_refresh)
        planner = CostBasedPlanner(database, statistics)
        query = RangeQuery.at_least(populated_bin(database), 0.2)
        base = next(iter(database.catalog.binary_ids()))

        def plans_with(expected_refreshes):
            assert planner.plan(query).selectivity == CostBasedPlanner(
                database
            ).selectivity(query)
            assert len(refreshes) == expected_refreshes

        plans_with(1)
        leaf = database.insert_edited(EditSequence(base, (Define(Rect(0, 0, 2, 3)),)))
        plans_with(1)
        database.delete_edited(leaf)
        plans_with(1)
        fresh = database.insert_image(random_palette_image(rng, 8, 8, FLAG_PALETTE))
        plans_with(2)
        database.update_image(fresh, random_palette_image(rng, 8, 8, FLAG_PALETTE))
        plans_with(3)
        database.delete_image(fresh)
        plans_with(4)
        database.engine.invalidate_cache()
        plans_with(5)
        planner.close()

    def test_warm_memo_beats_a_fresh_index(self, rng):
        """Memoized binary rows are rows of the same matrix: with every
        row valid, two index searches do not undercut a column compare
        (60 + 60 images, selectivity ~0: cost 6 against ~40)."""
        database = MultimediaDatabase(bounds_cache=True)
        for _ in range(60):
            base = database.insert_image(
                random_palette_image(rng, 8, 8, FLAG_PALETTE)
            )
            database.augment(base, rng, variants=1, palette=FLAG_PALETTE)
        planner = CostBasedPlanner(database)
        query = RangeQuery.at_least(populated_bin(database), 0.99)
        assert planner.plan(query, index_fresh=True).strategy is Strategy.INDEX_ASSISTED
        database.range_query(query, method="rbm")  # fills every row
        plan = planner.plan(query, index_fresh=True)
        assert plan.strategy is Strategy.VECTORIZED_BATCH
        assert plan.estimated_cost == pytest.approx(
            120 * CostBasedPlanner.COST_CACHE_HIT
        )
        planner.close()

    def test_empty_catalog_plans_without_statistics(self):
        planner = CostBasedPlanner(MultimediaDatabase())
        plan = planner.plan(RangeQuery.at_least(0, 0.25))
        assert plan.selectivity == 0.5
        assert plan.estimated_cost >= 0.0
        planner.close()


class TestStrategyParityProperty:
    """Every executable strategy == the scalar RBM oracle, randomized."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_all_strategies_match_oracle(self, seed):
        rng = np.random.default_rng(987 + seed)
        database = MultimediaDatabase(bounds_cache=bool(seed % 2))
        base_ids = [
            database.insert_image(
                random_palette_image(
                    rng, int(rng.integers(6, 14)), int(rng.integers(6, 14)),
                    FLAG_PALETTE,
                )
            )
            for _ in range(int(rng.integers(2, 5)))
        ]
        for base_id in base_ids:
            database.augment(
                base_id,
                rng,
                variants=int(rng.integers(1, 4)),
                palette=FLAG_PALETTE,
                merge_target_pool=base_ids,
            )
        queries = [
            RangeQuery.at_least(
                int(rng.integers(database.quantizer.bin_count)),
                float(rng.uniform(0.0, 0.8)),
            )
            for _ in range(6)
        ] + [
            RangeQuery(
                int(rng.integers(database.quantizer.bin_count)),
                0.1,
                float(rng.uniform(0.1, 0.9)),
            )
            for _ in range(3)
        ]
        with QueryService(database, max_workers=2) as service:
            for query in queries:
                oracle = database.range_query(query, method="rbm").matches
                for strategy in Strategy:
                    outcome = service.execute(query, strategy=strategy)
                    assert outcome.result.matches == oracle, (
                        seed, strategy, query,
                    )
