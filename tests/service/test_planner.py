"""The service's fixed plan, forcing, and strategy parity.

The load-bearing property is at the bottom: on randomized catalogs,
*every* strategy the service can run returns a result set identical to
the scalar RBM oracle — so forcing one never changes answers, only
latency.
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
from repro.service import CostBasedPlanner, QueryService, Strategy


def populated_bin(database):
    """A bin some stored binary image actually occupies."""
    image_id = next(iter(database.catalog.binary_ids()))
    return database.catalog.histogram_of(image_id).dominant_bins(1)[0]


class TestExplainedPlan:
    def test_describe_mentions_every_alternative(self, small_database):
        """Each strategy the service can run is named by the plan that
        runs it."""
        query = RangeQuery.at_least(populated_bin(small_database), 0.2)
        with QueryService(small_database, max_workers=1) as service:
            for strategy in Strategy:
                (plan,) = service.explain(query, strategy=strategy)
                assert f"strategy: {strategy.value}" in plan.describe()

    def test_unconsidered_strategy_lookup_raises(self, small_database):
        with QueryService(small_database, max_workers=1) as service:
            for strategy in ("nope", "linear_rbm"):
                with pytest.raises(ServiceError, match="unknown strategy"):
                    service.explain(RangeQuery.at_least(0, 0.1), strategy=strategy)


class TestFixedPlan:
    @pytest.mark.parametrize(
        "state", ["empty", "one-image", "cold", "warm", "post-binary-write"]
    )
    def test_unforced_plan_is_vectorized_batch(self, state, rng, monkeypatch):
        refreshes = []
        monkeypatch.setattr(
            DatabaseStatistics, "refresh", lambda self: refreshes.append(self)
        )
        database = MultimediaDatabase()
        if state != "empty":
            base = database.insert_image(
                random_palette_image(rng, 10, 12, FLAG_PALETTE)
            )
        if state in ("cold", "warm", "post-binary-write"):
            database.augment(base, rng, variants=4, palette=FLAG_PALETTE)
        query = RangeQuery.at_least(0, 0.2)
        with QueryService(database, max_workers=1) as service:
            if state == "warm":
                service.execute(query, strategy="bwm")
            if state == "post-binary-write":
                service.execute(query)
                service.insert_image(random_palette_image(rng, 8, 8, FLAG_PALETTE))
            (plan,) = service.explain(query)
            outcome = service.execute(RangeQuery.at_most(0, 0.9))
        assert plan.strategy is Strategy.VECTORIZED_BATCH
        assert outcome.strategy is Strategy.VECTORIZED_BATCH
        assert refreshes == []


class TestCostModel:
    def test_profile_refreshes_after_mutation(self, small_database, rng):
        before = small_database.structure_summary()
        small_database.insert_image(
            random_palette_image(rng, 8, 8, FLAG_PALETTE)
        )
        after = small_database.structure_summary()
        assert after["binary_images"] == before["binary_images"] + 1
        assert after["main_clusters"] == before["main_clusters"] + 1

    def test_profile_counters_equal_a_recount(
        self, small_database, rng, monkeypatch
    ):
        """The structure summary's counters survive every kind of write,
        a failed one (BWM filing raises, the catalog insert rolls back)
        included."""
        database = small_database
        catalog, structure = database.catalog, database.bwm_structure
        base = database.insert_image(random_palette_image(rng, 8, 8, FLAG_PALETTE))
        DR = Rect(0, 0, 2, 3)

        def recount():
            return {
                "binary_images": len(list(catalog.binary_ids())),
                "edited_images": len(list(catalog.edited_ids())),
                "main_clusters": len(structure.main),
                "main_edited": sum(len(c) for _, c in structure.clusters()),
                "unclassified": len(list(structure.unclassified)),
            }

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
        assert database.structure_summary() == recount()
        for step in script:
            step()
            assert database.structure_summary() == recount()
            assert database.structure_summary()["edited_images"] > 0

    def test_empty_catalog_plans_without_statistics(self):
        planner = CostBasedPlanner(MultimediaDatabase())
        plan = planner.plan(RangeQuery.at_least(0, 0.25))
        assert plan.strategy is Strategy.VECTORIZED_BATCH
        assert plan.actuals is None


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
        # The oracle is an uncached twin: the service turns the memo of
        # the database it serves on.
        oracle_database = MultimediaDatabase()
        for image_id in database.catalog.binary_ids():
            oracle_database.insert_image(
                database.catalog.binary_record(image_id).image, image_id
            )
        for image_id in database.catalog.edited_ids():
            oracle_database.insert_edited(
                database.catalog.sequence_of(image_id), image_id
            )
        with QueryService(database, max_workers=2) as service:
            for query in queries:
                oracle = oracle_database.range_query(query, method="rbm").matches
                assert service.execute(query).result.matches == oracle, (
                    seed, "unforced", query,
                )
                for strategy in Strategy:
                    service.cache.clear()  # the key ignores the strategy
                    outcome = service.execute(query, strategy=strategy)
                    assert outcome.strategy is strategy
                    assert outcome.result.matches == oracle, (
                        seed, strategy, query,
                    )
