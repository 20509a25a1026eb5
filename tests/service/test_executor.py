"""QueryService: normalization, caching, deadlines, shedding, shutdown.

Timing-sensitive behavior (deadlines, TTL) runs on an injected fake
clock; blocking behavior (shedding, drain) is driven by events patched
into the database's ``range_query``, so nothing here sleeps on faith.
"""

import sys
import threading
from contextlib import nullcontext

import numpy as np
import pytest

from repro.color.names import FLAG_PALETTE
from repro.core.query import RangeQuery
from repro.db.database import MultimediaDatabase
from repro.editing.operations import Define, Merge
from repro.editing.recipes import build_variant
from repro.editing.sequence import EditSequence
from repro.errors import (
    QueryTimeoutError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
    ServiceShutdownError,
)
from repro.images.generators import random_palette_image
from repro.images.geometry import Rect
from repro.service import QueryService, Strategy


class FakeClock:
    """A settable monotonic clock shared across service threads."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def service(small_database):
    with QueryService(small_database, max_workers=2) as service:
        yield service


def blue_query(database) -> RangeQuery:
    return RangeQuery.at_least(database.quantizer.bin_of((0, 40, 104)), 0.1)


class TestNormalization:
    def test_single_constraint(self, service, small_database):
        query = blue_query(small_database)
        outcome = service.execute(query)
        assert outcome.constraints == (query,)
        assert outcome.result.matches == small_database.range_query(
            query, method="rbm"
        ).matches

    def test_text_query(self, service, small_database):
        outcome = service.execute("at least 10% blue")
        oracle = small_database.text_query("at least 10% blue")
        assert outcome.result.matches == oracle.matches

    def test_conjunction_intersects(self, service, small_database):
        a = RangeQuery.at_least(blue_query(small_database).bin_index, 0.05)
        b = RangeQuery(a.bin_index, 0.0, 0.5)
        outcome = service.execute([a, b])
        expected = (
            small_database.range_query(a, method="rbm").matches
            & small_database.range_query(b, method="rbm").matches
        )
        assert outcome.result.matches == expected

    def test_empty_query_rejected(self, service):
        with pytest.raises(ServiceError):
            service.execute([])

    def test_unknown_strategy_rejected(self, service, small_database):
        with pytest.raises(ServiceError, match="unknown strategy"):
            service.execute(blue_query(small_database), strategy="quantum")

    def test_strategy_accepts_enum_and_string(self, service, small_database):
        query = blue_query(small_database)
        by_enum = service.execute(query, strategy=Strategy.BWM)
        by_name = service.execute(query, strategy="bwm")
        assert by_enum.strategy is Strategy.BWM
        assert by_name.result.matches == by_enum.result.matches

    def test_expand_to_bases_adds_base_ids(self, service, small_database):
        query = blue_query(small_database)
        plain = service.execute(query)
        expanded = service.execute(query, expand_to_bases=True)
        assert plain.result.matches <= expanded.result.matches
        catalog = small_database.catalog
        for image_id in expanded.result.matches - plain.result.matches:
            assert image_id in set(catalog.binary_ids())


class TestResultCaching:
    def test_repeat_query_hits_cache(self, service, small_database):
        query = blue_query(small_database)
        first = service.execute(query)
        second = service.execute(query)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.result.matches == first.result.matches
        assert service.metrics.counter("result_cache_hits") == 1

    def test_flipped_conjunction_shares_the_entry(self, service, small_database):
        a = RangeQuery.at_least(blue_query(small_database).bin_index, 0.05)
        b = RangeQuery(a.bin_index, 0.0, 0.5)
        service.execute([a, b])
        assert service.execute([b, a]).cache_hit

    def test_mutation_through_service_invalidates(
        self, service, small_database, rng
    ):
        from repro.color.names import FLAG_PALETTE
        from repro.images.generators import random_palette_image

        query = RangeQuery.at_least(blue_query(small_database).bin_index, 0.0)
        before = service.execute(query)
        assert service.execute(query).cache_hit
        new_id = service.insert_image(
            random_palette_image(rng, 8, 8, FLAG_PALETTE)
        )
        after = service.execute(query)
        assert not after.cache_hit
        assert new_id in after.result.matches
        assert new_id not in before.result.matches
        assert service.metrics.counter("mutations") == 1

    def test_delete_through_service_invalidates(self, service, small_database):
        edited_id = next(iter(small_database.catalog.edited_ids()))
        query = RangeQuery.at_least(blue_query(small_database).bin_index, 0.0)
        service.execute(query)
        service.delete_edited(edited_id)
        after = service.execute(query)
        assert not after.cache_hit
        assert edited_id not in after.result.matches

    def test_delete_image_through_service_flushes_the_entry(
        self, service, small_database, rng
    ):
        query = RangeQuery.at_least(blue_query(small_database).bin_index, 0.0)
        image_id = service.insert_image(random_palette_image(rng, 8, 8, FLAG_PALETTE))
        assert image_id in service.execute(query).result.matches
        assert len(service.cache) == 1
        invalidations = service.cache.stats()["invalidations"]
        service.delete_image(image_id)
        assert len(service.cache) == 0
        assert service.cache.stats()["invalidations"] > invalidations
        after = service.execute(query)
        assert not after.cache_hit
        assert image_id not in after.result.matches
        assert not small_database.catalog.contains(image_id)
        assert service.metrics.counter("mutations") == 2

    def test_delete_edited_refused_while_edits_build_on_it(
        self, service, small_database
    ):
        from repro.editing.sequence import EditSequence
        from repro.errors import DatabaseError

        middle = next(iter(small_database.catalog.edited_ids()))
        leaf = service.insert_edited(EditSequence(middle))
        with pytest.raises(DatabaseError):
            service.delete_edited(middle)
        assert small_database.catalog.contains(middle)
        assert small_database.verify_integrity() == []
        service.delete_edited(leaf)
        service.delete_edited(middle)
        assert small_database.verify_integrity() == []


class TestAdmissionControl:
    def test_overload_sheds_with_typed_error(self, small_database):
        release = threading.Event()
        started = threading.Event()
        original = small_database.range_query

        def blocking_range_query(query, method="rbm"):
            started.set()
            release.wait(timeout=30)
            return original(query, method=method)

        small_database.range_query = blocking_range_query
        query = blue_query(small_database)
        with QueryService(small_database, max_workers=1, queue_depth=0) as service:
            blocker = service.submit(query, strategy="vectorized_batch")
            assert started.wait(timeout=10)
            with pytest.raises(ServiceOverloadedError):
                service.submit(query, strategy="vectorized_batch")
            assert service.metrics.counter("queries_shed") == 1
            release.set()
            assert blocker.result(timeout=30).result.matches

    def test_in_flight_drains_to_zero(self, service, small_database):
        service.execute(blue_query(small_database))
        assert service.in_flight == 0


class TestDeadlines:
    def test_queued_past_deadline_is_refused(self, small_database):
        clock = FakeClock()
        release = threading.Event()
        started = threading.Event()
        original = small_database.range_query

        def blocking_range_query(query, method="rbm"):
            started.set()
            release.wait(timeout=30)
            return original(query, method=method)

        small_database.range_query = blocking_range_query
        query = blue_query(small_database)
        with QueryService(
            small_database, max_workers=1, queue_depth=4, clock=clock
        ) as service:
            blocker = service.submit(query, strategy="vectorized_batch")
            assert started.wait(timeout=10)
            victim = service.submit(query, timeout=5.0, strategy="vectorized_batch")
            clock.now = 6.0  # the victim's deadline passes while it queues
            release.set()
            assert blocker.result(timeout=30)
            with pytest.raises(QueryTimeoutError, match="admission queue"):
                victim.result(timeout=30)
            assert service.metrics.counter("queries_timed_out") == 1

    def test_synchronous_wait_gives_up_on_a_stuck_query(self, small_database):
        release = threading.Event()
        original = small_database.range_query

        def blocking_range_query(query, method="rbm"):
            release.wait(timeout=30)
            return original(query, method=method)

        small_database.range_query = blocking_range_query
        query = blue_query(small_database)
        try:
            with QueryService(small_database, max_workers=1) as service:
                with pytest.raises(QueryTimeoutError, match="deadline"):
                    service.execute(query, timeout=0.05, strategy="vectorized_batch")
                release.set()
        finally:
            release.set()

    def test_one_timed_out_query_is_counted_once(self, small_database):
        # The waiter gives up first; the query's worker dequeues it past
        # its deadline later.  Both notice, one query timed out.
        release = threading.Event()
        started = threading.Event()
        original = small_database.range_query

        def blocking_range_query(query, method="rbm"):
            started.set()
            release.wait(timeout=30)
            return original(query, method=method)

        small_database.range_query = blocking_range_query
        query = blue_query(small_database)
        try:
            with QueryService(small_database, max_workers=1) as service:
                blocker = service.submit(query, strategy="vectorized_batch")
                assert started.wait(timeout=10)
                with pytest.raises(QueryTimeoutError, match="deadline"):
                    service.execute(query, timeout=0.05, strategy="vectorized_batch")
                assert service.metrics.counter("queries_timed_out") == 1
                release.set()
                assert blocker.result(timeout=30)
                service.shutdown()  # drains the queued victim's worker
                assert service.metrics.counter("queries_timed_out") == 1
                assert service.in_flight == 0
        finally:
            release.set()

    def test_default_timeout_applies_when_call_passes_none(self, small_database):
        clock = FakeClock()
        with QueryService(
            small_database, max_workers=1, default_timeout=5.0, clock=clock
        ) as service:
            outcome = service.execute(blue_query(small_database))
            assert outcome.result is not None


class TestShutdown:
    def test_submission_after_shutdown_is_refused(self, small_database):
        service = QueryService(small_database, max_workers=1)
        service.shutdown()
        with pytest.raises(ServiceShutdownError):
            service.submit(blue_query(small_database))

    def test_shutdown_is_idempotent(self, small_database):
        service = QueryService(small_database, max_workers=1)
        service.shutdown()
        service.shutdown()

    def test_graceful_drain_completes_admitted_queries(self, small_database):
        release = threading.Event()
        started = threading.Event()
        original = small_database.range_query

        def blocking_range_query(query, method="rbm"):
            started.set()
            release.wait(timeout=30)
            return original(query, method=method)

        small_database.range_query = blocking_range_query
        service = QueryService(small_database, max_workers=1)
        future = service.submit(
            blue_query(small_database), strategy="vectorized_batch"
        )
        assert started.wait(timeout=10)
        drainer = threading.Thread(target=service.shutdown)
        drainer.start()
        drainer.join(timeout=0.2)
        assert drainer.is_alive()  # still draining the admitted query
        release.set()
        drainer.join(timeout=30)
        assert not drainer.is_alive()
        assert future.result(timeout=5).result.matches is not None

    def test_context_manager_shuts_down(self, small_database):
        with QueryService(small_database, max_workers=1) as service:
            service.execute(blue_query(small_database))
        with pytest.raises(ServiceShutdownError):
            service.submit(blue_query(small_database))


class TestValidationAndMetrics:
    def test_bad_pool_sizing_rejected(self, small_database):
        with pytest.raises(ServiceError):
            QueryService(small_database, max_workers=0)
        with pytest.raises(ServiceError):
            QueryService(small_database, queue_depth=-1)

    def test_metrics_snapshot_shape(self, service, small_database):
        service.execute(blue_query(small_database))
        snap = service.metrics_snapshot()
        assert snap["counters"]["queries_total"] == 1
        assert snap["histograms"]["query_seconds"]["count"] == 1
        assert set(snap["result_cache"]) >= {"hits", "misses", "entries"}
        assert "service" in snap and snap["service"]["capacity"] > 0
        assert "bounds_cache" in snap

    def test_plans_counted_per_strategy(self, service, small_database):
        query = blue_query(small_database)
        service.execute(query, strategy="bwm")
        assert service.metrics.counter("plans.bwm") == 1

    def test_forced_strategy_replaces_the_fixed_plan(
        self, service, small_database
    ):
        query = blue_query(small_database)
        assert service.execute(query).strategy is Strategy.VECTORIZED_BATCH
        service.cache.clear()
        outcome = service.execute(query, strategy="index_assisted")
        assert outcome.strategy is Strategy.INDEX_ASSISTED
        assert outcome.plans[0].query == query

    @pytest.mark.parametrize(
        "refused", [{"cache_capacity": 0}, {"cache_ttl": -1}]
    )
    def test_refused_construction_leaves_the_engine_alone(
        self, small_database, refused
    ):
        engine = small_database.engine
        listeners = list(engine._invalidation_listeners)
        with pytest.raises(ReproError):
            QueryService(small_database, **refused)
        assert not engine.cache_enabled
        assert engine._invalidation_listeners == listeners

    def test_index_path_rebuilds_then_stays_fresh(self, service, small_database):
        assert not service.indexes_fresh
        service.execute(blue_query(small_database), strategy="index_assisted")
        assert service.indexes_fresh
        assert service.metrics.counter("index_rebuilds") == 1
        # A different query (no cache hit) reuses the fresh indexes.
        other = RangeQuery(blue_query(small_database).bin_index, 0.0, 0.9)
        service.execute(other, strategy="index_assisted")
        assert service.metrics.counter("index_rebuilds") == 1


def rebuilt(database) -> MultimediaDatabase:
    """An uncached database built from scratch with ``database``'s
    records (catalog order is a valid insertion order)."""
    fresh = MultimediaDatabase(database.quantizer, database.fill_color)
    catalog = database.catalog
    for image_id in catalog.binary_ids():
        fresh.insert_image(catalog.binary_record(image_id).image, image_id)
    for image_id in catalog.edited_ids():
        fresh.insert_edited(catalog.sequence_of(image_id), image_id)
    return fresh


class TestServesAMemoizingEngine:
    """The service reads bounds from the memo of the database it serves;
    the database's own mutators keep that memo right."""

    TEXTS = (
        "at least 10% red",
        "at most 40% blue",
        "at least 10% red and at most 60% blue",
    )
    SCRIPT = (
        "insert", "derive", "derive", "update", "derive", "delete",
        "insert", "reinsert", "update", "derive", "delete", "reinsert",
    )

    def _derive(self, rng, database) -> EditSequence:
        """A variant of any stored image — chained bases included —
        merging any other in."""
        ids = list(database.ids())
        base, target = (ids[int(rng.integers(len(ids)))] for _ in range(2))
        shape = database.bounds(base, 0)
        operations = build_variant(
            rng, shape.height, shape.width, FLAG_PALETTE,
            bound_widening=bool(rng.integers(2)), merge_target=target,
        )
        if rng.integers(3) == 0:
            operations = [Define(Rect(0, 0, 2, 3)), Merge(target, 1, 1)]
        return EditSequence(base, tuple(operations))

    def _write(self, step, rng, service, out_of_band, counter):
        """One write: through the wrappers, or on the database itself
        under ``write_locked()`` as an out-of-band writer does."""
        database = service.database
        target = database if out_of_band else service
        catalog = database.catalog
        loose = [i for i in catalog.edited_ids() if not catalog.referrers(i)]
        with service.write_locked() if out_of_band else nullcontext():
            if step == "insert":
                image = random_palette_image(rng, 6, 8, FLAG_PALETTE)
                target.insert_image(image, image_id=f"b{counter}")
            elif step == "derive":
                target.insert_edited(self._derive(rng, database), f"e{counter}")
            elif step == "update":
                binary = list(catalog.binary_ids())
                victim = binary[int(rng.integers(len(binary)))]
                target.update_image(
                    victim, random_palette_image(rng, 6, 8, FLAG_PALETTE)
                )
            elif loose:  # delete / reinsert
                victim = loose[int(rng.integers(len(loose)))]
                target.delete_edited(victim)
                if step == "reinsert":
                    target.insert_edited(self._derive(rng, database), victim)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_every_strategy_agrees_after_every_write(self, seed):
        rng = np.random.default_rng(seed)
        with QueryService(MultimediaDatabase(), max_workers=2) as service:
            for counter, step in enumerate(("insert", "derive") + self.SCRIPT):
                self._write(step, rng, service, bool(counter % 2), counter)
                oracle = rebuilt(service.database)
                for text in self.TEXTS:
                    expected = oracle.text_query(text, method="rbm").matches
                    for strategy in Strategy:
                        service.cache.clear()  # the key ignores the strategy
                        outcome = service.execute(text, strategy=strategy)
                        assert outcome.result.matches == expected, (
                            seed, counter, step, text, strategy,
                        )

    def test_a_warm_miss_applies_no_rules(self, service, small_database):
        engine = small_database.engine
        service.execute("at least 10% blue", strategy="vectorized_batch")  # warms
        before = engine.rules_applied
        miss = service.execute("at least 20% red")
        assert not miss.cache_hit
        assert miss.result.stats.rules_applied == 0
        assert engine.rules_applied == before
        analyzed = service.explain_analyze(
            "at least 30% white", with_attribution=False
        )
        assert analyzed.plans[0].actuals.bounds_cache_hits > 0
        assert engine.rules_applied == before

    def test_first_miss_after_a_write_fills_only_what_it_dirtied(
        self, service, small_database
    ):
        engine = small_database.engine
        catalog = small_database.catalog
        anything = RangeQuery.at_least(blue_query(small_database).bin_index, 0.0)
        service.execute(anything, strategy="vectorized_batch")
        middle = next(iter(catalog.edited_ids()))
        sequence = EditSequence(middle, (Define(Rect(0, 0, 2, 3)),))
        service.insert_edited(sequence, "leaf")
        rules, misses = engine.rules_applied, engine.cache_misses
        outcome = service.execute(anything, strategy="vectorized_batch")
        assert not outcome.cache_hit and "leaf" in outcome.result.matches
        assert engine.cache_misses - misses == 1
        grew = engine.rules_applied - rules
        assert 0 < grew <= len(sequence) + len(catalog.sequence_of(middle))

    def test_serving_leaves_the_memo_on_and_right(self, small_database, rng):
        """The converse of ``test_an_uncached_engine_retains_nothing``."""
        engine = small_database.engine
        assert not engine.cache_enabled
        QueryService(small_database).shutdown()
        assert engine.cache_enabled
        query = blue_query(small_database)
        first = small_database.range_query(query, method="rbm")
        assert first.stats.rules_applied > 0
        assert small_database.range_query(query, method="rbm").stats.rules_applied == 0
        base = next(iter(small_database.catalog.binary_ids()))
        small_database.update_image(
            base, random_palette_image(rng, 14, 18, FLAG_PALETTE)
        )
        for method in ("rbm", "bwm"):
            assert (
                small_database.range_query(query, method=method).matches
                == rebuilt(small_database).range_query(query, method="rbm").matches
            )

    def test_concurrent_misses_fill_a_cold_memo_once(self, small_database):
        engine = small_database.engine
        texts = ("at least 10% blue", "at least 20% red")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with QueryService(small_database, max_workers=2) as service:
                service.execute(texts[0], strategy="vectorized_batch")
                work = engine.rules_applied  # one fill of every row
                planned = threading.Barrier(2)
                plan = service.planner.plan

                def plan_together(query):
                    planned.wait(timeout=10)  # both missed, neither filled
                    return plan(query)

                service.planner.plan = plan_together
                for _ in range(5):
                    engine.invalidate_cache()  # flushes the result cache too
                    before = engine.rules_applied
                    futures = [
                        service.submit(text, strategy="vectorized_batch")
                        for text in texts
                    ]
                    got = [future.result(timeout=10) for future in futures]
                    assert not any(outcome.cache_hit for outcome in got)
                    assert engine.rules_applied - before == work
                    for text, outcome in zip(texts, got):
                        assert outcome.result.matches == rebuilt(
                            small_database
                        ).text_query(text, method="rbm").matches
        finally:
            sys.setswitchinterval(interval)
