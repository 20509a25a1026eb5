"""EXPLAIN / EXPLAIN ANALYZE and the traced query path end to end."""

import json
import threading

import pytest

from repro.core.query import RangeQuery
from repro.obs import tracing, validate_exposition
from repro.service import QueryService, Strategy


@pytest.fixture
def service(small_database):
    small_database.engine.enable_memo()
    with QueryService(small_database, max_workers=2) as svc:
        yield svc


QUERY = RangeQuery(5, 0.05, 1.0)


class TestExplain:
    def test_plain_explain_has_no_actuals(self, service):
        plans = service.explain(QUERY)
        assert len(plans) == 1
        assert plans[0].actuals is None
        assert plans[0].strategy is Strategy.VECTORIZED_BATCH

    def test_explain_executes_nothing(self, service):
        service.explain(QUERY)
        assert service.metrics.counter("queries_total") == 0

    def test_forced_strategy_respected(self, service):
        plans = service.explain(QUERY, strategy="index_assisted")
        assert plans[0].strategy is Strategy.INDEX_ASSISTED

    def test_plan_to_dict_is_json_ready(self, service):
        payload = service.explain(QUERY)[0].to_dict()
        assert payload == {
            "query": repr(QUERY),
            "strategy": "vectorized_batch",
            "actuals": None,
        }
        json.dumps(payload)


class TestExplainAnalyze:
    def test_actuals_name_the_executed_strategy(self, service):
        for strategy in Strategy:
            analyzed = service.explain_analyze(QUERY, strategy=strategy)
            plan = analyzed.plans[0]
            assert plan.strategy is strategy
            assert plan.actuals is not None
            assert plan.actuals.executed_strategy == strategy.value

    def test_result_matches_the_service_execute_path(self, service):
        analyzed = service.explain_analyze(QUERY)
        executed = service.execute(QUERY)
        assert analyzed.result.matches == executed.result.matches

    def test_attribution_outcomes_sum_to_candidates(self, service, small_database):
        analyzed = service.explain_analyze(QUERY)
        report = analyzed.attribution[0]
        counts = report.outcome_counts()
        assert sum(counts.values()) == report.candidates
        assert report.candidates == (
            small_database.catalog.binary_count
            + small_database.catalog.edited_count
        )
        assert analyzed.plans[0].actuals.images_pruned == counts["pruned"]

    def test_attribution_optional(self, service):
        analyzed = service.explain_analyze(QUERY, with_attribution=False)
        assert analyzed.attribution == (None,)
        assert analyzed.plans[0].actuals.images_pruned == -1

    def test_always_traced_with_accounted_time(self, service):
        analyzed = service.explain_analyze(QUERY)
        root = analyzed.trace
        assert root.finished
        names = [span.name for span in root.iter_spans()]
        for expected in ("lock-wait", "plan", "execute", "attribute", "merge"):
            assert expected in names
        assert root.duration >= sum(c.self_time for c in root.children)
        assert analyzed.seconds == root.duration

    def test_bypasses_the_result_cache(self, service):
        service.execute(QUERY)  # populate the cache
        analyzed = service.explain_analyze(QUERY)
        assert analyzed.plans[0].actuals.cache_hit is False
        assert analyzed.plans[0].actuals.actual_work_units > 0

    def test_work_units_count_histograms_and_rules(self, service):
        for strategy in Strategy:
            actuals = service.explain_analyze(QUERY, strategy=strategy).plans[0].actuals
            stats = actuals.stats
            assert actuals.actual_work_units == (
                stats.histograms_checked + stats.rules_applied
            )

    def test_describe_and_to_dict(self, service):
        analyzed = service.explain_analyze(QUERY)
        text = analyzed.describe()
        assert "PLAN" in text
        assert "executed:" in text
        assert "prune attribution" in text
        assert "TOTAL" in text
        json.dumps(analyzed.to_dict())

    def test_conjunctive_text_query(self, service):
        analyzed = service.explain_analyze(
            "at least 5% blue and at least 5% red"
        )
        assert len(analyzed.plans) == 2
        assert len(analyzed.attribution) == 2
        assert all(plan.actuals is not None for plan in analyzed.plans)


class TestTracedServicePath:
    def test_untraced_query_has_no_trace(self, service):
        outcome = service.execute(QUERY)
        assert outcome.trace is None

    def test_traced_query_produces_a_full_span_tree(self, service):
        with tracing():
            outcome = service.execute(QUERY)
        root = outcome.trace
        assert root is not None and root.finished
        names = [span.name for span in root.iter_spans()]
        for expected in (
            "parse", "admission", "lock-wait", "cache-lookup", "plan",
            "execute", "cache-publish",
        ):
            assert expected in names, names
        for span in root.iter_spans():
            assert span.duration >= sum(c.self_time for c in span.children)
        assert root.attributes["cache_hit"] is False

    def test_cache_hit_trace_skips_execution(self, service):
        with tracing():
            service.execute(QUERY)
            again = service.execute(QUERY)
        assert again.cache_hit
        names = [span.name for span in again.trace.iter_spans()]
        assert "cache-lookup" in names
        assert "execute" not in names
        assert again.trace.attributes["cache_hit"] is True

    def test_span_counters_feed_the_metrics_registry(self, service):
        with tracing():
            service.execute(QUERY)
        assert service.metrics.counter("spans.execute") == 1
        assert service.metrics.counter("spans.query") == 1
        snapshot = service.metrics_snapshot()
        assert snapshot["histograms"]["span_seconds.execute"]["count"] == 1

    def test_prometheus_export_validates_after_traffic(self, service):
        with tracing():
            service.execute(QUERY)
        service.explain_analyze(QUERY)
        text = service.prometheus_metrics()
        assert validate_exposition(text) == []
        assert 'repro_spans_total{span="execute"}' in text
        assert 'repro_prune_outcomes_total{outcome=' in text

    def test_metrics_snapshot_is_deterministically_ordered(self, service):
        service.execute(QUERY)
        snapshot = service.metrics_snapshot()
        assert list(snapshot) == sorted(snapshot)
        for group in ("counters", "histograms", "result_cache",
                      "bounds_cache", "events"):
            assert list(snapshot[group]) == sorted(snapshot[group])
        assert "vector_entries" in snapshot["bounds_cache"]
        assert {"hits", "misses"} <= set(snapshot["result_cache"])


class TestBoundsHitsAreThisCallsOwn:
    def test_a_concurrent_memo_reader_adds_nothing(
        self, service, small_database, monkeypatch
    ):
        """Another thread reads the memo in the middle of the call (the
        service's read lock admits both): the reported hits are those of
        the same call run alone."""
        engine = small_database.engine
        edited = list(small_database.catalog.edited_ids())
        service.explain_analyze(QUERY)  # warm the memo and the layout
        solo = service.explain_analyze(QUERY).plans[0].actuals.bounds_cache_hits
        assert solo > 0
        real = engine.bounds_of_rows
        caller = threading.get_ident()
        crowd = []

        def read_elsewhere():
            crowd.append(len(engine.bounds_all_bins_batch(edited)))

        def interleaved(rows):
            if threading.get_ident() == caller and not crowd:
                other = threading.Thread(target=read_elsewhere)
                other.start()
                other.join()
            return real(rows)

        monkeypatch.setattr(engine, "bounds_of_rows", interleaved)
        hits_before = engine.cache_hits
        crowded = service.explain_analyze(QUERY).plans[0].actuals.bounds_cache_hits
        assert crowd == [len(edited)] and len(edited) > 0
        assert engine.cache_hits - hits_before == solo + len(edited)
        assert crowded == solo


class TestSlowQueryIntegration:
    def test_zero_threshold_records_every_query_with_trace(self, small_database):
        small_database.engine.enable_memo()
        with QueryService(small_database, max_workers=1) as svc:
            with tracing():
                outcome = svc.execute(QUERY)
            entries = svc.slow_queries(0.0)
            assert len(entries) == 1
            # The span tree stays on the result; the record joins it by id.
            assert entries[0].trace_id == outcome.trace.attributes["trace_id"]
            assert svc.metrics_snapshot()["events"]["emitted"] == 1

    def test_disabled_by_default(self, service):
        # Tracing is off by default: the read is still recorded, with no
        # trace id, as its result carries no trace.
        outcome = service.execute(QUERY)
        (entry,) = service.slow_queries()
        assert outcome.trace is None
        assert entry.trace_id is None
