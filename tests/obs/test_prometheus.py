"""Text exposition rendering and its promtool-style validator."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import render_prometheus, validate_exposition
from repro.service import MetricsRegistry


def snapshot_with(counters=None, histograms=None, **groups):
    registry = MetricsRegistry()
    for name, value in (counters or {}).items():
        registry.increment(name, value)
    for name, values in (histograms or {}).items():
        for value in values:
            registry.observe(name, value)
    snapshot = registry.snapshot()
    snapshot.update(groups)
    return snapshot


class TestRenderPrometheus:
    def test_plain_counter_gets_total_suffix(self):
        text = render_prometheus(snapshot_with(counters={"queries_total": 3}))
        assert "# TYPE repro_queries_total counter" in text
        assert "\nrepro_queries_total 3\n" in text

    def test_dotted_counter_sanitized(self):
        text = render_prometheus(snapshot_with(counters={"cache.hits": 2}))
        assert "repro_cache_hits_total 2" in text

    def test_structured_counters_become_labeled_series(self):
        text = render_prometheus(
            snapshot_with(
                counters={
                    "plans.bwm": 4,
                    "plans.vectorized_batch": 1,
                    "prune.pruned": 9,
                    "prune.must_check": 2,
                    "prune.widened_by.Modify": 5,
                    "spans.execute": 6,
                }
            )
        )
        assert 'repro_plans_total{strategy="bwm"} 4' in text
        assert 'repro_plans_total{strategy="vectorized_batch"} 1' in text
        assert 'repro_prune_outcomes_total{outcome="pruned"} 9' in text
        # widened_by must not be swallowed by the shorter prune. prefix.
        assert 'repro_prune_widened_by_total{rule="Modify"} 5' in text
        assert 'repro_spans_total{span="execute"} 6' in text
        # One TYPE declaration per family, not per series.
        assert text.count("# TYPE repro_plans_total counter") == 1

    def test_histograms_render_as_summaries(self):
        text = render_prometheus(
            snapshot_with(histograms={"query_seconds": [0.1, 0.2, 0.3]})
        )
        assert "# TYPE repro_query_seconds summary" in text
        assert 'repro_query_seconds{quantile="0.5"} 0.2' in text
        assert "repro_query_seconds_sum" in text
        assert "repro_query_seconds_count 3" in text

    def test_gauge_groups_rendered_and_non_scalars_skipped(self):
        text = render_prometheus(
            snapshot_with(
                service={"in_flight": 2, "closed": False, "name": "x"},
                bounds_cache={"hits": 7},
            )
        )
        assert "# TYPE repro_service_in_flight gauge" in text
        assert "repro_service_in_flight 2" in text
        assert "repro_service_closed 0" in text
        assert "repro_bounds_cache_hits 7" in text
        assert "name" not in text.replace("process_name", "")

    def test_output_always_validates(self):
        text = render_prometheus(
            snapshot_with(
                counters={"a": 1, "plans.bwm": 2, "weird-name": 3},
                histograms={"lat": [0.5]},
                service={"in_flight": 0},
                events={"emitted": 1, "retained": 1},
            )
        )
        assert validate_exposition(text) == []

    def test_bad_prefix_rejected(self):
        with pytest.raises(ObservabilityError):
            render_prometheus(snapshot_with(), prefix="9bad prefix")


class TestValidateExposition:
    def test_accepts_canonical_text(self):
        text = (
            "# HELP m_total a counter\n"
            "# TYPE m_total counter\n"
            "m_total 5\n"
            "# TYPE s summary\n"
            '# HELP s latencies\n'
            's{quantile="0.5"} 0.25\n'
            "s_sum 1.5\n"
            "s_count 6\n"
        )
        assert validate_exposition(text) == []

    def test_flags_malformed_sample(self):
        problems = validate_exposition("# TYPE m counter\nm five\n")
        assert any("malformed sample" in p for p in problems)

    def test_flags_sample_before_type(self):
        problems = validate_exposition("orphan 1\n")
        assert any("before its TYPE" in p for p in problems)

    def test_flags_duplicate_type(self):
        problems = validate_exposition(
            "# TYPE m counter\nm 1\n# TYPE m counter\nm 2\n"
        )
        assert any("duplicate TYPE" in p for p in problems)

    def test_flags_malformed_type_line(self):
        problems = validate_exposition("# TYPE m flavor\n")
        assert any("malformed TYPE" in p for p in problems)

    def test_special_float_values_accepted(self):
        text = "# TYPE g gauge\ng NaN\n# TYPE h gauge\nh +Inf\n"
        assert validate_exposition(text) == []


class TestLabelEscaping:
    def test_escape_helper_handles_backslash_quote_newline(self):
        from repro.obs.prometheus import _escape_label_value

        assert _escape_label_value('a\\b') == 'a\\\\b'
        assert _escape_label_value('say "hi"') == 'say \\"hi\\"'
        assert _escape_label_value('two\nlines') == 'two\\nlines'
        # Backslashes escape first, or the other escapes double up.
        assert _escape_label_value('\\n') == '\\\\n'

    def test_rendered_label_values_are_escaped_and_validate(self):
        text = render_prometheus(snapshot_with(counters={
            'plans.with"quote': 1,
            "plans.with\nnewline": 2,
            "plans.with\\backslash": 3,
        }))
        assert 'strategy="with\\"quote"' in text
        assert 'strategy="with\\nnewline"' in text
        assert 'strategy="with\\\\backslash"' in text
        assert "\nnewline" not in text.replace("\\n", "")  # no raw newline
        assert validate_exposition(text) == []

    def test_validator_accepts_escaped_label_values(self):
        text = (
            "# TYPE m counter\n"
            'm{label="a\\\\b\\"c\\nd"} 1\n'
        )
        assert validate_exposition(text) == []

    def test_validator_rejects_raw_quote_runaway(self):
        problems = validate_exposition(
            '# TYPE m counter\nm{label="broken\n'
        )
        assert any("malformed sample" in p for p in problems)


class TestFamilyDedupe:
    def test_repeated_family_declared_once(self):
        from repro.obs.prometheus import _Renderer

        out = _Renderer("repro")
        first = out.family("wal_events_total", "counter", "wal events")
        second = out.family("wal_events_total", "counter", "wal events")
        assert first == second
        assert sum(
            1 for line in out.lines if line.startswith("# TYPE")
        ) == 1

    def test_conflicting_kind_raises(self):
        from repro.obs.prometheus import _Renderer

        out = _Renderer("repro")
        out.family("depth", "gauge", "queue depth")
        with pytest.raises(ObservabilityError, match="declared as both"):
            out.family("depth", "summary", "depth distribution")

    def test_conflicting_kinds_surface_through_render(self):
        # A counter family name colliding with a histogram of the same
        # sanitized name is a rendering bug, not a scrape-time surprise.
        snapshot = snapshot_with(counters={"shard.slow": 1})
        snapshot["histograms"]["shard_events_total"] = {
            "count": 1, "total": 0.5, "mean": 0.5, "min": 0.5,
            "max": 0.5, "p50": 0.5, "p95": 0.5, "p99": 0.5,
        }
        with pytest.raises(ObservabilityError, match="declared as both"):
            render_prometheus(snapshot)

    def test_validator_flags_conflicting_duplicate_types(self):
        problems = validate_exposition(
            "# TYPE m counter\nm 1\n# TYPE m gauge\nm 2\n"
        )
        assert any(
            "duplicate TYPE for m with conflicting types (counter, then gauge)"
            in p
            for p in problems
        )
