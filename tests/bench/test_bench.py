"""Unit tests for the paper command (timing, sweeps, reporting, sections)."""

import dataclasses
import re
from pathlib import Path

import pytest

from benchmarks import paper
from benchmarks.paper import (
    best_of,
    format_table,
    mean,
    measure_methods,
    percent_faster,
    render_ascii_chart,
    render_figure,
    render_series_csv,
    render_table2,
    run_figure_sweep,
)
from benchmarks.schema import validate_result_file
from repro.errors import WorkloadError
from repro.workloads.queries import make_query_workload
from repro.workloads.table2 import FLAG_PARAMETERS, HELMET_PARAMETERS

ROOT = Path(__file__).resolve().parents[2]


class TestTiming:
    def test_time_call_returns_value(self):
        calls = []
        seconds, value = best_of(lambda: calls.append(1) or 42, repeats=3)
        assert value == 42
        assert seconds >= 0.0
        assert len(calls) == 4  # one warm-up, then the best of three

    def test_mean(self):
        assert mean([1.0, 3.0]) == 2.0
        assert mean([]) == 0.0

    def test_percent_faster(self):
        assert percent_faster(2.0, 1.0) == pytest.approx(50.0)
        assert percent_faster(1.0, 1.0) == 0.0
        assert percent_faster(0.0, 1.0) == 0.0
        assert percent_faster(1.0, 2.0) == pytest.approx(-100.0)


class TestMeasureMethods:
    def test_all_methods_measured(self, small_database, rng):
        queries = make_query_workload(small_database, rng, 4)
        measurements = measure_methods(
            small_database, queries, methods=("rbm", "bwm", "instantiate")
        )
        assert set(measurements) == {"rbm", "bwm", "instantiate"}
        for item in measurements.values():
            assert item.mean_seconds > 0.0

    def test_rbm_bwm_match_guard(self, small_database, rng):
        queries = make_query_workload(small_database, rng, 4)
        measurements = measure_methods(small_database, queries)
        assert (
            measurements["rbm"].total_matches == measurements["bwm"].total_matches
        )

    def test_guard_catches_a_swapped_match_of_equal_count(
        self, small_database, rng, monkeypatch
    ):
        # A BWM that trades one match for a non-match returns a set of
        # the right size: only a comparison of the sets catches it.
        queries = make_query_workload(small_database, rng, 4)
        catalog = small_database.catalog
        everyone = set(catalog.binary_ids()) | set(catalog.edited_ids())
        original = small_database.range_query
        swaps = []

        def swapping(query, method="bwm", **kwargs):
            result = original(query, method=method, **kwargs)
            outside = sorted(everyone - result.matches)
            if method != "bwm" or not result.matches or not outside:
                return result
            matches = set(result.matches)
            matches.remove(min(matches))
            matches.add(outside[0])
            swaps.append(len(matches) == len(result.matches))
            return dataclasses.replace(result, matches=frozenset(matches))

        monkeypatch.setattr(small_database, "range_query", swapping)
        with pytest.raises(WorkloadError, match="equivalence violated"):
            measure_methods(small_database, queries)
        assert swaps and all(swaps)

    def test_guard_catches_a_false_negative(self, small_database, rng, monkeypatch):
        queries = make_query_workload(small_database, rng, 4)
        original = small_database.range_query

        def dropping(query, method="bwm", **kwargs):
            result = original(query, method=method, **kwargs)
            if method == "instantiate":
                return result
            return dataclasses.replace(result, matches=frozenset())

        monkeypatch.setattr(small_database, "range_query", dropping)
        with pytest.raises(WorkloadError, match="false negative"):
            measure_methods(small_database, queries, methods=("rbm", "instantiate"))

    def test_repeats_validation(self, small_database, rng):
        queries = make_query_workload(small_database, rng, 2)
        with pytest.raises(WorkloadError):
            measure_methods(small_database, queries, repeats=0)


class TestSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_figure_sweep(
            HELMET_PARAMETERS,
            scale=0.08,
            queries_per_point=4,
            edited_percentages=(25.0, 75.0),
        )

    def test_points_cover_percentages(self, sweep):
        assert [p.edited_percentage for p in sweep.points] == [25.0, 75.0]
        assert sweep.dataset == "helmet"

    def test_total_size_constant_across_sweep(self, sweep):
        sizes = {p.database_size for p in sweep.points}
        assert len(sizes) == 1

    def test_series_extraction(self, sweep):
        series = sweep.series("rbm")
        assert len(series) == 2
        assert all(seconds > 0 for _, seconds in series)

    def test_average_percent_faster_defined(self, sweep):
        assert isinstance(sweep.average_percent_faster, float)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(("a", "bb"), [(1, 2), (33, 44)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_render_table2_contains_all_rows(self):
        text = render_table2(HELMET_PARAMETERS, FLAG_PARAMETERS)
        assert "Table 2" in text
        assert "480" in text and "1000" in text
        assert "bound-widening" in text

    def test_render_figure_and_csv(self):
        sweep = run_figure_sweep(
            HELMET_PARAMETERS,
            scale=0.06,
            queries_per_point=3,
            edited_percentages=(50.0,),
        )
        figure_text = render_figure(sweep, 3)
        assert "Figure 3" in figure_text
        assert "helmet" in figure_text
        assert "w/out DS" in figure_text
        csv_text = render_series_csv(sweep)
        assert csv_text.splitlines()[0] == "edited_percentage,rbm_seconds,bwm_seconds"
        assert len(csv_text.splitlines()) == 2


class TestAsciiChart:
    def test_renders_bars_for_every_point_and_method(self):
        sweep = run_figure_sweep(
            HELMET_PARAMETERS,
            scale=0.06,
            queries_per_point=3,
            edited_percentages=(25.0, 75.0),
        )
        chart = render_ascii_chart(sweep)
        lines = [line for line in chart.splitlines() if "|" in line]
        assert len(lines) == 4  # 2 points x 2 methods
        assert all("#" in line for line in lines)
        assert "ms" in lines[0]


class TestSections:
    #: Sections whose checks include a timing budget run in CI's smoke
    #: step instead, so a loaded test host cannot fail the suite on noise.
    TIMED = {"bounds_kernel", "observability"}

    def test_every_section_writes_what_it_declares(self, tmp_path):
        run = paper.Run(tmp_path, smoke=True)
        for name, (section, artifacts) in paper.SECTIONS.items():
            if name in self.TIMED:
                continue
            run.written.clear()
            section(run)
            assert run.written == set(artifacts), name
            for artifact in artifacts:
                assert (tmp_path / artifact).stat().st_size > 0, artifact
        assert run.skipped  # the full-size timing gates say they were skipped

    def test_unknown_section_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            paper.main(["--only", "table1,figure9"])
        assert excinfo.value.code == 2
        assert "figure9" in capsys.readouterr().err

    def test_every_cited_result_exists_and_has_a_writer(self):
        # Each results/<name> EXPERIMENTS.md cites is on disk, and is
        # either written by a paper section or a schema-valid JSON
        # artifact (an e2e evidence set).
        text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        cited = set(re.findall(r"results/([A-Za-z0-9_]+\.[a-z]+)", text))
        assert cited
        written = {a for _, artifacts in paper.SECTIONS.values() for a in artifacts}
        for name in sorted(cited):
            path = ROOT / "benchmarks" / "results" / name
            assert path.is_file(), name
            assert name in written or (
                name.endswith(".json") and validate_result_file(path) == []
            ), name
