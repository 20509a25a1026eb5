"""Integration tests for the command-line interface."""

import io

import numpy as np
import pytest

from repro.cli import main
from repro.images.ppm import write_ppm
from repro.workloads.flags import make_flag


def run_cli(*argv):
    buffer = io.StringIO()
    code = main(list(argv), out=buffer)
    return code, buffer.getvalue()


def _corrupt_first_binary(directory):
    """Change the last byte of the first binary image's envelope in the
    pack saved under ``directory``; returns that image's id."""
    from tests.db.legacy import manifest
    from tests.db.packs import flip_envelope_byte

    victim = manifest(directory)["binary_ids"][0]
    flip_envelope_byte(directory, victim)
    return victim


@pytest.fixture(scope="module")
def saved_database(tmp_path_factory):
    directory = tmp_path_factory.mktemp("clidb") / "flags"
    code, output = run_cli(
        "build", str(directory), "--dataset", "flag", "--scale", "0.03",
        "--seed", "5",
    )
    assert code == 0
    return directory, output


class TestBuild:
    def test_build_reports_summary(self, saved_database):
        _, output = saved_database
        assert "built flag database" in output
        assert "binary_images: 8" in output

    def test_build_helmet_with_percentage(self, tmp_path):
        code, output = run_cli(
            "build", str(tmp_path / "h"), "--dataset", "helmet",
            "--scale", "0.05", "--edited-percentage", "50",
        )
        assert code == 0
        assert "edited_images: 12" in output


class TestInfo:
    def test_info(self, saved_database):
        directory, _ = saved_database
        code, output = run_cli("info", str(directory))
        assert code == 0
        assert "quantizer: rgb/4^3=64 bins" in output
        assert "total stored:" in output

    def test_info_missing_directory(self, tmp_path):
        code, _ = run_cli("info", str(tmp_path / "nope"))
        assert code == 1


class TestQuery:
    def test_text_query(self, saved_database):
        directory, _ = saved_database
        code, output = run_cli("query", str(directory), "at least 10% red")
        assert code == 0
        assert "matches (bwm):" in output
        assert "work:" in output

    def test_methods_agree_on_counts(self, saved_database):
        directory, _ = saved_database
        outputs = {}
        for method in ("bwm", "rbm"):
            code, output = run_cli(
                "query", str(directory), "at least 10% red", "--method", method
            )
            assert code == 0
            outputs[method] = output.splitlines()[0].split()[0]
        assert outputs["bwm"] == outputs["rbm"]

    def test_bad_query_text(self, saved_database):
        directory, _ = saved_database
        code, _ = run_cli("query", str(directory), "gibberish request")
        assert code == 1

    def test_expand_flag(self, saved_database):
        directory, _ = saved_database
        code, output = run_cli(
            "query", str(directory), "at least 10% red", "--expand"
        )
        assert code == 0


class TestKNN:
    def test_knn_against_saved_database(self, saved_database, tmp_path):
        directory, _ = saved_database
        probe = tmp_path / "probe.ppm"
        write_ppm(make_flag(np.random.default_rng(1)), probe)
        code, output = run_cli(
            "knn", str(directory), str(probe), "-k", "3", "--method", "exact"
        )
        assert code == 0
        assert "3 nearest neighbors" in output

    def test_knn_missing_image(self, saved_database, tmp_path):
        directory, _ = saved_database
        code, _ = run_cli("knn", str(directory), str(tmp_path / "missing.ppm"))
        assert code == 1


class TestCheck:
    def test_check_passes_on_healthy_database(self, saved_database):
        directory, _ = saved_database
        code, output = run_cli("check", str(directory))
        assert code == 0
        assert "catalog: 32 subjects examined, 0 errors" in output

    def test_check_fast_mode(self, saved_database):
        directory, _ = saved_database
        code, _ = run_cli("check", str(directory), "--fast")
        assert code == 0

    def test_check_detects_corrupted_raster(self, saved_database, tmp_path):
        import shutil

        directory, _ = saved_database
        corrupted = tmp_path / "corrupt"
        shutil.copytree(directory, corrupted)
        _corrupt_first_binary(corrupted)
        # The per-record checksums catch the damage at load
        # time, before any recomputed histogram could paper over it:
        # unrecoverable here (exit 2), as for repair.
        code, _ = run_cli("check", str(corrupted))
        assert code == 2

    def test_check_reports_size_underflow(self, tmp_path):
        import dataclasses
        import json

        from repro.color.quantization import UniformQuantizer
        from repro.db.database import MultimediaDatabase
        from repro.db.persistence import save_database
        from repro.editing.operations import Combine, Define, Merge
        from repro.editing.sequence import EditSequence
        from repro.images.geometry import Rect

        rng = np.random.default_rng(3)
        database = MultimediaDatabase(quantizer=UniformQuantizer(2, "rgb"))
        base = database.insert_image(make_flag(rng))
        edited = database.insert_edited(
            EditSequence(
                base_id=base,
                operations=(
                    Define(Rect(0, 0, 4, 4)),
                    Combine((1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)),
                ),
            )
        )
        # A Define far outside the image clips to nothing, so the Merge
        # has an empty Defined Region: Table 1's Merge rule cannot apply.
        record = database.catalog.edited_record(edited)
        database.catalog._edited[edited] = dataclasses.replace(
            record,
            sequence=EditSequence(
                base_id=base,
                operations=(Define(Rect(9000, 9000, 9004, 9004)), Merge(None)),
            ),
        )
        directory = save_database(database, tmp_path / "underflow")
        code, output = run_cli("check", str(directory), "--json")
        assert code == 2
        findings = json.loads(output)["findings"]
        assert [(f["code"], f["location"]) for f in findings] == [("DB003", edited)]
        assert "empty Defined Region" in findings[0]["message"]

    @pytest.mark.parametrize(
        "fixture",
        [
            "db/data/root_v1",
            "db/data/root_v2",
            "db/data/root_v2_bare",
            "db/data/root_mid_migration",
            "shard/data/root_pr16",
        ],
    )
    def test_committed_roots_are_clean(self, fixture, tmp_path):
        import json
        import shutil
        from pathlib import Path

        # Check a copy: opening a sharded root appends to its event log.
        root = tmp_path / "root"
        shutil.copytree(Path(__file__).parent / fixture, root)
        code, output = run_cli("check", str(root), "--json")
        payload = json.loads(output)
        assert code == 0
        assert payload["ok"] is True
        assert payload["findings"] == []
        assert payload["subjects_examined"] > 0


class TestRepair:
    def test_repair_on_healthy_database(self, saved_database):
        directory, _ = saved_database
        code, output = run_cli("repair", str(directory), "--dry-run")
        assert code == 0
        assert "applied 0 fix(es)" in output

    def test_repair_missing_directory(self, tmp_path):
        code, _ = run_cli("repair", str(tmp_path / "nope"))
        assert code == 1

    def test_repair_exits_2_on_unrecoverable_corruption(
        self, saved_database, tmp_path
    ):
        import shutil

        directory, _ = saved_database
        damaged = tmp_path / "damaged"
        shutil.copytree(directory, damaged)
        _corrupt_first_binary(damaged)
        # A damaged content file fails the strict load repair depends
        # on: exit 2 (unrecoverable here), pointing at salvage.
        code, _ = run_cli("repair", str(damaged))
        assert code == 2


class TestSalvage:
    def _corrupt_copy(self, directory, tmp_path):
        import shutil

        damaged = tmp_path / "damaged"
        shutil.copytree(directory, damaged)
        victim_id = _corrupt_first_binary(damaged)
        return damaged, victim_id

    def test_salvage_recovers_into_new_directory(self, saved_database, tmp_path):
        directory, _ = saved_database
        damaged, victim_id = self._corrupt_copy(directory, tmp_path)
        recovered = tmp_path / "recovered"
        code, output = run_cli("salvage", str(damaged), "-o", str(recovered))
        assert code == 2  # losses occurred
        assert victim_id in output
        assert "quarantined" in output
        # The recovered directory is fully healthy.
        code, output = run_cli("check", str(recovered))
        assert code == 0

    def test_salvage_in_place(self, saved_database, tmp_path):
        directory, _ = saved_database
        damaged, _ = self._corrupt_copy(directory, tmp_path)
        code, output = run_cli("salvage", str(damaged))
        assert code == 2
        assert "saved salvaged database" in output
        code, _ = run_cli("check", str(damaged))
        assert code == 0

    def test_salvage_exits_2_when_nothing_recoverable(self, tmp_path):
        nothing = tmp_path / "hopeless"
        nothing.mkdir()
        (nothing / "catalog.json").write_text("{ not json")
        code, _ = run_cli("salvage", str(nothing))
        assert code == 2


class TestMigrate:
    """There is no ``migrate`` command: saving upgrades a legacy root."""

    def test_migrate_then_query_round_trip(self, tmp_path):
        import json

        from tests.db.legacy import copy_root

        legacy = copy_root("root_v2", tmp_path / "v2")
        code, oracle_out = run_cli(
            "query", str(legacy), "at least 10% red", "--method", "rbm"
        )
        assert code == 0
        code, output = run_cli("salvage", str(legacy))
        assert code == 0
        assert "0 quarantined" in output
        manifest = json.loads((legacy / "catalog.json").read_text())
        assert manifest["format_version"] == 3
        assert not (legacy / "binary").exists()
        # Every downstream command still works, byte-identically.
        code, upgraded_out = run_cli(
            "query", str(legacy), "at least 10% red", "--method", "rbm"
        )
        assert code == 0
        assert upgraded_out == oracle_out
        code, _ = run_cli("check", str(legacy))
        assert code == 0
        with pytest.raises(SystemExit):
            run_cli("migrate", str(legacy))

    def test_build_v3_format(self, tmp_path):
        import json

        directory = tmp_path / "v3"
        code, _ = run_cli(
            "build", str(directory), "--dataset", "flag", "--scale", "0.03",
            "--seed", "5",
        )
        assert code == 0
        manifest = json.loads((directory / "catalog.json").read_text())
        assert manifest["format_version"] == 3
        code, _ = run_cli("check", str(directory))
        assert code == 0
        with pytest.raises(SystemExit):
            run_cli("build", str(tmp_path / "v2"), "--format", "2")

    def test_salvage_on_healthy_database(self, saved_database, tmp_path):
        import shutil

        directory, _ = saved_database
        copy = tmp_path / "healthy"
        shutil.copytree(directory, copy)
        code, output = run_cli("salvage", str(copy))
        assert code == 0
        assert "0 quarantined" in output


class TestExplain:
    def test_plain_explain_prints_the_plan(self, saved_database):
        directory, _ = saved_database
        code, output = run_cli("explain", str(directory), "at least 10% red")
        assert code == 0
        assert "PLAN" in output
        assert "strategy: vectorized_batch" in output
        assert "executed:" not in output  # no actuals without --analyze

    def test_json_names_one_strategy_per_constraint(self, saved_database):
        import json

        directory, _ = saved_database
        code, output = run_cli(
            "explain", str(directory), "at least 10% red and at most 50% blue",
            "--json",
        )
        assert code == 0
        payload = json.loads(output)
        assert [plan["strategy"] for plan in payload] == ["vectorized_batch"] * 2
        for plan in payload:
            assert "alternatives" not in plan and "estimated_cost" not in plan

    def test_analyze_reports_actuals_and_attribution(self, saved_database):
        directory, _ = saved_database
        code, output = run_cli(
            "explain", str(directory), "at least 10% red", "--analyze"
        )
        assert code == 0
        assert "executed:" in output
        assert "actual work:" in output
        assert "prune attribution" in output
        assert "TOTAL" in output

    def test_analyze_forced_strategy_and_json(self, saved_database):
        import json

        directory, _ = saved_database
        code, output = run_cli(
            "explain", str(directory), "at least 10% red",
            "--analyze", "--strategy", "bwm", "--json",
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["plans"][0]["strategy"] == "bwm"
        assert payload["plans"][0]["actuals"]["executed_strategy"] == "bwm"
        outcomes = payload["attribution"][0]["outcomes"]
        assert sum(outcomes.values()) == payload["attribution"][0]["candidates"]

    def test_no_attribution_flag(self, saved_database):
        directory, _ = saved_database
        code, output = run_cli(
            "explain", str(directory), "at least 10% red",
            "--analyze", "--no-attribution",
        )
        assert code == 0
        assert "prune attribution" not in output


class TestServeStats:
    def test_human_output_covers_all_groups(self, saved_database):
        directory, _ = saved_database
        code, output = run_cli(
            "serve-stats", str(directory), "--queries", "4", "--workers", "2"
        )
        assert code == 0
        assert "plans chosen:" in output
        for group in ("counters:", "result_cache:", "bounds_cache:",
                      "events:"):
            assert group in output

    def test_json_output_is_deterministic_and_complete(self, saved_database):
        import json

        directory, _ = saved_database
        code, output = run_cli(
            "serve-stats", str(directory), "--queries", "4", "--json"
        )
        assert code == 0
        snapshot = json.loads(output)
        assert output == json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
        assert "vector_entries" in snapshot["bounds_cache"]
        assert {"hits", "misses"} <= set(snapshot["result_cache"])
        assert snapshot["events"]["emitted"] == 4

    def test_prometheus_output_validates(self, saved_database):
        from repro.obs import validate_exposition

        directory, _ = saved_database
        code, output = run_cli(
            "serve-stats", str(directory), "--queries", "4", "--prometheus"
        )
        assert code == 0
        assert validate_exposition(output) == []
        assert "repro_queries_total" in output

    def test_slow_log_dump(self, saved_database):
        directory, _ = saved_database
        code, output = run_cli(
            "serve-stats", str(directory), "--queries", "4",
            "--slow", "--slow-threshold", "0",
        )
        assert code == 0
        assert "slow queries: 4 at or over 0.0s" in output

    def test_trace_out_writes_chrome_trace(self, saved_database, tmp_path):
        import json

        directory, _ = saved_database
        trace_file = tmp_path / "trace.json"
        code, output = run_cli(
            "serve-stats", str(directory), "--queries", "3",
            "--trace-out", str(trace_file),
        )
        assert code == 0
        assert "wrote 3 query traces" in output
        document = json.loads(trace_file.read_text())
        events = document["traceEvents"]
        assert {e["tid"] for e in events if e["ph"] == "X"} == {0, 1, 2}
        assert any(e["name"] == "execute" for e in events)

    def test_tracing_switch_restored_after_run(self, saved_database):
        from repro.obs import tracing_enabled

        directory, _ = saved_database
        code, _ = run_cli(
            "serve-stats", str(directory), "--queries", "2", "--trace"
        )
        assert code == 0
        assert not tracing_enabled()


class TestVerbose:
    def test_verbose_attaches_stderr_handler(self, saved_database):
        import logging

        directory, _ = saved_database
        logger = logging.getLogger("repro")
        before = list(logger.handlers)
        try:
            code, _ = run_cli("-v", "info", str(directory))
            assert code == 0
            added = [h for h in logger.handlers if h not in before]
            assert len(added) == 1
            assert logger.level == logging.INFO
            # Re-entry must not stack a second handler.
            code, _ = run_cli("-vv", "info", str(directory))
            assert code == 0
            assert [h for h in logger.handlers if h not in before] == added
            assert logger.level == logging.DEBUG
        finally:
            for handler in list(logger.handlers):
                if handler not in before:
                    logger.removeHandler(handler)
            logger.setLevel(logging.NOTSET)

    def test_package_root_has_null_handler(self):
        import logging

        import repro

        logger = logging.getLogger(repro.__name__)
        assert any(
            isinstance(h, logging.NullHandler) for h in logger.handlers
        )


class TestBrokenPipe:
    def test_broken_pipe_exits_quietly(self, saved_database):
        directory, _ = saved_database

        class ClosedPipe:
            def write(self, _text):
                raise BrokenPipeError()

        code = main(["query", str(directory), "at least 10% red"], out=ClosedPipe())
        assert code == 0


#: A service-layer catalog mutation outside ``write_locked()`` (AL002).
UNLOCKED_MUTATION = """\
class Service:
    def insert(self, image):
        return self._database.insert_image(image)
"""


class TestLint:
    def test_shipped_tree_clean(self):
        code, output = run_cli("lint")
        assert code == 0
        assert "0 errors" in output

    def test_violations_exit_nonzero(self, tmp_path):
        target = tmp_path / "repro" / "service"
        target.mkdir(parents=True)
        (target / "bad.py").write_text(UNLOCKED_MUTATION, encoding="utf-8")
        code, output = run_cli("lint", str(target))
        assert code == 2
        assert "AL002" in output

    def test_json_output(self, tmp_path):
        import json

        target = tmp_path / "repro" / "service"
        target.mkdir(parents=True)
        (target / "bad.py").write_text(UNLOCKED_MUTATION, encoding="utf-8")
        code, output = run_cli("lint", str(target), "--json")
        assert code == 2
        payload = json.loads(output)
        assert payload["counts"] == {"AL002": 1}

    def test_rule_filter(self, tmp_path):
        target = tmp_path / "repro" / "service"
        target.mkdir(parents=True)
        (target / "bad.py").write_text(UNLOCKED_MUTATION, encoding="utf-8")
        code, _ = run_cli("lint", str(target), "--rule", "AL004")
        assert code == 0

    def test_lock_order_findings_merged(self, monkeypatch, capsys):
        # Lock order is race-check's (CC001), not lint's: an unknown or
        # non-AL --rule is a usage error, never a silent green.  The
        # cycle is reported by run_race_check, which tier-1 runs.
        from repro.testing.racecheck import SCENARIOS, TrackedLock, run_race_check

        for code in ("AL999", "CC001"):
            assert run_cli("lint", "--rule", code) == (1, "")
            assert "AL002" in capsys.readouterr().err

        def opposite_orders(monitor):
            import threading

            one = TrackedLock(threading.Lock(), "Pair._one_lock", monitor)
            two = TrackedLock(threading.Lock(), "Pair._two_lock", monitor)
            with one, two:
                pass
            with two, one:
                pass

        monkeypatch.setitem(SCENARIOS, "seeded", opposite_orders)
        report = run_race_check(["seeded"])
        assert not report.ok
        assert report.to_dict()["counts"] == {"CC001": 1}
        assert len(report.lock_edges) == 2


class TestAnalyzeDb:
    """The catalog checker's report and exit codes on a plain root."""

    def test_healthy_database(self, saved_database):
        directory, _ = saved_database
        code, output = run_cli("check", str(directory))
        assert code == 0
        assert "0 errors" in output

    def test_json_output(self, saved_database):
        import json

        directory, _ = saved_database
        code, output = run_cli("check", str(directory), "--fast", "--json")
        assert code == 0
        payload = json.loads(output)
        assert payload["ok"] is True
        assert payload["pass"] == "catalog"
        assert payload["findings"] == []

    def test_missing_directory(self, tmp_path):
        code, _ = run_cli("check", str(tmp_path / "nope"))
        assert code == 1


@pytest.fixture(scope="module")
def sharded_root(tmp_path_factory):
    """A small on-disk sharded root with queries and events behind it."""
    from repro.core.query import RangeQuery
    from repro.shard import ShardedCatalog

    from tests.shard.conftest import build_mirrored_pair

    directory = tmp_path_factory.mktemp("clishard") / "fleet"
    rng = np.random.default_rng(11)
    sharded, _, _ = build_mirrored_pair(rng, root=directory)
    sharded.range_query(RangeQuery(0, 0.1, 0.9))
    sharded.save()
    sharded.close()
    return directory


class TestTop:
    def test_renders_dashboard_with_warmup_queries(self, sharded_root):
        code, output = run_cli("top", str(sharded_root), "--queries", "4")
        assert code == 0
        assert "repro top" in output
        assert "shard health" in output
        assert "fleet: GREEN" in output
        assert "slowest recent queries" in output
        assert "range_query" in output

    def test_json_payload_has_all_panels(self, sharded_root):
        import json

        code, output = run_cli(
            "top", str(sharded_root), "--queries", "2", "--json"
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["health"]["verdict"] == "green"
        assert payload["status"]["shard_count"] == 3
        assert payload["slowest_queries"]
        assert payload["events"]["emitted"] > 0

    def test_prometheus_mode_emits_validated_exposition(self, sharded_root):
        from repro.obs import validate_exposition

        code, output = run_cli(
            "top", str(sharded_root), "--queries", "2", "--prometheus"
        )
        assert code == 0
        assert validate_exposition(output) == []
        assert "repro_health_worst" in output
        assert "repro_sharded_query_seconds" in output

    def test_missing_root_fails_cleanly(self, tmp_path):
        code, _ = run_cli("top", str(tmp_path / "nope"))
        assert code == 1


class TestShards:
    def test_status_lists_every_shard(self, sharded_root):
        code, output = run_cli("shards", str(sharded_root))
        assert code == 0
        assert "3 shard(s)" in output
        assert "shard 2:" in output

    def test_compact_now_reports_the_cycle_as_json(self, sharded_root, tmp_path):
        import json
        import shutil

        # Opening a root appends to its event log, so it runs on a copy.
        # The cycle itself journals nothing: the WAL is left as it was.
        root = tmp_path / "fleet"
        shutil.copytree(sharded_root, root)
        wal = (root / "shard.wal").read_bytes()
        code, output = run_cli("shards", str(root), "--compact-now", "--json")
        assert (root / "shard.wal").read_bytes() == wal
        assert code == 0
        payload = json.loads(output)
        assert payload["shard_count"] == 3
        materialized = payload["compaction"]["materialized"]
        assert materialized
        ledger = {i for shard in payload["shards"] for i in shard["materialized"]}
        assert set(materialized) <= ledger

    def test_missing_root_fails_cleanly(self, tmp_path):
        code, _ = run_cli("shards", str(tmp_path / "nope"))
        assert code == 1


class TestEvents:
    def test_human_listing_shows_kinds_and_lsns(self, sharded_root):
        code, output = run_cli("events", str(sharded_root))
        assert code == 0
        assert "wal.append" in output
        assert "checkpoint" in output
        assert "lsn=" in output

    def test_json_round_trips_through_the_schema(self, sharded_root):
        import json

        from repro.obs.events import validate_event_dict

        code, output = run_cli("events", str(sharded_root), "--json")
        assert code == 0
        payload = json.loads(output)
        assert payload
        for event in payload:
            assert validate_event_dict(event) == []

    def test_kind_filter_and_limit(self, sharded_root):
        import json

        code, output = run_cli(
            "events", str(sharded_root), "--json",
            "--kind", "wal.append", "--limit", "2",
        )
        assert code == 0
        payload = json.loads(output)
        assert len(payload) == 2
        assert {event["kind"] for event in payload} == {"wal.append"}

    def test_follow_picks_up_appended_events(self, sharded_root):
        import json
        import threading

        from repro.core.query import RangeQuery
        from repro.shard import ShardedCatalog

        buffer = io.StringIO()
        follower = threading.Thread(
            target=lambda: main(
                ["events", str(sharded_root), "--follow", "--json",
                 "--poll", "0.05", "--max-polls", "10"],
                out=buffer,
            )
        )
        follower.start()
        with ShardedCatalog.open(sharded_root) as sharded:
            sharded.range_query(RangeQuery(1, 0.2, 0.8))
        follower.join(timeout=10)
        assert not follower.is_alive()
        lines = [line for line in buffer.getvalue().splitlines() if line]
        tailed = [json.loads(line) for line in lines]
        assert any(event["kind"] == "query" for event in tailed)

    def test_empty_log_is_not_an_error(self, tmp_path):
        code, output = run_cli("events", str(tmp_path), "--json")
        assert code == 0
        assert output.strip() == "[]"
