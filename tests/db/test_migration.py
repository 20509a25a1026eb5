"""Crash-safety and correctness of the online schema migrator.

The central proof obligation: at **every** durable boundary of a
migration (segment writes, journal appends, fsyncs, manifest-swap
renames) in every crash mode (before / torn / after), killing the
migrator leaves the catalog (a) strictly loadable, (b) returning
byte-identical query results to the pre-migration scalar oracle, and
(c) resumable to a complete, journal-free v3 state.  Plus: rollback
restores the origin format exactly (and is refused after finalization),
injected I/O errors surface :class:`MigrationError` without corrupting
the previous committed state, and a live :class:`QueryService` keeps
serving correct results throughout a migration.
"""

import json
import threading

import numpy as np
import pytest

from repro.color.names import FLAG_PALETTE
from repro.db.database import MultimediaDatabase
from repro.db.migration import (
    MigrationJournal,
    Migrator,
    migrate_database,
    migration_status,
    rollback_migration,
)
from repro.db.persistence import load_database, save_database
from repro.errors import (
    CorruptionError,
    MigrationError,
    PersistenceError,
)
from repro.service import QueryService
from repro.obs.metrics import MetricsRegistry
from repro.testing.faults import (
    FAIL_MODES,
    CountingFaults,
    ErrorPlan,
    FaultPlan,
    InjectedCrash,
    NoFaults,
)

QUERY = "at least 25% blue"


def _make_database(seed, bases=2, variants=2):
    rng = np.random.default_rng(seed)
    database = MultimediaDatabase()
    base_ids = [
        database.insert_image(random_image(rng))
        for _ in range(bases)
    ]
    for base_id in base_ids:
        database.augment(base_id, rng, variants, FLAG_PALETTE,
                         merge_target_pool=base_ids)
    return database


def random_image(rng):
    from repro.images.generators import random_palette_image

    return random_palette_image(rng, 10, 12, FLAG_PALETTE)


def _oracle(database):
    """Sorted match ids from the scalar RBM path — the ground truth."""
    return sorted(database.text_query(QUERY, method="rbm").matches)


def _manifest(root):
    return json.loads((root / "catalog.json").read_text())


@pytest.fixture(scope="module")
def source_database():
    return _make_database(17)


@pytest.fixture(scope="module")
def oracle(source_database):
    return _oracle(source_database)


def _seed_root(source_database, path):
    save_database(source_database, path)
    return path


class TestForwardMigration:
    def test_full_migration_round_trip(self, source_database, oracle, tmp_path):
        root = _seed_root(source_database, tmp_path / "db")
        report = migrate_database(root, batch_size=3)
        total = (source_database.catalog.binary_count
                 + source_database.catalog.edited_count)
        assert report.records_migrated == total
        assert report.batches == -(-total // 3)
        manifest = _manifest(root)
        assert manifest["format_version"] == 3
        assert all(
            row["segment_version"] == 3 for row in manifest["records"].values()
        )
        assert not (root / "migration.journal").exists()
        # Obsolete v2 content files are gone; segments carry the data.
        assert not (root / "binary").exists()
        assert not (root / "edited").exists()
        assert _oracle(load_database(root)) == oracle

    def test_migration_is_idempotent(self, source_database, tmp_path):
        root = _seed_root(source_database, tmp_path / "db")
        migrate_database(root)
        report = migrate_database(root)
        assert report.action == "noop"
        assert report.records_migrated == 0

    def test_status_reports_progress(self, source_database, tmp_path):
        root = _seed_root(source_database, tmp_path / "db")
        before = migration_status(root)
        assert before.phase == "idle"
        assert before.pending == before.total > 0
        assert before.migrated == 0
        # Crash partway; status must say "migrating" with partial counts.
        plan = FaultPlan(fail_at=20, mode="before")
        with pytest.raises(InjectedCrash):
            migrate_database(root, batch_size=2, faults=plan)
        during = migration_status(root)
        assert during.phase == "migrating"
        assert 0 < during.migrated < during.total
        assert during.batches_committed > 0
        migrate_database(root, resume=True)
        after = migration_status(root)
        assert after.phase == "idle"
        assert after.pending == 0
        assert after.migrated == after.total

    def test_second_run_without_resume_flag_refused(
        self, source_database, tmp_path
    ):
        root = _seed_root(source_database, tmp_path / "db")
        plan = FaultPlan(fail_at=10, mode="after")
        with pytest.raises(InjectedCrash):
            migrate_database(root, batch_size=2, faults=plan)
        with pytest.raises(MigrationError, match="--resume"):
            migrate_database(root)

    def test_batch_size_validation(self, tmp_path):
        with pytest.raises(MigrationError):
            Migrator(tmp_path, batch_size=0)

    def test_metrics_and_phase_gauge(self, source_database, tmp_path):
        root = _seed_root(source_database, tmp_path / "db")
        metrics = MetricsRegistry()
        Migrator(root, batch_size=4, metrics=metrics).run()
        assert metrics.counter("migration.runs") == 1
        assert metrics.counter("migration.records") == (
            source_database.catalog.binary_count
            + source_database.catalog.edited_count
        )
        assert metrics.counter("migration.batches") > 1
        assert metrics.gauge("migration.phase") == 3  # complete
        assert "gauges" in metrics.snapshot()


class TestKillPointSweep:
    """Kill the migrator at every boundary; catalog stays serviceable."""

    def _boundaries(self, source_database, tmp_path):
        root = _seed_root(source_database, tmp_path / "count")
        counter = CountingFaults()
        Migrator(root, batch_size=4, faults=counter).run()
        return counter

    def test_sweep_all_boundaries_all_modes(
        self, source_database, oracle, tmp_path
    ):
        counter = self._boundaries(source_database, tmp_path)
        assert counter.writes > 10
        # The protocol exercises every boundary kind the harness knows.
        assert {e.kind for e in counter.events} == {
            "write", "append", "fsync", "rename"
        }

        for index in range(1, counter.writes + 1):
            for mode in ("before", "torn", "after"):
                root = _seed_root(
                    source_database, tmp_path / f"sweep-{index}-{mode}"
                )
                plan = FaultPlan(fail_at=index, mode=mode)
                with pytest.raises(InjectedCrash):
                    Migrator(root, batch_size=4, faults=plan).run()

                # (a) strictly loadable, (b) oracle-identical results.
                wreck = load_database(root)
                assert _oracle(wreck) == oracle, (index, mode)

                # (c) resumable to a complete, journal-free v3 state.
                # (A crash before the begin entry landed leaves no
                # journal, so the "resume" is legitimately a fresh run.)
                Migrator(root, batch_size=4).run(resume=True)
                assert _manifest(root)["format_version"] == 3
                assert not (root / "migration.journal").exists()
                assert _oracle(load_database(root)) == oracle, (index, mode)

    def test_double_crash_then_resume(self, source_database, oracle, tmp_path):
        """Crashing the *resume* too still leaves everything recoverable."""
        root = _seed_root(source_database, tmp_path / "db")
        with pytest.raises(InjectedCrash):
            Migrator(root, batch_size=2,
                     faults=FaultPlan(fail_at=12, mode="torn")).run()
        with pytest.raises(InjectedCrash):
            Migrator(root, batch_size=2,
                     faults=FaultPlan(fail_at=8, mode="torn")).run(resume=True)
        assert _oracle(load_database(root)) == oracle
        Migrator(root, batch_size=2).run(resume=True)
        assert _manifest(root)["format_version"] == 3
        assert _oracle(load_database(root)) == oracle


class TestRollback:
    def test_rollback_restores_origin_exactly(
        self, source_database, oracle, tmp_path
    ):
        """Kill the migrator at every boundary, then abandon the run:
        the origin comes back exactly — until ``complete`` is journaled,
        after which rollback is refused and the v3 catalog stands."""
        counter = CountingFaults()
        Migrator(
            _seed_root(source_database, tmp_path / "count"),
            batch_size=2, faults=counter,
        ).run()
        outcomes = set()
        for index in range(1, counter.writes + 1):
            for mode in FAIL_MODES:
                root = _seed_root(source_database, tmp_path / f"db-{index}-{mode}")
                pristine = _manifest(root)
                with pytest.raises(InjectedCrash):
                    Migrator(root, batch_size=2,
                             faults=FaultPlan(fail_at=index, mode=mode)).run()
                finalized = any(
                    entry.get("event") == "complete"
                    for entry in MigrationJournal(root).entries()
                )
                if finalized:
                    with pytest.raises(MigrationError, match="refused"):
                        rollback_migration(root)
                    outcomes.add("refused")
                else:
                    outcomes.add(rollback_migration(root).action)
                    assert _manifest(root) == pristine, (index, mode)
                    assert not (root / "segments").exists()
                    # (a torn ``begin`` line may outlive a no-op rollback)
                    assert not MigrationJournal(root).entries()
                assert _oracle(load_database(root)) == oracle, (index, mode)
        # No journal yet, mid-run, and past the point of no return.
        assert outcomes == {"noop", "rollback", "refused"}

    def test_rollback_refused_after_finalize(self, source_database, tmp_path):
        root = _seed_root(source_database, tmp_path / "db")
        migrate_database(root)
        with pytest.raises(MigrationError, match="refused"):
            rollback_migration(root)

    def test_rollback_without_journal_is_noop(self, source_database, tmp_path):
        root = _seed_root(source_database, tmp_path / "db")
        report = rollback_migration(root)
        assert report.action == "noop"

    def test_crashed_rollback_is_resumable(
        self, source_database, oracle, tmp_path
    ):
        root = _seed_root(source_database, tmp_path / "db")
        with pytest.raises(InjectedCrash):
            Migrator(root, batch_size=2,
                     faults=FaultPlan(fail_at=25, mode="after")).run()
        # Kill the rollback itself mid-flight.
        with pytest.raises(InjectedCrash):
            Migrator(root, faults=FaultPlan(fail_at=3, mode="torn")).rollback()
        assert _oracle(load_database(root)) == oracle
        # Forward migration is refused while a rollback is underway.
        with pytest.raises(MigrationError, match="rollback"):
            Migrator(root).run(resume=True)
        rollback_migration(root)
        assert _manifest(root)["format_version"] == 2
        assert _oracle(load_database(root)) == oracle


class TestInjectedIOErrors:
    """ENOSPC/EIO mid-migration: typed error, previous state intact."""

    @pytest.mark.parametrize("error", ["ENOSPC", "EIO"])
    def test_error_surfaces_and_catalog_survives(
        self, source_database, oracle, tmp_path, error
    ):
        root = _seed_root(source_database, tmp_path / f"db-{error}")
        plan = ErrorPlan(fail_at=7, error=error)
        with pytest.raises(MigrationError) as excinfo:
            migrate_database(root, batch_size=4, faults=plan)
        assert isinstance(excinfo.value, PersistenceError)
        assert plan.raised is not None
        assert _oracle(load_database(root)) == oracle
        report = migrate_database(root, batch_size=4, resume=True)
        assert _manifest(root)["format_version"] == 3
        assert _oracle(load_database(root)) == oracle

    def test_error_on_fsync_boundary(self, source_database, oracle, tmp_path):
        root = _seed_root(source_database, tmp_path / "db")
        plan = ErrorPlan(fail_at=2, error="EIO", ops=("fsync",))
        with pytest.raises(MigrationError):
            migrate_database(root, batch_size=4, faults=plan)
        assert plan.raised is not None and plan.raised.kind == "fsync"
        assert _oracle(load_database(root)) == oracle


class TestJournal:
    def test_entries_round_trip_with_checksums(self, tmp_path):
        journal = MigrationJournal(tmp_path)
        plan = NoFaults()
        journal.append(plan, "begin", total=3)
        journal.append(plan, "batch", ids=["a", "b"])
        entries = journal.entries()
        assert [e["event"] for e in entries] == ["begin", "batch"]
        assert entries[0]["total"] == 3
        # Checksums were verified and stripped.
        assert all("line_sha256" not in e for e in entries)

    def test_torn_tail_tolerated(self, tmp_path):
        journal = MigrationJournal(tmp_path)
        plan = NoFaults()
        journal.append(plan, "begin", total=3)
        journal.append(plan, "batch", ids=["a"])
        data = journal.path.read_bytes()
        journal.path.write_bytes(data[:-7])  # tear the last line
        assert [e["event"] for e in journal.entries()] == ["begin"]

    def test_mid_file_damage_is_corruption(self, tmp_path):
        journal = MigrationJournal(tmp_path)
        plan = NoFaults()
        journal.append(plan, "begin", total=3)
        journal.append(plan, "batch", ids=["a"])
        lines = journal.path.read_bytes().splitlines(keepends=True)
        lines[0] = b'{"event":"begin","forged":true}\n'
        journal.path.write_bytes(b"".join(lines))
        with pytest.raises(CorruptionError, match="journal line 1"):
            journal.entries()

    def test_append_heals_torn_tail(self, tmp_path):
        journal = MigrationJournal(tmp_path)
        plan = NoFaults()
        journal.append(plan, "begin", total=3)
        data = journal.path.read_bytes()
        journal.path.write_bytes(data + b'{"torn prefix')
        journal.append(plan, "batch", ids=["a"])
        assert [e["event"] for e in journal.entries()] == ["begin", "batch"]


class TestLiveService:
    """Migration under a serving QueryService: zero downtime, no lies."""

    def test_queries_stay_correct_throughout(self, tmp_path):
        database = _make_database(23)
        root = tmp_path / "db"
        save_database(database, root)
        database = load_database(root)
        database.engine.enable_memo()
        oracle = _oracle(database)

        with QueryService(database, max_workers=3) as service:
            stop = threading.Event()
            errors = []

            def hammer():
                while not stop.is_set():
                    try:
                        outcome = service.execute(QUERY)
                        if sorted(outcome.result.matches) != oracle:
                            errors.append(
                                AssertionError("result drift during migration")
                            )
                            return
                    except Exception as exc:  # noqa: BLE001 - recorded
                        errors.append(exc)
                        return

            threads = [threading.Thread(target=hammer) for _ in range(3)]
            for thread in threads:
                thread.start()
            try:
                report = Migrator(root, batch_size=2, service=service).run()
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
            assert not errors, errors
            assert report.records_migrated > 0

            snapshot = service.metrics_snapshot()
            assert snapshot["counters"]["migration.batches"] == report.batches
            assert snapshot["gauges"]["migration.phase"] == 3
            exposition = service.prometheus_metrics()
            assert 'repro_migration_events_total{event="batches"}' in exposition
            assert "repro_migration_phase" in exposition
            from repro.obs.prometheus import validate_exposition

            assert validate_exposition(exposition) == []
        assert _oracle(load_database(root)) == oracle

    def test_post_migration_mutations_still_work(self, tmp_path):
        """The change feed fired: post-swap inserts are queryable."""
        database = _make_database(29)
        root = tmp_path / "db"
        save_database(database, root)
        database = load_database(root)
        database.engine.enable_memo()
        with QueryService(database, max_workers=2) as service:
            service.execute(QUERY)  # warm the result cache
            Migrator(root, batch_size=4, service=service).run()
            rng = np.random.default_rng(99)
            new_id = service.insert_image(random_image(rng))
            outcome = service.execute("at least 0% blue")
            assert new_id in outcome.result.matches
