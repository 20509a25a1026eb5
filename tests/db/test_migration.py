"""Legacy roots upgrade to v3 on their next save.

There is no migrator: a v1 or v2 root — or a v3 root an older build
left mid-migration, ``migration.journal`` and all — becomes pure v3 the
first time it is saved, through the same scratch-directory commit every
save uses.  These tests pin that upgrade on the committed roots under
``data/``: it is byte-identical to a fresh v3 save and idempotent; a
crash at any durable boundary leaves either the origin (byte for byte)
or the upgraded root, both answering like the oracle, and the next save
finishes the job; an injected I/O error leaves the origin untouched;
and a live :class:`QueryService` keeps answering correctly while the
root beneath it is upgraded.  ``TestJournal`` pins the checksummed line
discipline the old journal was written in, which the shard WAL keeps.
"""

import threading

import numpy as np
import pytest

from repro.color.names import FLAG_PALETTE
from repro.db.persistence import load_database, save_database
from repro.errors import CorruptionError, PersistenceError
from repro.images.generators import random_palette_image
from repro.service import QueryService
from repro.shard.wal import ShardWAL
from repro.testing.faults import (
    FAIL_MODES,
    CountingFaults,
    ErrorPlan,
    FaultPlan,
    InjectedCrash,
    NoFaults,
)
from tests.db.legacy import DATA, answers, copy_root, expected, manifest, observed

QUERY = "at least 25% blue"


def _tree(root):
    """Every file under ``root``, relative path -> bytes."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _upgrade(root, faults=None):
    save_database(load_database(root), root, faults=faults)


def _is_pure_v3(root):
    rows = manifest(root)["records"].values()
    return (
        manifest(root)["format_version"] == 3
        and {row["segment_version"] for row in rows} == {3}
        and sorted(path.name for path in root.iterdir())
        == ["catalog.json", "segments"]
    )


def _boundaries(name, tmp_path):
    root = copy_root(name, tmp_path / "count")
    counter = CountingFaults()
    _upgrade(root, faults=counter)
    return counter


class TestForwardMigration:
    def test_full_migration_round_trip(self, tmp_path):
        """The half-migrated root finishes by being saved, and its
        journal (even a damaged one) is never read."""
        name = "root_mid_migration"
        oracle = expected(name)
        root = copy_root(name, tmp_path / "db")
        (root / "migration.journal").write_bytes(b"not a journal line\n")
        database = load_database(root)
        save_database(database, root)
        assert _is_pure_v3(root)
        fresh = save_database(database, tmp_path / "fresh")
        assert _tree(root) == _tree(fresh)
        assert observed(load_database(root), oracle) == answers(oracle)

    def test_migration_is_idempotent(self, tmp_path):
        root = copy_root("root_v2", tmp_path / "db")
        _upgrade(root)
        upgraded = _tree(root)
        _upgrade(root)
        assert _tree(root) == upgraded


class TestKillPointSweep:
    """Crash the upgrade at every boundary; the root stays serviceable."""

    def test_sweep_all_boundaries_all_modes(self, tmp_path):
        name = "root_mid_migration"
        oracle = expected(name)
        origin = _tree(DATA / name)
        counter = _boundaries(name, tmp_path)
        assert {e.kind for e in counter.events} == {"write", "rename"}

        outcomes = set()
        for index in range(1, counter.writes + 1):
            for mode in FAIL_MODES:
                root = copy_root(name, tmp_path / f"sweep-{index}-{mode}")
                with pytest.raises(InjectedCrash):
                    _upgrade(root, faults=FaultPlan(fail_at=index, mode=mode))

                # Strictly loadable, oracle-identical, and whole: either
                # the origin byte for byte or the upgraded root.
                wreck = load_database(root)
                assert observed(wreck, oracle) == answers(oracle), (index, mode)
                if _tree(root) == origin:
                    outcomes.add("origin")
                else:
                    assert _is_pure_v3(root), (index, mode)
                    outcomes.add("upgraded")

                _upgrade(root)
                assert _is_pure_v3(root)
                assert observed(load_database(root), oracle) == answers(oracle)
        assert outcomes == {"origin", "upgraded"}

    def test_double_crash_then_resume(self, tmp_path):
        """Crashing the save that recovers from a crash still leaves
        everything recoverable."""
        name = "root_v2"
        oracle = expected(name)
        origin = _tree(DATA / name)
        first_commit_rename = _boundaries(name, tmp_path).writes - 1
        root = copy_root(name, tmp_path / "db")
        with pytest.raises(InjectedCrash):
            _upgrade(root, faults=FaultPlan(fail_at=first_commit_rename, mode="after"))
        assert not root.exists()  # between the two commit renames
        with pytest.raises(InjectedCrash):
            _upgrade(root, faults=FaultPlan(fail_at=3, mode="torn"))
        assert _tree(root) == origin
        assert observed(load_database(root), oracle) == answers(oracle)
        _upgrade(root)
        assert _is_pure_v3(root)
        assert observed(load_database(root), oracle) == answers(oracle)


class TestRollback:
    def test_rollback_restores_origin_exactly(self, tmp_path):
        """Until the commit rename lands, a crashed upgrade leaves the
        v2 root exactly as it was (a crash between the two renames is
        rolled back by the next load); after it, the v3 root stands."""
        name = "root_v2"
        origin = _tree(DATA / name)
        counter = _boundaries(name, tmp_path)
        commit = counter.writes
        assert counter.events[commit - 1].kind == "rename"
        for index in range(1, counter.writes + 1):
            for mode in FAIL_MODES:
                root = copy_root(name, tmp_path / f"db-{index}-{mode}")
                with pytest.raises(InjectedCrash):
                    _upgrade(root, faults=FaultPlan(fail_at=index, mode=mode))
                load_database(root)  # rolls back a half-done commit
                if index == commit and mode == "after":
                    assert _is_pure_v3(root)
                else:
                    assert _tree(root) == origin, (index, mode)


class TestInjectedIOErrors:
    """ENOSPC/EIO mid-upgrade: typed error, origin intact."""

    @pytest.mark.parametrize("error", ["ENOSPC", "EIO"])
    def test_error_surfaces_and_catalog_survives(self, tmp_path, error):
        name = "root_v2"
        oracle = expected(name)
        root = copy_root(name, tmp_path / f"db-{error}")
        origin = _tree(root)
        plan = ErrorPlan(fail_at=7, error=error)
        with pytest.raises(PersistenceError, match=error):
            _upgrade(root, faults=plan)
        assert plan.raised is not None
        assert _tree(root) == origin
        assert sorted(p.name for p in root.parent.iterdir()) == [root.name]
        assert observed(load_database(root), oracle) == answers(oracle)
        _upgrade(root)
        assert _is_pure_v3(root)
        assert observed(load_database(root), oracle) == answers(oracle)


class TestJournal:
    """The self-verifying line log (once the journal, now the WAL)."""

    def _append(self, wal, image_id, version):
        return wal.append(
            NoFaults(), "delete_edited", shard=0, image_id=image_id, version=version
        )

    def test_entries_round_trip_with_checksums(self, tmp_path):
        wal = ShardWAL(tmp_path)
        self._append(wal, "edit-1", 1)
        wal.append(
            NoFaults(), "insert_edited", shard=1, image_id="edit-2", version=1,
            sequence="base img-1\n",
        )
        entries = wal.entries()
        assert [e["image_id"] for e in entries] == ["edit-1", "edit-2"]
        assert [e["lsn"] for e in entries] == [1, 2]
        assert entries[1]["sequence"] == "base img-1\n"
        # Checksums were verified and stripped.
        assert all("line_sha256" not in e for e in entries)

    def test_torn_tail_tolerated(self, tmp_path):
        wal = ShardWAL(tmp_path)
        self._append(wal, "edit-1", 1)
        self._append(wal, "edit-2", 2)
        data = wal.path.read_bytes()
        wal.path.write_bytes(data[:-7])  # tear the last line
        assert [e["image_id"] for e in wal.entries()] == ["edit-1"]

    def test_mid_file_damage_is_corruption(self, tmp_path):
        wal = ShardWAL(tmp_path)
        self._append(wal, "edit-1", 1)
        self._append(wal, "edit-2", 2)
        lines = wal.path.read_bytes().splitlines(keepends=True)
        lines[0] = b'{"image_id":"edit-1","forged":true}\n'
        wal.path.write_bytes(b"".join(lines))
        with pytest.raises(CorruptionError, match="WAL line 1"):
            wal.entries()

    def test_append_heals_torn_tail(self, tmp_path):
        wal = ShardWAL(tmp_path)
        self._append(wal, "edit-1", 1)
        data = wal.path.read_bytes()
        wal.path.write_bytes(data + b'{"torn prefix')
        self._append(wal, "edit-2", 2)
        assert [e["image_id"] for e in wal.entries()] == ["edit-1", "edit-2"]


class TestLiveService:
    """Upgrading the root of a served database: no downtime, no lies."""

    def test_queries_stay_correct_throughout(self, tmp_path):
        root = copy_root("root_v2", tmp_path / "db")
        database = load_database(root)
        database.engine.enable_memo()
        oracle = sorted(database.text_query(QUERY, method="rbm").matches)

        with QueryService(database, max_workers=3) as service:
            stop = threading.Event()
            errors = []

            def hammer():
                while not stop.is_set():
                    try:
                        outcome = service.execute(QUERY)
                        if sorted(outcome.result.matches) != oracle:
                            errors.append(
                                AssertionError("result drift during upgrade")
                            )
                            return
                    except Exception as exc:  # noqa: BLE001 - recorded
                        errors.append(exc)
                        return

            threads = [threading.Thread(target=hammer) for _ in range(3)]
            for thread in threads:
                thread.start()
            try:
                for _ in range(3):
                    # The write side keeps mutations out of a save.
                    with service.write_locked():
                        save_database(service.database, root)
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
            assert not errors, errors
        assert _is_pure_v3(root)
        assert sorted(
            load_database(root).text_query(QUERY, method="rbm").matches
        ) == oracle

    def test_post_migration_mutations_still_work(self, tmp_path):
        root = copy_root("root_v2", tmp_path / "db")
        database = load_database(root)
        database.engine.enable_memo()
        with QueryService(database, max_workers=2) as service:
            service.execute(QUERY)  # warm the result cache
            with service.write_locked():
                save_database(service.database, root)
            image = random_palette_image(
                np.random.default_rng(99), 10, 12, FLAG_PALETTE
            )
            new_id = service.insert_image(image)
            outcome = service.execute("at least 0% blue")
            assert new_id in outcome.result.matches
            with service.write_locked():
                save_database(service.database, root)
        assert _is_pure_v3(root)
        assert new_id in set(load_database(root).catalog.binary_ids())
