"""Crash-safety: the kill-point sweep and mutator rollback tests.

The sweep crashes ``save_database`` at *every* durable boundary (file
writes, fsyncs and commit renames) in every failure mode (before / torn /
after), then asserts the recovery contract: a subsequent strict load
either yields a complete consistent state (the previous one, or — for
crashes after the commit point — the new one) or raises a clean
:class:`PersistenceError`; salvage loading always succeeds and the
salvaged database passes :func:`verify_integrity`.  The same sweep runs
over the committed v2 root's upgrade to v3.
"""

import shutil

import numpy as np
import pytest

from repro.color.names import FLAG_PALETTE
from repro.db.database import MultimediaDatabase
from repro.db.persistence import load_database, save_database
from repro.errors import PersistenceError, SalvageError
from repro.images.generators import random_palette_image
from repro.testing.faults import (
    FAIL_MODES,
    CountingFaults,
    ErrorPlan,
    FaultPlan,
    InjectedCrash,
)
from tests.db.legacy import answers, copy_root, expected, manifest, observed


def _make_database(seed, bases=2, variants=2):
    rng = np.random.default_rng(seed)
    database = MultimediaDatabase()
    base_ids = [
        database.insert_image(random_palette_image(rng, 10, 12, FLAG_PALETTE))
        for _ in range(bases)
    ]
    for base_id in base_ids:
        database.augment(base_id, rng, variants, FLAG_PALETTE,
                         merge_target_pool=base_ids)
    return database


def _fingerprint(database):
    return (
        tuple(sorted(database.catalog.binary_ids())),
        tuple(sorted(database.catalog.edited_ids())),
        tuple(sorted(database.structure_summary().items())),
    )


class TestFaultPlans:
    def test_counting_plan_records_boundaries(self, tmp_path):
        database = _make_database(7)
        counter = CountingFaults()
        save_database(database, tmp_path / "db", faults=counter)
        tmp = tmp_path / "db.saving"
        # The pack and the manifest, each written then fsynced, the
        # scratch directory fsynced, one commit rename (fresh
        # directory), then the parent fsynced — whatever the catalog's
        # size.
        assert [(e.kind, e.path) for e in counter.events] == [
            ("write", tmp / "segments.pack"),
            ("fsync", tmp / "segments.pack"),
            ("write", tmp / "catalog.json"),
            ("fsync", tmp / "catalog.json"),
            ("fsync", tmp),
            ("rename", tmp_path / "db"),
            ("fsync", tmp_path),
        ]

    def test_resave_adds_backup_rename(self, tmp_path):
        database = _make_database(7)
        save_database(database, tmp_path / "db")
        counter = CountingFaults()
        save_database(database, tmp_path / "db", faults=counter)
        assert [e.kind for e in counter.events[-3:]] == ["rename", "rename", "fsync"]

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(fail_at=0)
        with pytest.raises(ValueError):
            FaultPlan(fail_at=1, mode="sideways")
        with pytest.raises(ValueError):
            FaultPlan(fail_at=1, torn_fraction=1.5)

    def test_plan_records_the_crash_site(self, tmp_path):
        database = _make_database(7)
        plan = FaultPlan(fail_at=3, mode="torn")
        with pytest.raises(InjectedCrash):
            save_database(database, tmp_path / "db", faults=plan)
        assert plan.crashed is not None
        assert plan.crashed.index == 3


class TestKillPointSweep:
    """Crash a resave at every boundary; the directory must stay usable."""

    @pytest.fixture(scope="class")
    def states(self):
        previous = _make_database(11)
        upcoming = _make_database(11)
        upcoming.insert_image(
            random_palette_image(np.random.default_rng(99), 10, 12, FLAG_PALETTE)
        )
        victim = next(iter(upcoming.catalog.edited_ids()))
        upcoming.delete_edited(victim)
        return previous, upcoming

    def _counter(self, states, tmp_path):
        previous, upcoming = states
        root = tmp_path / "count"
        save_database(previous, root)
        counter = CountingFaults()
        save_database(upcoming, root, faults=counter)
        return counter

    def _boundaries(self, states, tmp_path):
        return self._counter(states, tmp_path).writes

    def test_sweep_over_existing_state(self, states, tmp_path):
        previous, upcoming = states
        fingerprints = {_fingerprint(previous), _fingerprint(upcoming)}
        boundaries = self._boundaries(states, tmp_path)
        assert boundaries > 3

        for index in range(1, boundaries + 1):
            for mode in ("before", "torn", "after"):
                root = tmp_path / f"sweep-{index}-{mode}"
                save_database(previous, root)
                plan = FaultPlan(fail_at=index, mode=mode)
                with pytest.raises(InjectedCrash):
                    save_database(upcoming, root, faults=plan)

                # Strict load: complete old state, complete new state,
                # or a clean PersistenceError — never silent damage.
                try:
                    loaded = load_database(root)
                except PersistenceError:
                    pass
                else:
                    assert _fingerprint(loaded) in fingerprints
                    assert loaded.verify_integrity() == []

                # Salvage: always recovers a database that verifies clean.
                salvaged, report = load_database(root, salvage=True)
                assert salvaged.verify_integrity() == []
                assert _fingerprint(salvaged) in fingerprints
                assert report.loaded_binary == salvaged.catalog.binary_count
                assert report.loaded_edited == salvaged.catalog.edited_count

        self._sweep_upgrade_of_committed_v2_root(tmp_path)

    def _sweep_upgrade_of_committed_v2_root(self, tmp_path):
        """The committed v2 root as the previous state: its re-save is
        the v2 -> v3 upgrade.  Every crash leaves a root that loads
        strictly as either format, with the oracle's answers."""
        oracle = expected("root_v2")
        counter = CountingFaults()
        count_root = copy_root("root_v2", tmp_path / "v2-count")
        save_database(load_database(count_root), count_root, faults=counter)
        versions = set()
        for index in range(1, counter.writes + 1):
            for mode in FAIL_MODES:
                root = copy_root("root_v2", tmp_path / f"v2-{index}-{mode}")
                with pytest.raises(InjectedCrash):
                    save_database(
                        load_database(root), root,
                        faults=FaultPlan(fail_at=index, mode=mode),
                    )
                loaded = load_database(root)
                assert observed(loaded, oracle) == answers(oracle), (index, mode)
                assert loaded.verify_integrity() == []
                versions.add(manifest(root)["format_version"])
        assert versions == {2, 3}

    def test_sweep_over_fresh_directory(self, states, tmp_path):
        _, upcoming = states
        root = tmp_path / "count-fresh"
        counter = CountingFaults()
        save_database(upcoming, root, faults=counter)

        for index in range(1, counter.writes + 1):
            for mode in ("before", "torn", "after"):
                root = tmp_path / f"fresh-{index}-{mode}"
                plan = FaultPlan(fail_at=index, mode=mode)
                with pytest.raises(InjectedCrash):
                    save_database(upcoming, root, faults=plan)
                try:
                    loaded = load_database(root)
                except PersistenceError:
                    # Nothing committed; salvage has nothing to anchor on
                    # either (no manifest) unless the crash tore/skipped
                    # only content already covered by a committed manifest
                    # — impossible on a fresh directory before the rename.
                    with pytest.raises(SalvageError):
                        load_database(root, salvage=True)
                else:
                    assert _fingerprint(loaded) == _fingerprint(upcoming)

    def test_interrupted_commit_rolls_back_on_next_save(self, states, tmp_path):
        """A save after a mid-commit crash starts from the restored state."""
        previous, upcoming = states
        root = tmp_path / "resume"
        save_database(previous, root)
        events = self._counter(states, tmp_path / "resume-count").events
        first_rename = next(e.index for e in events if e.kind == "rename")
        plan = FaultPlan(fail_at=first_rename, mode="after")
        with pytest.raises(InjectedCrash):
            save_database(upcoming, root, faults=plan)
        assert not root.exists()  # crashed between the two commit renames
        assert root.with_name(root.name + ".old").is_dir()
        save_database(upcoming, root)  # recovers, then commits cleanly
        assert _fingerprint(load_database(root)) == _fingerprint(upcoming)
        assert not root.with_name(root.name + ".old").exists()
        assert not root.with_name(root.name + ".saving").exists()


class TestMutatorRollback:
    """Failed in-memory mutations must leave catalog and BWM aligned."""

    def _boom(self, *args, **kwargs):
        raise RuntimeError("injected subsystem failure")

    def test_insert_image_rolls_back_bwm_failure(self, monkeypatch):
        database = _make_database(22)
        before = _fingerprint(database)
        monkeypatch.setattr(database.bwm_structure, "insert_binary", self._boom)
        image = random_palette_image(np.random.default_rng(4), 10, 12, FLAG_PALETTE)
        with pytest.raises(RuntimeError):
            database.insert_image(image)
        monkeypatch.undo()
        assert _fingerprint(database) == before
        assert database.verify_integrity() == []

    def test_insert_edited_rolls_back_bwm_failure(self, monkeypatch):
        database = _make_database(23)
        before = _fingerprint(database)
        sequence = database.catalog.sequence_of(
            next(iter(database.catalog.edited_ids()))
        )
        monkeypatch.setattr(database.bwm_structure, "insert_edited", self._boom)
        with pytest.raises(RuntimeError):
            database.insert_edited(sequence)
        monkeypatch.undo()
        assert _fingerprint(database) == before
        assert database.verify_integrity() == []

    def test_delete_image_rolls_back_bwm_failure(self, monkeypatch):
        database = MultimediaDatabase()
        rng = np.random.default_rng(24)
        image_id = database.insert_image(
            random_palette_image(rng, 10, 12, FLAG_PALETTE)
        )
        before = _fingerprint(database)
        monkeypatch.setattr(database.bwm_structure, "remove_binary", self._boom)
        with pytest.raises(RuntimeError):
            database.delete_image(image_id)
        monkeypatch.undo()
        assert _fingerprint(database) == before
        assert database.verify_integrity() == []

    def test_delete_edited_rolls_back_bwm_failure(self, monkeypatch):
        database = _make_database(25)
        victim = next(iter(database.catalog.edited_ids()))
        before = _fingerprint(database)
        monkeypatch.setattr(database.bwm_structure, "remove_edited", self._boom)
        with pytest.raises(RuntimeError):
            database.delete_edited(victim)
        monkeypatch.undo()
        assert _fingerprint(database) == before
        assert database.verify_integrity() == []

    def test_update_image_leaves_record_intact_on_failure(self, monkeypatch):
        database = _make_database(26)
        image_id = next(iter(database.catalog.binary_ids()))
        record = database.catalog.binary_record(image_id)
        before = (record.image, record.histogram)
        replacement = random_palette_image(
            np.random.default_rng(5), 10, 12, FLAG_PALETTE
        )
        # Fail the last step before the record is assigned.
        monkeypatch.setattr(type(replacement), "copy", self._boom)
        with pytest.raises(RuntimeError):
            database.update_image(image_id, replacement)
        monkeypatch.undo()
        assert (record.image, record.histogram) == before
        assert database.verify_integrity() == []


class TestErrorPlan:
    """Injected ENOSPC/EIO: the save must *handle* it, not crash.

    Unlike :class:`InjectedCrash` (power loss), an injected ``OSError``
    models a live process hitting a full disk or failing device — the
    protocol is expected to surface :class:`PersistenceError` and leave
    the previously committed version byte-for-byte loadable.
    """

    def test_validation(self):
        with pytest.raises(ValueError):
            ErrorPlan(fail_at=0)
        with pytest.raises(ValueError):
            ErrorPlan(fail_at=1, error="EPIPE")
        with pytest.raises(ValueError):
            ErrorPlan(fail_at=1, ops=("write", "sideways"))

    @pytest.mark.parametrize("error", ["ENOSPC", "EIO"])
    def test_save_error_preserves_previous_version(self, tmp_path, error):
        previous = _make_database(41)
        upcoming = _make_database(41)
        upcoming.insert_image(
            random_palette_image(np.random.default_rng(6), 10, 12, FLAG_PALETTE)
        )
        root = tmp_path / "db"
        save_database(previous, root)
        counter = CountingFaults()
        save_database(upcoming, tmp_path / "count", faults=counter)

        for index in range(1, counter.writes + 1):
            plan = ErrorPlan(fail_at=index, error=error)
            try:
                save_database(upcoming, root, faults=plan)
            except PersistenceError as exc:
                # Typed, message names the root, and no scratch debris.
                assert str(root) in str(exc)
                assert plan.raised is not None
                loaded = load_database(root)
                assert _fingerprint(loaded) in (
                    _fingerprint(previous), _fingerprint(upcoming)
                )
                assert loaded.verify_integrity() == []
                assert not root.with_name(root.name + ".saving").exists()
                # Re-save previous so every iteration starts identically.
                save_database(previous, root)
            else:
                # The error landed after the commit point (or the sweep
                # ran past the boundary count): new state is complete.
                assert _fingerprint(load_database(root)) == _fingerprint(
                    upcoming
                )
                save_database(previous, root)

    def test_error_on_fresh_directory_leaves_no_debris(self, tmp_path):
        database = _make_database(43)
        root = tmp_path / "db"
        plan = ErrorPlan(fail_at=2, error="ENOSPC")
        with pytest.raises(PersistenceError):
            save_database(database, root, faults=plan)
        assert not root.exists()
        assert not root.with_name(root.name + ".saving").exists()

    def test_injected_oserror_is_not_raised_raw(self, tmp_path):
        """Callers see the library's typed error, never a bare OSError."""
        database = _make_database(44)
        plan = ErrorPlan(fail_at=1, error="EIO")
        with pytest.raises(PersistenceError) as excinfo:
            save_database(database, tmp_path / "db", faults=plan)
        assert not isinstance(excinfo.value, OSError)
        assert isinstance(excinfo.value.__cause__, OSError)


def test_injected_crash_is_not_a_repro_error(tmp_path):
    """Production error handling must never swallow a simulated crash."""
    from repro.errors import ReproError

    assert not issubclass(InjectedCrash, ReproError)
    database = _make_database(31)
    plan = FaultPlan(fail_at=1)
    with pytest.raises(InjectedCrash):
        save_database(database, tmp_path / "db", faults=plan)
    shutil.rmtree(tmp_path / "db", ignore_errors=True)
