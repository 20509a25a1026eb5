"""Unit tests for the integrity checker, including injected corruption:
every problem carries its stable code."""

import numpy as np
import pytest

from repro.db.integrity import repair, require_integrity, verify_integrity
from repro.errors import DatabaseError
from repro.workloads.datasets import build_flag_database


@pytest.fixture
def database():
    return build_flag_database(np.random.default_rng(41), scale=0.03)


class TestHealthyDatabases:
    def test_fresh_database_is_clean(self, database):
        assert verify_integrity(database) == []
        require_integrity(database)  # must not raise

    def test_after_mutations_still_clean(self, database, rng):
        from repro.color.names import FLAG_PALETTE

        base = next(iter(database.catalog.binary_ids()))
        new_ids = database.augment(base, rng, 3, FLAG_PALETTE)
        database.delete_edited(new_ids[0])
        assert verify_integrity(database) == []

    def test_after_optimization_still_clean(self, database):
        from repro.editing.optimizer import optimize_database

        optimize_database(database)
        assert verify_integrity(database) == []

    def test_loaded_database_is_clean(self, database, tmp_path):
        from repro.db.persistence import load_database, save_database

        loaded = load_database(save_database(database, tmp_path / "db"))
        assert verify_integrity(loaded) == []

    def test_skip_histogram_recomputation(self, database):
        assert verify_integrity(database, recompute_histograms=False) == []


class TestInjectedCorruption:
    def test_misplaced_component_detected(self, database):
        # Move a Main-component member into Unclassified by hand.
        base_id, cluster = next(
            (b, c) for b, c in database.bwm_structure.clusters() if c
        )
        victim = cluster.pop()
        database.bwm_structure.unclassified.append(victim)
        problems = verify_integrity(database)
        assert any(p.code == "DB004" and "misplaced" in p.message for p in problems)

    def test_id_filed_twice_yields_distinguishable_lines(self, database):
        """One verdict per filing: a non-widening image planted under two
        Main clusters is reported once per cluster, not as the same line
        twice."""
        victim = next(iter(database.bwm_structure.unclassified))
        first, second = [b for b, _ in database.bwm_structure.clusters()][:2]
        database.bwm_structure.main[first].append(victim)
        database.bwm_structure.main[second].append(victim)
        misplaced = [
            p
            for p in verify_integrity(database)
            if "misplaced in Main" in p.message and p.location == victim
        ]
        assert len(misplaced) == 2
        assert len(set(misplaced)) == 2
        assert all(p.code == "DB004" for p in misplaced)
        assert any(repr(first) in p.message for p in misplaced)
        assert any(repr(second) in p.message for p in misplaced)
        problems = verify_integrity(database)
        assert len(problems) == len(set(problems))

    def test_missing_bwm_entry_detected(self, database):
        victim = next(iter(database.catalog.edited_ids()))
        database.bwm_structure.remove_edited(victim)
        problems = verify_integrity(database)
        assert any(
            p.code == "DB004" and "missing from the BWM structure" in p.message
            for p in problems
        )

    def test_dangling_unclassified_detected(self, database):
        database.bwm_structure.unclassified.append("ghost-1")
        database.bwm_structure._edited_location["ghost-1"] = ""
        problems = verify_integrity(database)
        assert any(p.code == "DB004" and p.location == "ghost-1" for p in problems)

    def test_corrupted_raster_detected(self, database):
        base = next(iter(database.catalog.binary_ids()))
        record = database.catalog.binary_record(base)
        record.image.pixels[0, 0] = (record.image.pixels[0, 0] + 100) % 255
        problems = verify_integrity(database)
        assert any(
            p.code == "DB009" and "does not match its raster" in p.message
            for p in problems
        )
        # ...and the cheap mode misses exactly this class of problem.
        assert verify_integrity(database, recompute_histograms=False) == []

    def test_broken_derivation_link_detected(self, database):
        edited = next(iter(database.catalog.edited_ids()))
        base = database.catalog.edited_record(edited).base_id
        database.catalog._children[base].remove(edited)
        problems = verify_integrity(database)
        assert any(
            p.code == "DB008" and "derivation link is missing" in p.message
            for p in problems
        )

    def test_require_integrity_raises_with_details(self, database):
        victim = next(iter(database.catalog.edited_ids()))
        database.bwm_structure.remove_edited(victim)
        with pytest.raises(DatabaseError) as excinfo:
            require_integrity(database)
        assert victim in str(excinfo.value)


class TestRepair:
    """Deliberately corrupted databases: each reparable problem class is
    reported by verify_integrity, then cleared by repair()."""

    def _assert_repaired(self, database, expected_fragment):
        problems = verify_integrity(database)
        assert any(expected_fragment in p.message for p in problems), problems
        report = repair(database)
        assert report.actions
        assert report.clean, report.describe()
        assert verify_integrity(database) == []
        return report

    def test_healthy_database_needs_no_actions(self, database):
        report = repair(database)
        assert report.actions == []
        assert report.clean

    def test_dangling_bwm_member(self, database):
        database.bwm_structure.unclassified.append("ghost-1")
        database.bwm_structure._edited_location["ghost-1"] = ""
        report = self._assert_repaired(database, "ghost-1")
        assert any("evicted dangling BWM member" in a for a in report.actions)

    def test_edited_in_two_main_clusters(self, database):
        base_id, cluster = next(
            (b, c) for b, c in database.bwm_structure.clusters() if c
        )
        victim = cluster[0]
        other = next(
            b for b, _ in database.bwm_structure.clusters() if b != base_id
        )
        database.bwm_structure.main[other].append(victim)
        report = self._assert_repaired(database, "two Main clusters")
        assert any("duplicate BWM entries" in a for a in report.actions)

    def test_stale_histogram_after_raster_swap(self, database):
        victim = next(iter(database.catalog.binary_ids()))
        record = database.catalog.binary_record(victim)
        record.image.pixels[:] = (record.image.pixels.astype(int) + 97) % 256
        report = self._assert_repaired(database, "does not match its raster")
        assert any("recomputed stale histogram" in a for a in report.actions)

    def test_misfiled_main_member(self, database):
        base_id, cluster = next(
            (b, c) for b, c in database.bwm_structure.clusters() if c
        )
        victim = cluster.pop()
        database.bwm_structure.unclassified.append(victim)
        report = self._assert_repaired(database, "misplaced")
        assert any("reclassified" in a for a in report.actions)

    def test_missing_bwm_entry_restored(self, database):
        victim = next(iter(database.catalog.edited_ids()))
        database.bwm_structure.remove_edited(victim)
        report = self._assert_repaired(database, "missing from the BWM structure")
        assert any("inserted missing BWM entry" in a for a in report.actions)

    def test_queries_work_after_repair(self, database, rng):
        from repro.workloads.queries import make_query_workload

        victim = next(iter(database.catalog.edited_ids()))
        database.bwm_structure.remove_edited(victim)
        repair(database)
        for query in make_query_workload(database, rng, 4):
            bwm = database.range_query(query, method="bwm").matches
            rbm = database.range_query(query, method="rbm").matches
            assert bwm == rbm

    def test_irreparable_damage_is_reported_not_hidden(self, database):
        edited = next(iter(database.catalog.edited_ids()))
        base = database.catalog.edited_record(edited).base_id
        database.catalog._children[base].remove(edited)
        report = repair(database)
        assert not report.clean
        assert any(
            "derivation link is missing" in p.message for p in report.remaining
        )
        assert "not auto-fixable" in report.describe()

    def test_repair_is_idempotent(self, database):
        database.bwm_structure.unclassified.append("ghost-2")
        database.bwm_structure._edited_location["ghost-2"] = ""
        first = repair(database)
        assert first.actions
        second = repair(database)
        assert second.actions == []

    def test_facade_repair(self, database):
        database.bwm_structure.unclassified.append("ghost-3")
        database.bwm_structure._edited_location["ghost-3"] = ""
        report = database.repair()
        assert report.clean
        assert verify_integrity(database) == []
