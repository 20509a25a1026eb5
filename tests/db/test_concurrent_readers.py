"""Readers racing writers on one database directory.

The per-root commit lock in :mod:`repro.db.persistence` makes the
save protocol's two-rename commit window (``catalog`` → ``.old``,
``.saving`` → ``catalog``) invisible to in-process readers: a
``load_database`` that races a ``save_database`` — including the save
that upgrades a legacy root to v3 — must observe a *complete* catalog:
entirely the old state or entirely the new one, never a missing
manifest, a half-swapped pointer table, or a mixture of the two states'
records.

The last class races readers on one *in-memory* database instead: with
the bounds memo on, concurrent queries allocate and fill memo rows, and
each dirty row must be swept once and read back whole.
"""

import threading

import numpy as np

from repro.color.names import FLAG_PALETTE
from repro.core.query import RangeQuery
from repro.db.database import MultimediaDatabase
from repro.db.persistence import load_database, save_database
from repro.images.generators import random_palette_image
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
    )


def _race(root, writer, legal_fingerprints, readers=3, per_reader=12):
    """Run loader threads against ``writer``; every load must land in
    ``legal_fingerprints`` and never raise."""
    failures = []
    start = threading.Barrier(readers + 1)

    def read_loop():
        start.wait()
        for _ in range(per_reader):
            try:
                seen = _fingerprint(load_database(root))
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                failures.append(exc)
                return
            if seen not in legal_fingerprints:
                failures.append(
                    AssertionError(f"mixed catalog state observed: {seen}")
                )
                return

    threads = [threading.Thread(target=read_loop) for _ in range(readers)]
    for thread in threads:
        thread.start()
    start.wait()
    writer()
    for thread in threads:
        thread.join()
    assert not failures, failures


class TestLoadersVersusSave:
    def test_loads_racing_resaves_see_whole_states(self, tmp_path):
        old_state = _make_database(31)
        new_state = _make_database(31)
        new_state.insert_image(
            random_palette_image(
                np.random.default_rng(5), 10, 12, FLAG_PALETTE
            )
        )
        victim = sorted(new_state.catalog.edited_ids())[0]
        new_state.delete_edited(victim)
        root = tmp_path / "db"
        save_database(old_state, root)
        legal = {_fingerprint(old_state), _fingerprint(new_state)}

        def writer():
            # Flip between the two states repeatedly to widen the race
            # window across many commit cycles.
            for state in (new_state, old_state, new_state):
                save_database(state, root)

        _race(root, writer, legal)

    def test_loads_racing_v3_resave(self, tmp_path):
        """Loads racing the save that turns the committed v1 root into
        v3, and the re-saves after it."""
        root = copy_root("root_v1", tmp_path / "db")
        database = load_database(root)
        legal = {_fingerprint(database)}

        def writer():
            for _ in range(3):
                save_database(database, root)

        _race(root, writer, legal)
        assert manifest(root)["format_version"] == 3


class TestLoadersVersusMigration:
    def test_loads_racing_migration_see_consistent_catalogs(self, tmp_path):
        """Loads racing v3 re-saves of the committed v2 root answer like
        its oracle whichever format they land on."""
        oracle = expected("root_v2")
        root = copy_root("root_v2", tmp_path / "db")
        database = load_database(root)
        failures = []
        start = threading.Barrier(4)

        def read_loop():
            start.wait()
            for _ in range(10):
                try:
                    got = observed(load_database(root), oracle)
                except Exception as exc:  # noqa: BLE001 - recorded
                    failures.append(exc)
                    return
                if got != answers(oracle):
                    failures.append(
                        AssertionError(f"oracle drift mid-upgrade: {got}")
                    )
                    return

        threads = [threading.Thread(target=read_loop) for _ in range(3)]
        for thread in threads:
            thread.start()
        start.wait()
        for _ in range(4):
            save_database(database, root)
        for thread in threads:
            thread.join()
        assert not failures, failures
        assert manifest(root)["format_version"] == 3
        assert observed(load_database(root), oracle) == answers(oracle)


class TestReadersFillingTheBoundsMemo:
    def test_disjoint_and_overlapping_dirty_rows_are_swept_once(self):
        cached = _make_database(43, bases=30, variants=3)  # 120 rows: the memo grows
        cached.engine.enable_memo()
        plain = _make_database(43, bases=30, variants=3)
        ids = list(cached.ids())
        queries = [RangeQuery.at_least(b, 0.15) for b in (0, 21, 42, 63)]
        expected = {
            (method, query): plain.range_query(query, method=method).matches
            for method in ("bwm", "rbm")
            for query in queries
        }
        engine = cached.engine
        engine.bounds_all_bins_batch(ids)
        work = engine.rules_applied  # what sweeping every row once costs
        failures = []

        def reader(index, start):
            mine = (ids[:80], ids[50:], ids[20:100])[index]  # overlap in pairs
            try:
                start.wait()
                rows = engine.bounds_all_bins_batch(mine)
                for image_id, row in zip(mine, rows):
                    assert row[0][5] == plain.bounds(image_id, 5).lo, image_id
                for (method, query), matches in expected.items():
                    got = cached.range_query(query, method=method).matches
                    assert got == matches, (method, query)
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                failures.append(exc)

        for _ in range(5):
            engine.invalidate_cache()  # every row dirty, the memo empty again
            before = engine.rules_applied
            start = threading.Barrier(3)
            threads = [
                threading.Thread(target=reader, args=(index, start))
                for index in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not failures, failures
            # Fills are serialized and re-check validity under the lock:
            # no row was swept twice, whoever got there first.
            assert engine.rules_applied - before == work
            assert engine.cache_stats()["vector_entries"] == len(ids)
