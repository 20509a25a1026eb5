"""ShardedCatalog: router parity vs the single-catalog oracle, routing
invariants, the one write path, and shard-aware persistence."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.color.histogram import ColorHistogram
from repro.color.quantization import UniformQuantizer
from repro.core.query import ConjunctiveQuery, RangeQuery
from repro.db.database import KNN_METHODS
from repro.db.persistence import load_database
from repro.editing.operations import Define, Merge
from repro.editing.sequence import EditSequence
from repro.errors import (
    CrossShardReferenceError,
    DatabaseError,
    DuplicateObjectError,
    PersistenceError,
    QueryError,
    ShardError,
    UnknownObjectError,
)
from repro.db.durable import NoFaults
from repro.shard import SHARD_MANIFEST_NAME, ShardedCatalog, hash_shard
from repro.testing.faults import ErrorPlan

from tests.shard.conftest import build_mirrored_pair, random_image, random_sequence


def _sample_queries(rng, bin_count, count=12):
    queries = []
    for _ in range(count):
        bin_index = int(rng.integers(0, bin_count))
        lo = float(rng.uniform(0.0, 0.6))
        hi = float(rng.uniform(lo, 1.0))
        queries.append(RangeQuery(bin_index, lo, hi))
    return queries


def _assert_full_parity(sharded, oracle, rng):
    queries = _sample_queries(rng, sharded.quantizer.bin_count)
    for query in queries:
        for method in ("rbm", "bwm"):
            assert (
                sharded.range_query(query, method=method).matches
                == oracle.range_query(query, method=method).matches
            )
    for method in ("rbm", "bwm"):
        batched = sharded.range_query_batch(queries, method=method)
        expected = oracle.range_query_batch(queries, method=method)
        assert [r.matches for r in batched] == [r.matches for r in expected]
    conjunctive = ConjunctiveQuery(tuple(queries[:3]))
    assert (
        sharded.conjunctive_query(conjunctive).matches
        == oracle.conjunctive_query(conjunctive).matches
    )
    probe = random_image(rng)
    assert sharded.knn(probe, 5).neighbors == oracle.knn(probe, 5).neighbors
    assert (
        sharded.similarity_range(probe, 0.8).neighbors
        == oracle.similarity_range(probe, 0.8).neighbors
    )


# ----------------------------------------------------------------------
# Scatter-gather parity
# ----------------------------------------------------------------------
class TestRouterParity:
    def test_range_knn_batch_parity(self, mirrored_pair, rng):
        sharded, oracle, _ = mirrored_pair
        _assert_full_parity(sharded, oracle, rng)

    def test_text_query_parity(self, mirrored_pair):
        sharded, oracle, _ = mirrored_pair
        text = "at least 10% blue and at most 70% red"
        assert (
            sharded.text_query(text).matches == oracle.text_query(text).matches
        )

    def test_parity_under_mutation_churn(self, rng):
        sharded, oracle, base_ids = build_mirrored_pair(
            rng, shard_count=4, binary_count=8, edited_count=6
        )
        try:
            edited = [i for i in sharded.ids() if i.startswith("edit")]
            for step in range(10):
                roll = step % 5
                if roll == 0:
                    image = random_image(rng)
                    new_id = sharded.insert_image(image)
                    oracle.insert_image(image, new_id)
                    base_ids.append(new_id)
                elif roll == 1:
                    base = base_ids[int(rng.integers(0, len(base_ids)))]
                    sequence = random_sequence(rng, base)
                    new_id = sharded.insert_edited(sequence)
                    oracle.insert_edited(sequence, new_id)
                    edited.append(new_id)
                elif roll == 2 and edited:
                    victim = edited.pop()
                    sharded.delete_edited(victim)
                    oracle.delete_edited(victim)
                elif roll == 3:
                    target = base_ids[int(rng.integers(0, len(base_ids)))]
                    image = random_image(rng)
                    sharded.update_image(target, image)
                    oracle.update_image(target, image)
                query = RangeQuery(
                    int(rng.integers(0, sharded.quantizer.bin_count)), 0.0, 0.5
                )
                assert (
                    sharded.range_query(query).matches
                    == oracle.range_query(query).matches
                )
            _assert_full_parity(sharded, oracle, rng)
        finally:
            sharded.close()

    def test_queries_consistent_under_concurrent_writes(self, rng):
        sharded, oracle, base_ids = build_mirrored_pair(
            rng, shard_count=3, binary_count=6, edited_count=4
        )
        try:
            mutations = []
            for index in range(12):
                image = random_image(rng)
                mutations.append(("insert", image))
            script_rng = np.random.default_rng(77)
            errors = []
            applied = []

            def writer():
                try:
                    for kind, image in mutations:
                        new_id = sharded.insert_image(image)
                        applied.append((new_id, image))
                        if int(script_rng.integers(0, 3)) == 0:
                            sequence = random_sequence(script_rng, new_id)
                            applied.append(
                                (sharded.insert_edited(sequence), sequence)
                            )
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            def reader():
                try:
                    for _ in range(30):
                        query = RangeQuery(
                            int(script_rng.integers(0, 64)), 0.0, 0.6
                        )
                        result = sharded.range_query(query)
                        assert result.matches <= set(sharded.placement())
                        sharded.knn(random_image(script_rng), 3)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=writer)] + [
                threading.Thread(target=reader) for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            # Once the churn settles, mirror it into the oracle and the
            # router must be back to byte-identical results.
            for item_id, payload in applied:
                if isinstance(payload, EditSequence):
                    oracle.insert_edited(payload, item_id)
                else:
                    oracle.insert_image(payload, item_id)
            _assert_full_parity(sharded, oracle, rng)
        finally:
            sharded.close()

    @pytest.mark.parametrize("method", KNN_METHODS)
    def test_knn_parity_for_every_method(self, rng, method):
        """The shard lists merge in the order they are in: ``intersection``
        ranks descending by similarity, the others ascending by distance."""
        sharded, oracle, _ = build_mirrored_pair(
            rng, shard_count=4, binary_count=12, edited_count=12
        )
        try:
            for _ in range(4):
                probe = random_image(rng)
                assert (
                    sharded.knn(probe, 5, method=method).neighbors
                    == oracle.knn(probe, 5, method=method).neighbors
                )
        finally:
            sharded.close()

    def test_knn_validates_inputs(self, mirrored_pair, rng):
        sharded, _, _ = mirrored_pair
        with pytest.raises(QueryError):
            sharded.knn(random_image(rng), 0)
        other = ColorHistogram.of_image(
            random_image(rng), UniformQuantizer(2, "rgb")
        )
        with pytest.raises(QueryError):
            sharded.knn(other, 3)

    @pytest.mark.parametrize("k", [2.5, float("inf"), 1e9, True])
    def test_knn_rejects_a_k_that_is_not_an_integer_before_fanning_out(
        self, mirrored_pair, rng, monkeypatch, k
    ):
        sharded, oracle, _ = mirrored_pair
        probe = random_image(rng)
        def fanned_out(*args, **kwargs):
            pytest.fail("a shard was asked")

        for index in range(sharded.shard_count):
            monkeypatch.setattr(sharded.shard_database(index), "knn", fanned_out)
        for front in (sharded, oracle):
            with pytest.raises(QueryError):
                front.knn(probe, k)
        monkeypatch.undo()
        expected = oracle.knn(probe, 3).neighbors
        assert sharded.knn(probe, np.int64(3)).neighbors == expected

    def test_instantiate_and_exact_histogram_route(self, mirrored_pair):
        sharded, oracle, _ = mirrored_pair
        for image_id in sharded.ids():
            assert np.array_equal(
                sharded.instantiate(image_id).pixels,
                oracle.instantiate(image_id).pixels,
            )
            assert (
                sharded.exact_histogram(image_id).counts.tolist()
                == oracle.exact_histogram(image_id).counts.tolist()
            )


# ----------------------------------------------------------------------
# Routing invariants
# ----------------------------------------------------------------------
class TestRouting:
    def test_binary_images_land_on_hash_shard(self, mirrored_pair):
        sharded, _, base_ids = mirrored_pair
        for image_id in base_ids:
            assert sharded.shard_of(image_id) == hash_shard(
                image_id, sharded.shard_count
            )

    def test_edited_images_join_their_base_shard(self, mirrored_pair):
        sharded, _, _ = mirrored_pair
        for index in range(sharded.shard_count):
            catalog = sharded.shard_database(index).catalog
            for edited_id in catalog.edited_ids():
                for referenced in catalog.sequence_of(edited_id).referenced_ids():
                    assert sharded.shard_of(referenced) == index

    def test_cross_shard_merge_rejected(self, rng):
        sharded = ShardedCatalog(4)
        try:
            ids = [
                sharded.insert_image(random_image(rng)) for _ in range(12)
            ]
            by_shard = {}
            for image_id in ids:
                by_shard.setdefault(sharded.shard_of(image_id), image_id)
            assert len(by_shard) >= 2, "corpus must span shards"
            (shard_a, id_a), (shard_b, id_b), *_ = sorted(by_shard.items())
            sequence = EditSequence(
                id_a, (Define.of(0, 0, 4, 4), Merge(id_b, 0, 0))
            )
            with pytest.raises(CrossShardReferenceError):
                sharded.insert_edited(sequence)
        finally:
            sharded.close()

    def test_unknown_reference_rejected(self, mirrored_pair):
        sharded, _, _ = mirrored_pair
        with pytest.raises(UnknownObjectError):
            sharded.insert_edited(EditSequence("ghost-1", ()))

    def test_duplicate_id_rejected(self, mirrored_pair, rng):
        sharded, _, base_ids = mirrored_pair
        with pytest.raises(DuplicateObjectError):
            sharded.insert_image(random_image(rng), base_ids[0])

    def test_mutations_against_closed_catalog_fail(self, rng):
        sharded = ShardedCatalog(2)
        sharded.close()
        with pytest.raises(ShardError):
            sharded.insert_image(random_image(rng))


# ----------------------------------------------------------------------
# One write path: the router journals every mutation, once, and a shard
# database refuses any write that bypasses it
# ----------------------------------------------------------------------
def _state(catalog):
    """Every stored id with its exact histogram counts."""
    return {
        image_id: catalog.exact_histogram(image_id).counts.tolist()
        for image_id in sorted(catalog.ids())
    }


def _snapshot(sharded):
    """Everything a refused direct write must leave as it was."""
    return (
        _state(sharded),
        sharded._wal.entries(),
        sharded.placement(),
        [shard.version for shard in sharded._shards],
        [
            (shard.database.bwm_structure.version, repr(shard.database.bwm_structure))
            for shard in sharded._shards
        ],
        [
            sorted(
                image_id
                for image_id in shard.database.catalog.edited_ids()
                if shard.database.engine.has_cached_bounds(image_id)
            )
            for shard in sharded._shards
        ],
        sharded.metrics_snapshot()["counters"],
    )


def _direct_writes(sharded, rng):
    """One direct call to each of a shard database's five mutators,
    aimed at records the shard really holds."""
    index = next(
        index
        for index in range(sharded.shard_count)
        if sharded.shard_database(index).catalog.edited_count
    )
    database = sharded.shard_database(index)
    edited = next(iter(database.catalog.edited_ids()))
    binary = next(iter(database.catalog.binary_ids()))
    base = database.catalog.sequence_of(edited).base_id
    return database, [
        lambda: database.insert_image(random_image(rng), "rogue-1"),
        lambda: database.insert_edited(EditSequence(base), "rogue-2"),
        lambda: database.delete_edited(edited),
        lambda: database.delete_image(binary),
        lambda: database.update_image(binary, random_image(rng)),
    ]


class TestWALDedupe:
    def test_one_wal_record_per_wrapper_mutation(self, rng, tmp_path):
        sharded, oracle, base_ids = build_mirrored_pair(
            rng, shard_count=2, binary_count=5, edited_count=3, root=tmp_path
        )
        try:
            mutations = 8  # 5 inserts + 3 edited inserts
            image = random_image(rng)
            sharded.update_image(base_ids[0], image)
            mutations += 1
            entries = sharded._wal.entries()
            assert len(entries) == mutations
            assert sharded.metrics.counter("wal.appends") == mutations
        finally:
            sharded.close()

    def test_out_of_band_mutation_logged_as_change(self, rng, tmp_path):
        """A direct write through any of the five mutators is refused
        before anything is stored, whether or not the WAL would have
        accepted an append: nothing reaches the shard, the log, the
        placement map, the memo or the counters, and the checker finds
        nothing."""
        sharded, _, _ = build_mirrored_pair(
            rng, shard_count=2, binary_count=4, edited_count=4, root=tmp_path
        )
        try:
            sharded.range_query(RangeQuery(0, 0.0, 0.5))  # warm the memo
            before = _snapshot(sharded)
            database, writes = _direct_writes(sharded, rng)
            for faults in (ErrorPlan(fail_at=1, ops=("append",)), NoFaults()):
                sharded.faults = faults
                for write in writes:
                    with pytest.raises(ShardError, match="written only through"):
                        write()
                    assert _snapshot(sharded) == before
            assert "rogue-1" not in database.catalog.binary_ids()
            assert sharded.verify_integrity() == []
        finally:
            sharded.close()

    def test_out_of_band_under_held_write_lock_does_not_deadlock(
        self, rng, tmp_path
    ):
        """Holding the shard's write lock does not open the write path.

        A direct write made while the caller holds ``shard.lock`` is
        refused like any other, and refusing it takes no lock, so it
        cannot deadlock on the non-reentrant lock already held.
        """
        sharded, _, _ = build_mirrored_pair(
            rng, shard_count=2, binary_count=4, edited_count=4, root=tmp_path
        )
        try:
            before = _snapshot(sharded)
            database, writes = _direct_writes(sharded, rng)
            shard = next(s for s in sharded._shards if s.database is database)
            refused = []

            def held_writes():
                with shard.lock.write_locked():
                    assert shard.lock.write_held_by_current_thread()
                    for write in writes:
                        try:
                            write()
                        except ShardError:
                            refused.append(write)

            worker = threading.Thread(target=held_writes, daemon=True)
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive(), "direct write deadlocked"
            assert refused == writes
            assert _snapshot(sharded) == before
            assert sharded.verify_integrity() == []
        finally:
            sharded.close()


    def test_direct_write_refused_while_the_router_applies(self, rng, tmp_path):
        """The router's apply window opens no door for other threads: a
        direct write made mid-apply on the same shard, by a thread that
        does not hold the shard's write lock, is refused too."""
        sharded, _, base_ids = build_mirrored_pair(
            rng, shard_count=1, binary_count=2, edited_count=0, root=tmp_path
        )
        try:
            database = sharded.shard_database(0)
            before = sharded.exact_histogram(base_ids[0]).counts.tolist()
            inside, release = threading.Event(), threading.Event()
            insert_binary = database.bwm_structure.insert_binary

            def paused(image_id):
                inside.set()
                assert release.wait(timeout=30)
                insert_binary(image_id)

            database.bwm_structure.insert_binary = paused
            worker = threading.Thread(
                target=sharded.insert_image,
                args=(random_image(rng), "routed-1"),
                daemon=True,
            )
            worker.start()
            try:
                assert inside.wait(timeout=30)
                assert sharded._shards[0].applying
                with pytest.raises(ShardError, match="written only through"):
                    database.update_image(base_ids[0], random_image(rng))
            finally:
                release.set()
                worker.join(timeout=30)
            assert not worker.is_alive()
            assert sharded.contains("routed-1")
            assert sharded.exact_histogram(base_ids[0]).counts.tolist() == before
            assert sharded.verify_integrity() == []
        finally:
            sharded.close()


class TestWALAppendErrors:
    """A full disk or failing device at a WAL boundary refuses the
    mutation with a typed error and leaves no trace of it: not in the
    catalog and not in the log.  A direct shard-database write of the
    same id is refused too, so the failed append cannot be got round."""

    @pytest.mark.parametrize("boundary", ["append", "fsync"])
    @pytest.mark.parametrize("op", ["insert_image", "update_image", "delete_image"])
    def test_failed_append_refuses_the_mutation_cleanly(
        self, rng, tmp_path, op, boundary
    ):
        sharded, _, base_ids = build_mirrored_pair(
            rng, shard_count=2, binary_count=4, edited_count=0, root=tmp_path
        )
        target = "fresh-0" if op == "insert_image" else base_ids[0]
        try:
            before, records = _state(sharded), len(sharded._wal.entries())
            sharded.faults = ErrorPlan(fail_at=1, ops=(boundary,))
            with pytest.raises(PersistenceError, match="injected ENOSPC"):
                if op == "delete_image":
                    sharded.delete_image(target)
                elif op == "update_image":
                    sharded.update_image(target, random_image(rng))
                else:
                    sharded.insert_image(random_image(rng), image_id=target)
            sharded.faults = NoFaults()
            assert _state(sharded) == before
            assert len(sharded._wal.entries()) == records

            # The same write made directly on the shard's database is
            # refused before it stores anything, and journals nothing.
            database = sharded.shard_database(hash_shard(target, 2))
            with pytest.raises(ShardError, match="written only through"):
                if op == "delete_image":
                    database.delete_image(target)
                elif op == "update_image":
                    database.update_image(target, random_image(rng))
                else:
                    database.insert_image(random_image(rng), target)
            assert _state(sharded) == before
            assert len(sharded._wal.entries()) == records
            assert sharded.verify_integrity() == []

            sharded.insert_image(random_image(rng), image_id="after-0")
            live = _state(sharded)
            assert set(live) == set(before) | {"after-0"}
        finally:
            sharded.close()
        reopened = ShardedCatalog.open(tmp_path)
        try:
            assert _state(reopened) == live
        finally:
            reopened.close()


# ----------------------------------------------------------------------
# Persistence: save / open / replay / manifest
# ----------------------------------------------------------------------
class TestPersistence:
    def test_save_open_roundtrip_parity(self, rng, tmp_path):
        sharded, oracle, _ = build_mirrored_pair(rng, root=tmp_path)
        versions = None
        try:
            sharded.save()
            assert sharded._wal.entries() == []
            versions = [s.version for s in sharded._shards]
        finally:
            sharded.close()
        reopened = ShardedCatalog.open(tmp_path)
        try:
            assert sorted(reopened.ids()) == sorted(oracle.ids())
            assert [s.version for s in reopened._shards] == versions
            _assert_full_parity(reopened, oracle, rng)
        finally:
            reopened.close()

    def test_four_shard_answers_are_byte_identical_after_save_and_open(
        self, rng, tmp_path
    ):
        """Each shard checkpoints into one pack, and the reopened
        catalog answers every read exactly as the live one did."""
        from repro.db.versioning import PACK_NAME

        sharded, _, _ = build_mirrored_pair(
            rng, shard_count=4, binary_count=16, edited_count=24, root=tmp_path
        )
        queries = _sample_queries(rng, sharded.quantizer.bin_count)
        probe = random_image(rng)

        def answers(catalog):
            return (
                list(catalog.ids()),
                sorted(catalog.placement().items()),
                [catalog.range_query(q, method=m).matches
                 for q in queries for m in ("rbm", "bwm")],
                catalog.knn(probe, 7).neighbors,
                catalog.similarity_range(probe, 0.8).neighbors,
                [catalog.instantiate(i) for i in catalog.ids()],
            )

        try:
            sharded.save()
            before = answers(sharded)
        finally:
            sharded.close()
        for index in range(4):
            shard_root = tmp_path / f"shard-{index:03d}"
            assert sorted(p.name for p in shard_root.iterdir()) == [
                "catalog.json", PACK_NAME
            ]
        with ShardedCatalog.open(tmp_path) as reopened:
            assert reopened.metrics.counter("wal.replayed") == 0
            assert answers(reopened) == before

    def test_unsaved_tail_replays_from_wal(self, rng, tmp_path):
        sharded, oracle, base_ids = build_mirrored_pair(rng, root=tmp_path)
        try:
            sharded.save()
            image = random_image(rng)
            new_id = sharded.insert_image(image)
            oracle.insert_image(image, new_id)
            sequence = random_sequence(rng, new_id)
            edited_id = sharded.insert_edited(sequence)
            oracle.insert_edited(sequence, edited_id)
            sharded.delete_edited(edited_id)
            oracle.delete_edited(edited_id)
        finally:
            sharded.close()  # crash-shaped: no second save
        reopened = ShardedCatalog.open(tmp_path)
        try:
            assert reopened.contains(new_id)
            assert not reopened.contains(edited_id)
            assert reopened.metrics.counter("wal.replayed") == 3
            _assert_full_parity(reopened, oracle, rng)
            # Replay must allocate past replayed ids, not reuse them.
            another = reopened.insert_image(random_image(rng))
            assert another != new_id
        finally:
            reopened.close()

    def test_rejected_mutation_record_replays_to_skip(self, rng, tmp_path):
        """A record whose live apply was rejected must not wedge open().

        The WAL records attempts before outcomes: ``delete_image`` on a
        base that still has derived edits raises after its record is
        already journaled.  Replay hits the same rejection and must skip
        the record — not fail open() permanently.
        """
        sharded = ShardedCatalog(2, root=tmp_path)
        base_id = edited_id = None
        try:
            base_id = sharded.insert_image(random_image(rng))
            edited_id = sharded.insert_edited(random_sequence(rng, base_id))
            with pytest.raises(DatabaseError):
                sharded.delete_image(base_id)  # derived edit references it
            # The rejected mutation's record is already in the log.
            assert len(sharded._wal.entries()) == 3
        finally:
            sharded.close()  # crash-shaped: no save
        reopened = ShardedCatalog.open(tmp_path)
        try:
            assert reopened.contains(base_id)
            assert reopened.contains(edited_id)
            assert reopened.metrics.counter("wal.replayed") == 2
            assert reopened.metrics.counter("wal.replay_failed") == 1
        finally:
            reopened.close()

    def test_delete_edited_refused_while_edits_build_on_it(self, rng, tmp_path):
        """``y`` from ``x`` from ``b``: deleting ``x`` is refused, live and
        on replay (the journaled attempt is skipped, as ``_commit``
        documents), so a crash-shaped reopen converges to the same state."""
        sharded = ShardedCatalog(2, root=tmp_path)
        try:
            b = sharded.insert_image(random_image(rng))
            x = sharded.insert_edited(random_sequence(rng, b))
            y = sharded.insert_edited(EditSequence(x))
            with pytest.raises(DatabaseError):
                sharded.delete_edited(x)
            home = sharded.shard_of(b)
            assert sharded.placement() == {b: home, x: home, y: home}
            assert sharded.shard_database(home).verify_integrity() == []
            # A later, legal mutation lands at the version the refused
            # one would have taken, and is journaled like any other.
            z = sharded.insert_edited(EditSequence(y))
            expected = (sharded.placement(), sharded.instantiate(z))
            assert len(sharded._wal.entries()) == 5
        finally:
            sharded.close()  # crash-shaped: no save
        reopened = ShardedCatalog.open(tmp_path)
        try:
            assert (reopened.placement(), reopened.instantiate(z)) == expected
            assert reopened.shard_database(home).verify_integrity() == []
            assert reopened.metrics.counter("wal.replayed") == 4
            assert reopened.metrics.counter("wal.replay_failed") == 1
        finally:
            reopened.close()

    def test_root_written_before_index_kind_was_dropped_still_opens(self, tmp_path):
        """``data/root_pr16`` was written by the last release whose
        ``shards.json`` carried an ``index_kind`` key: a checkpoint plus
        two WAL-only mutations.  The key is ignored (it still counts
        towards the manifest checksum), everything else is as recorded —
        and a manifest written today has no such key."""
        import json
        import shutil
        from pathlib import Path

        from repro.images.raster import Image

        root = tmp_path / "root"
        shutil.copytree(Path(__file__).parent / "data" / "root_pr16", root)
        assert "index_kind" in json.loads((root / SHARD_MANIFEST_NAME).read_text())
        expected = json.loads((root / "expected.json").read_text())

        def assert_as_recorded(reopened):
            assert list(reopened.ids()) == expected["ids"]
            assert reopened.placement() == expected["placement"]
            query = RangeQuery.at_least(expected["range_bin"], 0.5)
            assert sorted(reopened.range_query(query).matches) == expected[
                "range_matches"
            ]
            probe = Image.filled(4, 4, (0, 40, 104))
            assert [
                [distance, image_id]
                for distance, image_id in reopened.knn(probe, 3).neighbors
            ] == expected["knn"]
            for index in range(reopened.shard_count):
                assert reopened.shard_database(index).verify_integrity() == []

        with ShardedCatalog.open(root) as reopened:
            assert_as_recorded(reopened)
            assert reopened.metrics.counter("wal.replayed") == 2
            shard_count = reopened.shard_count
            reopened.save()
        rewritten = json.loads((root / SHARD_MANIFEST_NAME).read_text())
        assert "index_kind" not in rewritten
        # The checkpoint rewrote every shard's v2 segment root as a v3
        # manifest over one pack.
        for index in range(shard_count):
            shard_root = root / f"shard-{index:03d}"
            manifest = json.loads((shard_root / "catalog.json").read_text())
            assert manifest["format_version"] == 3
            assert sorted(p.name for p in shard_root.iterdir()) == [
                "catalog.json", "segments.pack"
            ]
        with ShardedCatalog.open(root) as reopened:
            assert_as_recorded(reopened)
            assert reopened.metrics.counter("wal.replayed") == 0
        with pytest.raises(TypeError):
            ShardedCatalog(2, index_kind="rtree")

    def test_reopen_is_idempotent(self, rng, tmp_path):
        sharded, oracle, _ = build_mirrored_pair(rng, root=tmp_path)
        try:
            sharded.save()
            image = random_image(rng)
            new_id = sharded.insert_image(image)
            oracle.insert_image(image, new_id)
        finally:
            sharded.close()
        for _ in range(2):  # replay twice without checkpointing between
            reopened = ShardedCatalog.open(tmp_path)
            try:
                assert reopened.contains(new_id)
                _assert_full_parity(reopened, oracle, rng)
            finally:
                reopened.close()

    def test_load_database_redirects_sharded_roots(self, rng, tmp_path):
        sharded, _, _ = build_mirrored_pair(
            rng, binary_count=2, edited_count=0, root=tmp_path
        )
        try:
            sharded.save()
        finally:
            sharded.close()
        with pytest.raises(PersistenceError, match="sharded catalog root"):
            load_database(tmp_path)
        # Individual shard segment roots stay loadable directly.
        load_database(tmp_path / "shard-000")

    def test_manifest_tamper_detected(self, rng, tmp_path):
        sharded, _, _ = build_mirrored_pair(
            rng, binary_count=2, edited_count=0, root=tmp_path
        )
        try:
            sharded.save()
        finally:
            sharded.close()
        manifest = tmp_path / SHARD_MANIFEST_NAME
        manifest.write_text(
            manifest.read_text().replace('"shard_count": 3', '"shard_count": 5')
        )
        with pytest.raises(PersistenceError, match="checksum"):
            ShardedCatalog.open(tmp_path)

    def test_shard_count_conflict_requires_open(self, rng, tmp_path):
        sharded, _, _ = build_mirrored_pair(
            rng, shard_count=2, binary_count=2, edited_count=0, root=tmp_path
        )
        sharded.close()
        with pytest.raises(ShardError, match="open"):
            ShardedCatalog(5, root=tmp_path)

    def test_ephemeral_catalog_cannot_save(self, rng):
        sharded = ShardedCatalog(2)
        try:
            with pytest.raises(ShardError, match="root"):
                sharded.save()
        finally:
            sharded.close()


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestMetrics:
    def test_prometheus_families(self, rng, tmp_path):
        sharded, _, _ = build_mirrored_pair(
            rng, binary_count=4, edited_count=2, root=tmp_path
        )
        try:
            sharded.range_query(RangeQuery(0, 0.0, 0.5))
            text = sharded.prometheus_metrics()
            assert 'repro_shard_events_total{event="mutations"}' in text
            assert 'repro_wal_events_total{event="appends"}' in text
        finally:
            sharded.close()

    def test_status_shape(self, mirrored_pair):
        sharded, _, _ = mirrored_pair
        sharded.range_query(RangeQuery(0, 0.0, 0.5))
        status = sharded.status()
        assert status["shard_count"] == sharded.shard_count
        assert status["images"] == len(sharded)
        assert len(status["shards"]) == sharded.shard_count
        for shard_status in status["shards"]:
            assert shard_status["queries_served"] >= 1
        assert "shard(s)" in sharded.describe_status()
