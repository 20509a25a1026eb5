"""The memo's exact column: a kNN refinement is paid once per invalidation.

On a memoizing engine ``SimilaritySearch`` keeps the exact histogram of
every edited image it refines in that image's memo row, and reads it
back instead of instantiating again.  The column must be invisible:
neighbours (``repr``) and ``KNNStats`` equal a memo-off twin's, cold,
warm and after every kind of mutation; exactly the images an
invalidation reaches are instantiated again; and the ground-truth paths
(``knn(method="exact")``, ``exact_histogram``, ``range_query(method=
"instantiate")``) never read it.
"""

import math
import sys
import threading
import time

import numpy as np
import pytest

from repro.color.histogram import ColorHistogram
from repro.color.names import FLAG_PALETTE
from repro.core.query import RangeQuery
from repro.db.database import MultimediaDatabase
from repro.db.processors import SimilaritySearch
from repro.editing.operations import Combine, Define, Merge, Modify, Mutate
from repro.editing.sequence import EditSequence
from repro.errors import QueryError
from repro.images.generators import random_palette_image
from repro.shard import ShardedCatalog

SEED = 2028


def _ops(rng, merge_target=None):
    """A short random sequence; ``merge_target`` adds a Merge into it."""
    ops = [Define.of(1, 1, 7, 9)]
    for _ in range(int(rng.integers(1, 4))):
        roll = int(rng.integers(0, 3))
        if roll == 0:
            old, new = (FLAG_PALETTE[int(i)] for i in rng.choice(len(FLAG_PALETTE), 2))
            ops.append(Modify(old, new))
        elif roll == 1:
            ops.append(Combine.box())
        else:
            ops.append(Mutate.translation(int(rng.integers(-2, 3)), 1))
    if merge_target is not None:
        ops.append(Merge(merge_target, int(rng.integers(0, 3)), 1))
    return tuple(ops)


def _records():
    """Binary rasters and edited sequences, in insertion order.

    ``e*`` edit a base; ``c*`` edit an ``e*`` (chained); ``d0`` edits
    ``c0``; ``m*`` merge into an edited image; ``n0`` merges into the
    binary ``target``.
    """
    rng = np.random.default_rng(SEED)
    binary = [
        (f"b{i}", random_palette_image(rng, 10, 12, FLAG_PALETTE)) for i in range(6)
    ]
    binary.append(("target", random_palette_image(rng, 9, 11, FLAG_PALETTE)))
    edited = [(f"e{i}", EditSequence(f"b{i}", _ops(rng))) for i in range(6)]
    edited += [(f"c{i}", EditSequence(f"e{i}", _ops(rng))) for i in range(3)]
    edited.append(("d0", EditSequence("c0", _ops(rng))))
    edited += [
        (f"m{i}", EditSequence(f"b{i + 3}", _ops(rng, f"e{i}"))) for i in range(3)
    ]
    edited.append(("n0", EditSequence("b5", _ops(rng, "target"))))
    return binary, edited


def _build(memo):
    database = MultimediaDatabase(bounds_cache=memo)
    binary, edited = _records()
    for image_id, raster in binary:
        database.insert_image(raster, image_id)
    for image_id, sequence in edited:
        database.insert_edited(sequence, image_id)
    return database


def _queries(database):
    rng = np.random.default_rng(SEED + 1)
    probes = [random_palette_image(rng, 10, 12, FLAG_PALETTE) for _ in range(2)]
    return [ColorHistogram.of_image(p, database.quantizer) for p in probes] + [
        database.catalog.histogram_of("b0")
    ]


def _answers(database, queries):
    """Every bounded read the column serves, as comparable values."""
    found = []
    for query in queries:
        for k in (1, 4, 30):
            for method in ("bounded", "intersection"):
                result = database.knn(query, k, method=method)
                found.append((method, k, repr(result.neighbors), result.stats))
        for epsilon in (0.3, 0.9, math.inf):
            result = database.similarity_range(query, epsilon)
            found.append(("range", epsilon, repr(result.neighbors), result.stats))
    return found


def _closure(database, changed):
    """Edited ids whose base chain or Merge targets reach ``changed``."""
    catalog = database.catalog
    reached = {changed}
    grew = True
    while grew:
        grew = False
        for image_id in catalog.edited_ids():
            refs = set(catalog.sequence_of(image_id).referenced_ids())
            if image_id not in reached and refs & reached:
                reached.add(image_id)
                grew = True
    return reached & set(catalog.edited_ids())


def _mutations(rng):
    """``(name, changed id or None for a flush, apply)`` steps."""
    other = random_palette_image(rng, 10, 12, FLAG_PALETTE)
    other_target = random_palette_image(rng, 9, 11, FLAG_PALETTE)
    resequenced = EditSequence("b2", _ops(rng, "e1"))

    def reinsert(database):
        database.delete_edited("m2")
        database.insert_edited(resequenced, "m2")

    return [
        ("update a base", "b0", lambda db: db.update_image("b0", other)),
        ("update a Merge target", "target",
         lambda db: db.update_image("target", other_target)),
        ("update a base under a Merge target", "b1",
         lambda db: db.update_image("b1", other)),
        ("delete and re-insert an edited image", "m2", reinsert),
        ("flush the memo", None, lambda db: db.engine.invalidate_cache()),
    ]


class _Spy:
    """An instantiator that records which ids it was asked for."""

    def __init__(self, database):
        self._instantiate = database.instantiate
        self.calls = []

    def __call__(self, image_id):
        self.calls.append(image_id)
        return self._instantiate(image_id)


# ----------------------------------------------------------------------
class TestTransparency:
    def test_memo_on_equals_memo_off_through_a_mutation_script(self):
        memo, plain = _build(True), _build(False)
        queries = _queries(memo)
        expected = _answers(plain, queries)
        assert _answers(memo, queries) == expected  # cold: fills the column
        assert memo.engine.exact_fills > 0
        assert _answers(memo, queries) == expected  # warm: reads it
        for name, _, apply in _mutations(np.random.default_rng(SEED + 2)):
            apply(memo)
            apply(plain)
            expected = _answers(plain, queries)
            assert _answers(memo, queries) == expected, name
            assert _answers(memo, queries) == expected, name

    def test_exactly_the_invalidated_closure_is_instantiated_again(self):
        database = _build(True)
        spy = _Spy(database)
        search = SimilaritySearch(database.catalog, database.engine, spy)
        query = _queries(database)[0]
        everything = set(database.catalog.edited_ids())
        search.range_search(query, math.inf)  # refines every edited image
        assert sorted(spy.calls) == sorted(everything)
        spy.calls.clear()
        search.range_search(query, math.inf)
        assert spy.calls == []
        engine = database.engine
        for name, changed, apply in _mutations(np.random.default_rng(SEED + 2)):
            apply(database)
            expected = everything if changed is None else _closure(database, changed)
            assert expected, name
            # The invalidation itself dropped the closure's rows, before
            # any refill of their bounds.
            edited = list(database.catalog.edited_ids())
            held, _ = engine.exact_of_rows(engine.memo_rows(edited), engine.memo_epoch)
            assert {edited[p] for p in held.tolist()} == everything - expected, name
            search.range_search(query, math.inf)
            assert sorted(spy.calls) == sorted(expected), name
            spy.calls.clear()

    def test_counters_separate_fills_from_hits(self):
        database = _build(True)
        query = _queries(database)[0]
        cold = database.knn(query, 4)
        stats = database.engine.cache_stats()
        assert stats["exact_fills"] == cold.stats.edited_instantiated > 0
        assert stats["exact_hits"] == 0
        warm = database.knn(query, 4)
        assert warm.stats == cold.stats
        again = database.engine.cache_stats()
        assert again["exact_fills"] == stats["exact_fills"]
        assert again["exact_hits"] >= warm.stats.edited_instantiated

    def test_a_memo_off_engine_keeps_no_column(self):
        database = _build(False)
        _answers(database, _queries(database))
        stats = database.engine.cache_stats()
        assert (stats["exact_hits"], stats["exact_fills"]) == (0, 0)


class TestGroundTruthStaysUncached:
    @pytest.mark.parametrize(
        "path",
        ["knn_exact", "exact_histogram", "range_instantiate"],
    )
    def test_warm_memo_still_instantiates_every_edited_image(self, monkeypatch, path):
        memo, plain = _build(True), _build(False)
        query = _queries(memo)[0]
        memo.similarity_range(query, math.inf)  # the whole column is warm
        edited = list(memo.catalog.edited_ids())
        assert memo.engine.cache_stats()["exact_fills"] == len(edited)
        run = {
            "knn_exact": lambda db: db.knn(query, 5, method="exact"),
            "exact_histogram": lambda db: [db.exact_histogram(i) for i in edited],
            "range_instantiate": lambda db: db.range_query(
                RangeQuery.at_least(0, 0.1), method="instantiate"
            ),
        }[path]
        calls = {}
        for name, database in (("memo", memo), ("plain", plain)):
            original = database.executor.instantiate
            seen = calls[name] = []

            def spy(base, sequence, original=original, seen=seen):
                seen.append(sequence)
                return original(base, sequence)

            monkeypatch.setattr(database.executor, "instantiate", spy)
        hits = memo.engine.exact_hits
        run(memo)
        run(plain)
        # Once per edited image, plus the chained bases and edited Merge
        # targets each instantiation executes: what the memo-off twin does.
        assert len(calls["memo"]) == len(calls["plain"]) >= len(edited)
        assert memo.engine.exact_hits == hits


class TestEpsilonValidation:
    @pytest.mark.parametrize("shards", [None, 2])
    def test_nan_is_rejected_and_inf_is_legal(self, shards):
        front = _build(True) if shards is None else ShardedCatalog(shards)
        try:
            if shards is not None:
                binary, edited = _records()
                for image_id, raster in binary:
                    front.insert_image(raster, image_id)
                # The router keeps an edit on its base's shard, and a
                # Merge target on the same shard; the e* sequences need
                # nothing else.
                for image_id, sequence in edited[:6]:
                    front.insert_edited(sequence, image_id)
            query = _queries(_build(False))[0]
            with pytest.raises(QueryError):
                front.similarity_range(query, math.nan)
            with pytest.raises(QueryError):
                front.similarity_range(query, -0.1)
            everything = front.similarity_range(query, math.inf)
            assert len(everything.neighbors) == len(front)
            assert everything.stats.edited_pruned == 0
        finally:
            if shards is not None:
                front.close()


def _stored_rows_are_true(database):
    """Every exact row the memo holds equals the image's ground truth."""
    engine = database.engine
    edited = list(database.catalog.edited_ids())
    rows = engine.memo_rows(edited)
    positions, counts = engine.exact_of_rows(rows, engine.memo_epoch)
    for position, row in zip(positions.tolist(), counts):
        truth = database.exact_histogram(edited[position]).counts
        assert row.tolist() == truth.tolist(), edited[position]
    return len(positions)


class TestRacingWriters:
    def test_an_invalidation_during_the_refinement_discards_its_rows(self):
        """The first instantiation of a query runs before an update of
        ``b0``, the rest after it: the epoch moved, so none is kept."""
        database = _build(True)
        spy = _Spy(database)
        rng = np.random.default_rng(SEED + 3)
        pending = [random_palette_image(rng, 10, 12, FLAG_PALETTE)]

        def racing(image_id):
            image = spy(image_id)
            if pending:
                database.update_image("b0", pending.pop())
            return image

        search = SimilaritySearch(database.catalog, database.engine, racing)
        query = _queries(database)[0]
        search.range_search(query, math.inf)
        assert database.engine.exact_fills == 0
        assert _stored_rows_are_true(database) == 0
        spy.calls.clear()
        search.range_search(query, math.inf)  # nothing was kept: all again
        assert sorted(spy.calls) == sorted(database.catalog.edited_ids())
        assert _stored_rows_are_true(database) == len(spy.calls)

    def test_readers_sharing_a_shard_fill_the_column_consistently(self):
        """Readers under the shard's read lock fill and read the column
        while a writer flips ``b0`` between two rasters under its write
        lock: every answer is one of the two states', every row true."""
        binary, edited = _records()
        plain = _build(False)
        queries = _queries(plain)
        original = dict(binary)["b0"]
        rng = np.random.default_rng(SEED + 4)
        flipped = random_palette_image(rng, 10, 12, FLAG_PALETTE)
        legal = {query_index: set() for query_index in range(len(queries))}
        for raster in (flipped, original):
            plain.update_image("b0", raster)
            for index, query in enumerate(queries):
                result = plain.similarity_range(query, 0.9)
                answer = (repr(result.neighbors), result.stats.edited_instantiated)
                legal[index].add(answer)
        catalog = ShardedCatalog(1)
        for image_id, raster in binary:
            catalog.insert_image(raster, image_id)
        for image_id, sequence in edited:
            catalog.insert_edited(sequence, image_id)
        failures = []
        reads = []
        done = threading.Event()

        def reader(offset):
            try:
                while not done.is_set():
                    for index in range(len(queries)):
                        index = (index + offset) % len(queries)
                        result = catalog.similarity_range(queries[index], 0.9)
                        got = (repr(result.neighbors), result.stats.edited_instantiated)
                        assert got in legal[index], index
                        reads.append(index)
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                failures.append(exc)
                done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
        try:
            for thread in threads:
                thread.start()
            flips, deadline = 0, time.monotonic() + 10
            # Original last, so the catalog ends as the records built it;
            # at least one flip each way, even when the readers have made
            # their 200 reads before this thread first runs.
            while (
                len(reads) < 200 or flips < 2 or flips % 2
            ) and time.monotonic() < deadline:
                catalog.update_image("b0", (flipped, original)[flips % 2])
                flips += 1
            done.set()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures, failures
            assert len(reads) >= 200 and flips >= 2
            assert _stored_rows_are_true(catalog.shard_database(0)) > 0
        finally:
            sys.setswitchinterval(interval)
            done.set()
            catalog.close()
