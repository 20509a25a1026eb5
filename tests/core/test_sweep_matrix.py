"""The array-shaped sweep is the scalar walk, whatever it reuses.

The op table caches structure between sweeps (the sweep plan: strata,
how each row seeds, which row answers which requested id; the manager's
"coverage is current" mark) and hands its answer out as matrices.  None
of that may be visible: after every kind of catalog change the next
``bounds_all_bins_batch`` must equal the scalar ``bounds(id, bin)`` walk
on an uncached and on a cached engine, structural errors must repeat
word for word on the cached plan, and the matrix-backed result must
still read as the list of tuples it replaced.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.color.names import FLAG_PALETTE
from repro.color.quantization import UniformQuantizer
from repro.core import optable
from repro.core.bounds import BoundsEngine, BoundsMatrix
from repro.db.database import MultimediaDatabase
from repro.editing.operations import Combine, Define, Merge, Modify
from repro.editing.sequence import EditSequence
from repro.errors import ReproError, RuleError, UnknownObjectError
from repro.images.generators import random_palette_image
from tests.core.test_optable import (
    _add_binary,
    _assert_matches_scalar,
    _DictStore,
    _error_stores,
    _random_corpus,
    _scalar_engine,
    _scalar_error,
)

RED = (200, 16, 46)
BLUE = (0, 40, 104)


def _image(rng):
    return random_palette_image(rng, 9, 11, FLAG_PALETTE)


def _database(rng, bounds_cache: bool):
    """Three bases; plain, Merge-onto-base and chained edits over them."""
    database = MultimediaDatabase(bounds_cache=bounds_cache)
    for name in ("b0", "b1", "b2"):
        database.insert_image(_image(rng), name)
    database.insert_edited(
        EditSequence("b0", (Define.of(0, 0, 4, 5), Combine.box())), "plain"
    )
    database.insert_edited(
        EditSequence("b0", (Define.of(1, 1, 5, 6), Merge("b1", 2, 2))), "merged"
    )
    database.insert_edited(
        EditSequence("b2", (Define.of(0, 0, 9, 11), Modify(RED, BLUE))), "recolor"
    )
    database.insert_edited(
        EditSequence("plain", (Define.of(2, 2, 6, 6), Combine.box())), "chained"
    )
    return database


def _assert_sweep_is_scalar(database):
    """Twice: the second sweep runs on the cached plan and coverage."""
    edited_ids = list(database.catalog.edited_ids())
    scalar_engine = _scalar_engine(database.engine)
    for _ in range(2):
        swept = database.engine.bounds_all_bins_batch(edited_ids)
        assert len(swept) == len(edited_ids)
        for image_id, row in zip(edited_ids, swept):
            _assert_matches_scalar(row, scalar_engine, image_id)


@pytest.mark.parametrize("bounds_cache", [False, True], ids=["uncached", "cached"])
class TestReuseIsInvisible:
    def test_every_kind_of_change(self, rng, bounds_cache):
        database = _database(rng, bounds_cache)
        manager = database.engine.optable_manager
        _assert_sweep_is_scalar(database)

        def counters():
            # A cached engine reaches the manager only on a memo miss;
            # reconcile explicitly so both modes read settled counters.
            manager.refresh(list(database.catalog.edited_ids()))
            return (
                manager.recompiled,
                manager.tombstoned,
                manager.table.compiled_rows,
            )

        before = counters()
        database.insert_edited(
            EditSequence("b1", (Define.of(0, 0, 3, 3), Combine.box())), "fresh"
        )
        _assert_sweep_is_scalar(database)
        assert counters() == (before[0], before[1], before[2] + 1)

        before = counters()
        database.delete_edited("fresh")
        _assert_sweep_is_scalar(database)
        assert counters() == (before[0], before[1] + 1, before[2])

        # A base's raster changes: no table row does, so the table
        # version stands still and the plan is reused — the new
        # histogram must be read all the same.
        before, version = counters(), manager.table.version
        edited_ids = list(database.catalog.edited_ids())
        old = database.engine.bounds_all_bins_batch(edited_ids)[0][0].copy()
        plan = manager.table._sweep_plan
        database.update_image("b0", _image(rng))
        _assert_sweep_is_scalar(database)
        assert manager.table.version == version
        if not bounds_cache:  # a cached engine re-sweeps only the dependents
            assert manager.table._sweep_plan is plan
        assert counters() == before
        new = database.engine.bounds_all_bins_batch(edited_ids)[0][0]
        assert not np.array_equal(old, new)

        # ...and a Merge target's.
        before = counters()
        database.update_image("b1", _image(rng))
        _assert_sweep_is_scalar(database)
        assert counters() == before

        # Re-save of a sequence under its id.
        before = counters()
        database.delete_edited("recolor")
        database.insert_edited(
            EditSequence("b2", (Define.of(0, 0, 5, 5), Combine.box())), "recolor"
        )
        _assert_sweep_is_scalar(database)
        assert counters() == (before[0] + 1, before[1], before[2] + 1)

        # A base loses its last edit, is swept without it, and gets one
        # back under the same id.
        before = counters()
        database.delete_edited("recolor")
        _assert_sweep_is_scalar(database)
        assert counters() == (before[0], before[1] + 1, before[2])
        database.insert_edited(
            EditSequence("b2", (Define.of(1, 1, 4, 4), Modify(RED, BLUE))), "recolor"
        )
        _assert_sweep_is_scalar(database)
        assert counters() == (before[0], before[1] + 1, before[2] + 1)

        # An id requested before it exists, and again once it does.
        edited_ids = list(database.catalog.edited_ids())
        for _ in range(2):
            with pytest.raises(UnknownObjectError, match="later"):
                database.engine.bounds_all_bins_batch(edited_ids + ["later"])
        database.insert_edited(
            EditSequence("chained", (Define.of(0, 0, 2, 2), Combine.box())), "later"
        )
        swept = database.engine.bounds_all_bins_batch(edited_ids + ["later"])
        _assert_matches_scalar(swept[-1], _scalar_engine(database.engine), "later")
        _assert_sweep_is_scalar(database)

        # Whole-cache flush: the table is rebuilt from nothing.
        compiled = manager.table.compiled_rows
        database.engine.invalidate_cache()
        _assert_sweep_is_scalar(database)
        assert manager.table.compiled_rows == compiled + len(edited_ids) + 1

        # Compaction behind the manager's back bumps the version, so
        # neither the plan nor the coverage mark survives it.
        database.delete_edited("later")
        manager.refresh(list(database.catalog.edited_ids()))
        assert manager.table.dead_count > 0
        manager.table.compact()
        assert manager.table.dead_count == 0
        _assert_sweep_is_scalar(database)

    def test_repeat_sweep_reuses_plan_and_skips_coverage(self, rng, bounds_cache):
        database = _database(rng, bounds_cache)
        edited_ids = list(database.catalog.edited_ids())
        manager = database.engine.optable_manager
        database.engine.bounds_all_bins_batch(edited_ids)
        plan = manager.table._sweep_plan
        lookups = []
        real = manager._store.lookup_for_bounds

        class Counting:
            def lookup_for_bounds(self, image_id):
                lookups.append(image_id)
                return real(image_id)

        manager._store = Counting()
        manager.refresh(edited_ids)
        assert lookups == []
        # A dirty id (here: a base, which has no row) forces the fixpoint,
        # which asks the store about every reference without a row; it
        # finds nothing to compile, so the plan stands.
        version = manager.table.version
        database.engine.invalidate("b0")
        manager.refresh(edited_ids)
        assert sorted(lookups) == ["b0", "b1", "b2"]
        manager.compute(edited_ids)
        assert manager.table.version == version
        assert manager.table._sweep_plan is plan
        lookups.clear()
        # A different request is not covered by the mark.
        manager.refresh(edited_ids[:2])
        assert lookups

    def test_max_depth_is_not_baked_into_the_plan(self, rng, bounds_cache):
        """Two engines over one manager's table would share a plan; the
        per-call ``max_depth`` must still decide."""
        database = _database(rng, bounds_cache)
        manager = database.engine.optable_manager
        deep = manager.compute(["chained"], max_depth=8)
        assert not deep.failures
        shallow = manager.compute(["chained"], max_depth=2)
        tight = BoundsEngine(database.catalog, database.quantizer, max_depth=2)
        with pytest.raises(RuleError) as raised:
            tight.bounds("chained", 0)
        assert str(shallow.failures["chained"]) == str(raised.value)
        again = manager.compute(["chained"], max_depth=8)
        assert not again.failures
        assert np.array_equal(again.view(0)[0], deep.view(0)[0])


class TestErrorsRepeatOnTheCachedPlan:
    @pytest.mark.parametrize(
        "name,store,ids",
        _error_stores(UniformQuantizer(2, "rgb")),
        ids=lambda value: value if isinstance(value, str) else "",
    )
    def test_same_first_error_twice(self, name, store, ids):
        quantizer = UniformQuantizer(2, "rgb")
        scalar_engine = BoundsEngine(store, quantizer)
        expected = next(
            (
                error
                for error in (_scalar_error(scalar_engine, i) for i in ids)
                if error is not None
            ),
            None,
        )
        engine = BoundsEngine(store, quantizer)
        table = engine.optable_manager.table
        plans = []
        for _ in range(2):
            raised = None
            try:
                swept = engine.bounds_all_bins_batch(ids)
            except ReproError as exc:
                raised = exc
            plans.append(table._sweep_plan)
            if expected is None:
                assert raised is None, name
                for image_id, row in zip(ids, swept):
                    _assert_matches_scalar(row, scalar_engine, image_id)
            else:
                assert type(raised) is type(expected), name
                assert str(raised) == str(expected), name
        assert plans[0] is not None and plans[0] is plans[1], name


class TestBoundsMatrixReadsAsTheListItReplaced:
    @pytest.fixture
    def engines(self, quantizer):
        store, ids = _random_corpus(np.random.default_rng(8), quantizer, 12)
        return store, ids, quantizer

    def _expected(self, store, quantizer, ids):
        """The parent's list of tuples, from the scalar walk."""
        scalar = BoundsEngine(store, quantizer)
        rows = []
        for image_id in ids:
            cells = [scalar.bounds(image_id, b) for b in range(quantizer.bin_count)]
            rows.append(
                (
                    np.array([c.lo for c in cells], dtype=np.int64),
                    np.array([c.hi for c in cells], dtype=np.int64),
                    cells[0].height,
                    cells[0].width,
                )
            )
        return rows

    @staticmethod
    def _same(row, expected):
        return (
            isinstance(row, tuple)
            and len(row) == 4
            and np.array_equal(row[0], expected[0])
            and np.array_equal(row[1], expected[1])
            and row[0].dtype == row[1].dtype == np.int64
            and type(row[2]) is int
            and type(row[3]) is int
            and row[2:] == expected[2:]
        )

    @pytest.mark.parametrize(
        "shape", ["swept", "memo", "mixed", "duplicates", "empty"]
    )
    def test_sequence_protocol(self, engines, shape):
        store, ids, quantizer = engines
        engine = BoundsEngine(store, quantizer, cache_enabled=shape == "memo")
        request = {
            "swept": ids,
            "memo": ids,
            "mixed": ["base"] + ids[:5] + ["target"],
            "duplicates": [ids[0], ids[3], ids[0]],
            "empty": [],
        }[shape]
        if shape == "memo":
            engine.bounds_all_bins_batch(request)
        result = engine.bounds_all_bins_batch(request)
        expected = self._expected(store, quantizer, request)
        assert isinstance(result, BoundsMatrix)
        assert len(result) == len(expected)
        assert bool(result) == bool(expected)
        assert all(self._same(r, e) for r, e in zip(result, expected))
        assert all(self._same(result[i], expected[i]) for i in range(len(expected)))
        assert all(
            self._same(result[-i], expected[-i]) for i in range(1, len(expected) + 1)
        )
        for cut in (slice(1, 4), slice(None, None, 2), slice(-2, None)):
            assert isinstance(result[cut], list)
            assert len(result[cut]) == len(expected[cut])
            assert all(self._same(r, e) for r, e in zip(result[cut], expected[cut]))
        with pytest.raises(IndexError):
            result[len(expected)]
        with pytest.raises(IndexError):
            result[-len(expected) - 1]
        assert [image_id for image_id, _ in zip(request, result)] == list(request)
        # The columns are the same numbers, aligned with the request.
        assert result.lo.shape == result.hi.shape == (
            len(expected), quantizer.bin_count,
        )
        for index, row in enumerate(expected):
            assert np.array_equal(result.lo[index], row[0])
            assert np.array_equal(result.hi[index], row[1])
            assert (int(result.heights[index]), int(result.widths[index])) == row[2:]

    @pytest.mark.parametrize("cache_enabled", [False, True])
    def test_rows_and_columns_are_read_only(self, engines, cache_enabled):
        store, ids, quantizer = engines
        engine = BoundsEngine(store, quantizer, cache_enabled=cache_enabled)
        for _ in range(2):
            result = engine.bounds_all_bins_batch(ids)
            views = [result[0][0], result[0][1], next(iter(result))[0], result[1:2][0][1]]
            views += [result.lo, result.hi, result.heights, result.widths]
            for view in views:
                with pytest.raises(ValueError):
                    view[0] = 99

    def test_fractions_are_one_division_over_the_matrix(self, engines):
        store, ids, quantizer = engines
        engine = BoundsEngine(store, quantizer)
        scalar = BoundsEngine(store, quantizer)
        fractions = engine.fraction_bounds_all_bins_batch(ids)
        assert isinstance(fractions, list) and len(fractions) == len(ids)
        for image_id, (lower, upper) in zip(ids, fractions):
            for bin_index in range(quantizer.bin_count):
                cell = scalar.bounds(image_id, bin_index)
                assert lower[bin_index] == cell.fraction_lo
                assert upper[bin_index] == cell.fraction_hi
        assert engine.fraction_bounds_all_bins_batch([]) == []


def _subset_store():
    """Bases, chained edits, edited Merge targets, a Merge cycle, a base
    cycle and a chain too deep for ``max_depth=8``, over 8 bins."""
    quantizer = UniformQuantizer(2, "rgb")
    rng = np.random.default_rng(48)
    store = _DictStore()
    _add_binary(store, rng, "bin", 8, 9, quantizer)
    _add_binary(store, rng, "tgt", 4, 5, quantizer)
    records = store.records
    records["plain"] = EditSequence("bin", (Define.of(0, 0, 4, 5), Combine.box()))
    records["chained"] = EditSequence(
        "plain", (Define.of(1, 1, 3, 4), Modify(RED, BLUE))
    )
    records["onto-edited"] = EditSequence(
        "bin", (Define.of(0, 0, 3, 3), Merge("chained", 1, 2))
    )
    records["onto-base"] = EditSequence(
        "chained", (Define.of(0, 0, 4, 4), Merge("tgt", 2, 1), Combine.box())
    )
    for name, other in (("cycle-a", "cycle-b"), ("cycle-b", "cycle-a")):
        records[name] = EditSequence("bin", (Define.of(0, 0, 4, 4), Merge(other, 0, 0)))
    records["above-cycle"] = EditSequence("cycle-a", (Combine.box(),))
    records["loop-a"] = EditSequence("loop-b", (Combine.box(),))
    records["loop-b"] = EditSequence("loop-a", (Combine.box(),))
    previous = "bin"
    for level in range(9):
        records[f"deep{level}"] = EditSequence(previous, (Define.of(0, 0, 2, 2),))
        previous = f"deep{level}"
    records["onto-deep"] = EditSequence(
        "bin", (Define.of(0, 0, 4, 4), Merge("deep6", 0, 0))
    )
    records["empty-merge"] = EditSequence(
        "bin", (Define.of(20, 20, 25, 25), Merge(None))
    )
    ids = [
        "plain", "chained", "onto-edited", "onto-base", "cycle-a",
        "above-cycle", "loop-a", "deep5", "deep6", "deep8", "onto-deep",
        "empty-merge",
    ]
    return store, quantizer, ids


class TestSmallSweepsAreTheFullOne:
    """A sweep sized to its few rows is the same sweep as the whole
    table's, and the scalar walk, for every 1-, 2- and 3-id request."""

    @staticmethod
    def _answers(outcome, ids):
        answers = {}
        for position, image_id in enumerate(ids):
            failure = outcome.failures.get(image_id)
            if failure is not None:
                answers[image_id] = (type(failure), str(failure))
            else:
                lo, hi, height, width = outcome.view(position)
                answers[image_id] = (lo.tobytes(), hi.tobytes(), height, width)
        return answers

    def test_every_small_subset(self):
        store, quantizer, ids = _subset_store()
        scalar = BoundsEngine(store, quantizer)
        expected = {}
        for image_id in ids:
            error = _scalar_error(scalar, image_id)
            if error is not None:
                expected[image_id] = (type(error), str(error))
                continue
            cells = [scalar.bounds(image_id, b) for b in range(quantizer.bin_count)]
            expected[image_id] = (
                np.array([c.lo for c in cells], dtype=np.int64).tobytes(),
                np.array([c.hi for c in cells], dtype=np.int64).tobytes(),
                cells[0].height,
                cells[0].width,
            )
        assert sum(isinstance(e[0], type) for e in expected.values()) >= 6
        manager = BoundsEngine(store, quantizer).optable_manager
        full = self._answers(manager.compute(ids), ids)
        assert full == expected
        for size in (1, 2, 3):
            for subset in itertools.combinations(ids, size):
                outcome = manager.compute(subset)
                assert len(outcome.lo) < manager.table.row_count
                assert self._answers(outcome, subset) == {
                    image_id: full[image_id] for image_id in subset
                }, subset
                engine = BoundsEngine(store, quantizer)
                failing = (i for i in subset if isinstance(expected[i][0], type))
                first = next(failing, None)
                if first is None:
                    swept = engine.bounds_all_bins_batch(list(subset))
                    for image_id, row in zip(subset, swept):
                        assert (row[0].tobytes(), row[1].tobytes(), *row[2:]) == (
                            expected[image_id]
                        )
                else:
                    with pytest.raises(ReproError) as raised:
                        engine.bounds_all_bins_batch(list(subset))
                    assert (type(raised.value), str(raised.value)) == expected[first]

    def test_a_one_row_sweep_allocates_one_row(self, rng, monkeypatch):
        database = _database(rng, bounds_cache=False)
        for index in range(40):
            database.insert_edited(
                EditSequence("b1", (Define.of(0, 0, 3, 3), Combine.box())), f"x{index}"
            )
        engine = database.engine
        engine.bounds_all_bins_batch(list(database.catalog.edited_ids()))
        table = engine.optable_manager.table
        assert table.row_count > 40
        sizes = []
        real = optable.BatchRuleState.zeros.__func__

        def zeros(cls, rows, bins):
            sizes.append(rows)
            return real(cls, rows, bins)

        monkeypatch.setattr(optable.BatchRuleState, "zeros", classmethod(zeros))
        outcome = engine.optable_manager.compute(["x7"])
        assert sizes == [1]
        assert outcome.lo.shape == (1, database.quantizer.bin_count)
        _assert_matches_scalar(outcome.view(0), _scalar_engine(engine), "x7")
