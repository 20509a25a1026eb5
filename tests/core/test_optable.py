"""The columnar op-table kernel: parity, maintenance, cache layering.

The load-bearing claim of :mod:`repro.core.optable` is byte-identity:
one structure-of-arrays sweep over the whole catalog must return, for
every image and every bin, exactly what the paper's scalar walk
(``BoundsEngine.bounds(id, bin)``) returns — same counts, same
dimensions, and the same error (type AND message) for every failing
image.  The scalar walk is the only reference used here: the one-id
``bounds_all_bins`` is itself the sweep, so comparing against it would
prove nothing.  The suite checks parity on random corpora with chained
bases and Merge targets, on a hand-built matrix of structural error
cases, and across insert/delete/resave churn where the table is
maintained incrementally off the invalidation feed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.color.histogram import ColorHistogram
from repro.color.names import FLAG_PALETTE
from repro.color.quantization import UniformQuantizer
from repro.core.bounds import BoundsEngine
from repro.core.optable import BatchRuleState, _validate_rows
from repro.core.rules import RuleState
from repro.db.database import MultimediaDatabase
from repro.editing.operations import Combine, Define, Merge, Modify, Mutate
from repro.editing.random_edits import random_sequence
from repro.editing.sequence import EditSequence
from repro.errors import ReproError, RuleError, UnknownObjectError
from repro.images.generators import random_palette_image
from repro.images.geometry import Rect
from tests.core.rule_properties import parity_divergences


class _DictStore:
    """The minimal ``lookup_for_bounds`` store (no insert validation)."""

    def __init__(self):
        self.records = {}

    def lookup_for_bounds(self, image_id):
        if image_id not in self.records:
            raise UnknownObjectError(f"image {image_id!r} not in catalog")
        return self.records[image_id]


def _add_binary(store, rng, image_id, height, width, quantizer):
    image = random_palette_image(rng, height, width, FLAG_PALETTE)
    store.records[image_id] = (
        ColorHistogram.of_image(image, quantizer),
        image.height,
        image.width,
    )


def _random_corpus(rng, quantizer, count, length=5):
    """Valid random sequences over chained bases and a binary Merge target."""
    store = _DictStore()
    colors = [tuple(int(v) for v in c) for c in FLAG_PALETTE]
    _add_binary(store, rng, "base", 12, 14, quantizer)
    _add_binary(store, rng, "target", 6, 7, quantizer)
    probe = BoundsEngine(store, quantizer)
    ids = []
    for index in range(count):
        base_id = ids[-1] if ids and index % 4 == 0 else "base"
        image_id = f"e{index}"
        while True:
            store.records[image_id] = random_sequence(
                rng, base_id, 12, 14, colors,
                length=length, merge_targets={"target": (6, 7)},
            )
            try:
                probe.bounds(image_id, 0)
                break
            except ReproError:
                continue
        ids.append(image_id)
    return store, ids


def _scalar_engine(engine):
    """A fresh uncached engine over ``engine``'s store: its ``bounds``
    is the oracle."""
    return BoundsEngine(engine._store, engine.quantizer)


def _assert_matches_scalar(swept, scalar_engine, image_id):
    """Every bin of a swept matrix equals the scalar walk for that bin."""
    lo, hi, height, width = swept
    assert lo.dtype == np.int64 and hi.dtype == np.int64
    assert lo.shape == hi.shape == (scalar_engine.quantizer.bin_count,)
    for bin_index in range(scalar_engine.quantizer.bin_count):
        scalar = scalar_engine.bounds(image_id, bin_index)
        assert (scalar.lo, scalar.hi, scalar.height, scalar.width) == (
            int(lo[bin_index]), int(hi[bin_index]), height, width
        ), f"{image_id} bin {bin_index}"


def _scalar_error(scalar_engine, image_id):
    """The error the scalar walk raises for ``image_id``, or None."""
    try:
        scalar_engine.bounds(image_id, 0)
    except ReproError as exc:
        return exc
    return None


class TestSweepParity:
    """Batched sweep == scalar walk, bin by bin, byte for byte."""

    def test_random_corpus_identical(self, quantizer):
        rng = np.random.default_rng(42)
        store, ids = _random_corpus(rng, quantizer, 120)
        scalar_engine = BoundsEngine(store, quantizer)
        batch_engine = BoundsEngine(store, quantizer)
        batched = batch_engine.bounds_all_bins_batch(ids)
        for image_id, result in zip(ids, batched):
            _assert_matches_scalar(result, scalar_engine, image_id)

    def test_edited_merge_targets_identical(self, quantizer):
        """Sequences merging onto *edited* targets go down the slow
        resolver path and must still match exactly."""
        rng = np.random.default_rng(7)
        store, ids = _random_corpus(rng, quantizer, 30)
        scalar_engine = BoundsEngine(store, quantizer)
        extra = []
        for index in range(10):
            target_id = ids[int(rng.integers(len(ids)))]
            image_id = f"m{index}"
            store.records[image_id] = EditSequence(
                "base",
                (
                    Define.of(0, 0, 5, 5),
                    Merge(target_id, int(rng.integers(0, 3)), int(rng.integers(0, 3))),
                ),
            )
            extra.append(image_id)
        batch_engine = BoundsEngine(store, quantizer)
        batched = batch_engine.bounds_all_bins_batch(ids + extra)
        for image_id, result in zip(ids + extra, batched):
            _assert_matches_scalar(result, scalar_engine, image_id)

    def test_one_id_form_is_the_batch_of_one(self, quantizer):
        """``bounds_all_bins(id)`` == ``bounds_all_bins_batch([id])[0]``
        byte for byte, with the memo cache off and on."""
        rng = np.random.default_rng(19)
        store, ids = _random_corpus(rng, quantizer, 24)
        ids = ids + ["base"]
        for cache_enabled in (False, True):
            single = BoundsEngine(store, quantizer, cache_enabled=cache_enabled)
            batch = BoundsEngine(store, quantizer, cache_enabled=cache_enabled)
            for image_id in ids:
                one = single.bounds_all_bins(image_id)
                of_one = batch.bounds_all_bins_batch([image_id])[0]
                assert one[0].tobytes() == of_one[0].tobytes()
                assert one[1].tobytes() == of_one[1].tobytes()
                assert one[2:] == of_one[2:]
            assert single.rules_applied == batch.rules_applied
            assert single.cache_stats() == batch.cache_stats()
            assert single.dependency_edges() == batch.dependency_edges()

    def test_batched_never_applies_more_rules(self, quantizer):
        """Shared references are computed once per sweep, so the batched
        work metric is bounded by the sum of per-image scalar walks (of
        one bin each)."""
        rng = np.random.default_rng(3)
        store, ids = _random_corpus(rng, quantizer, 60)
        scalar_engine = BoundsEngine(store, quantizer)
        for image_id in ids:
            scalar_engine.bounds(image_id, 0)
        batch_engine = BoundsEngine(store, quantizer)
        batch_engine.bounds_all_bins_batch(ids)
        assert 0 < batch_engine.rules_applied <= scalar_engine.rules_applied

    def test_results_are_read_only(self, quantizer):
        rng = np.random.default_rng(11)
        store, ids = _random_corpus(rng, quantizer, 4)
        engine = BoundsEngine(store, quantizer)
        lo, hi, _, _ = engine.bounds_all_bins_batch(ids)[0]
        with pytest.raises(ValueError):
            lo[0] = 99
        with pytest.raises(ValueError):
            hi[0] = 99


def _error_stores(quantizer):
    """(name, store, query ids): every structural/rule failure mode."""
    rng = np.random.default_rng(2006)
    cases = []

    def fresh():
        store = _DictStore()
        _add_binary(store, rng, "bin", 8, 9, quantizer)
        _add_binary(store, rng, "tgt", 4, 5, quantizer)
        return store

    store = fresh()
    store.records["a"] = EditSequence("nope", (Define.of(0, 0, 2, 2),))
    cases.append(("unknown-base", store, ["a"]))

    store = fresh()
    store.records["a"] = EditSequence(
        "bin", (Define.of(20, 20, 25, 25), Merge(None))
    )
    cases.append(("empty-dr-merge", store, ["a"]))

    store = fresh()
    store.records["a"] = EditSequence(
        "bin", (Define.of(0, 0, 4, 4), Merge("ghost", 0, 0))
    )
    cases.append(("unknown-target", store, ["a"]))

    store = fresh()
    store.records["a"] = EditSequence(
        "bin", (Define.of(0, 0, 4, 4), Merge("a", 0, 0))
    )
    cases.append(("self-target", store, ["a"]))

    store = fresh()
    store.records["a"] = EditSequence("b", (Define.of(0, 0, 2, 2),))
    store.records["b"] = EditSequence("a", (Define.of(0, 0, 2, 2),))
    cases.append(("base-cycle", store, ["a", "b"]))

    store = fresh()
    store.records["a"] = EditSequence(
        "bin", (Define.of(0, 0, 4, 4), Merge("b", 0, 0))
    )
    store.records["b"] = EditSequence(
        "bin", (Define.of(0, 0, 4, 4), Merge("a", 0, 0))
    )
    cases.append(("target-cycle", store, ["a", "b"]))

    # Depth: chains of base references against the default max_depth=8.
    for depth, name in ((6, "deep-ok"), (7, "deep-limit"), (9, "deep-over")):
        store = fresh()
        previous = "bin"
        for level in range(depth):
            image_id = f"d{level}"
            store.records[image_id] = EditSequence(
                previous, (Define.of(0, 0, 2, 2),)
            )
            previous = image_id
        cases.append((name, store, [previous]))

    # Depth through a Merge target (the per-row structural replay path).
    store = fresh()
    previous = "bin"
    for level in range(7):
        image_id = f"t{level}"
        store.records[image_id] = EditSequence(previous, (Define.of(0, 0, 2, 2),))
        previous = image_id
    store.records["top"] = EditSequence(
        "bin", (Define.of(0, 0, 4, 4), Merge(previous, 0, 0))
    )
    cases.append(("deep-target", store, ["top"]))

    # The empty-DR error fires before the target is even resolved, so it
    # must preempt the self-cycle error (scalar raise order).
    store = fresh()
    store.records["a"] = EditSequence(
        "bin", (Define.of(20, 20, 25, 25), Merge("a", 0, 0))
    )
    cases.append(("empty-dr-preempts-cycle", store, ["a"]))

    # A failing base poisons its dependents with the same error.
    store = fresh()
    store.records["a"] = EditSequence(
        "bin", (Define.of(20, 20, 25, 25), Merge(None))
    )
    store.records["b"] = EditSequence("a", (Combine.box(),))
    cases.append(("inherited-base-failure", store, ["a", "b"]))

    # A crop followed by a Merge onto a binary target (no failure).
    store = fresh()
    store.records["a"] = EditSequence(
        "bin",
        (
            Define.of(0, 0, 4, 4),
            Merge(None),
            Define.of(0, 0, 2, 2),
            Merge("tgt", 0, 0),
        ),
    )
    cases.append(("crop-then-target", store, ["a"]))

    return cases


class TestErrorParity:
    """Failing images raise the scalar walk's exact error, batched."""

    @pytest.mark.parametrize(
        "name,store,ids",
        _error_stores(UniformQuantizer(2, "rgb")),
        ids=lambda value: value if isinstance(value, str) else "",
    )
    def test_same_error_type_and_message(self, name, store, ids):
        quantizer = UniformQuantizer(2, "rgb")
        scalar_engine = BoundsEngine(store, quantizer)
        batch_engine = BoundsEngine(store, quantizer)
        # The batch and its one-id form must both behave like the scalar
        # walk, whatever an earlier id left in the op table.
        sweeps = (
            lambda image_id: batch_engine.bounds_all_bins_batch([image_id])[0],
            batch_engine.bounds_all_bins,
        )
        for image_id in ids:
            scalar_error = _scalar_error(scalar_engine, image_id)
            for sweep in sweeps:
                batched_error = None
                batched_result = None
                try:
                    batched_result = sweep(image_id)
                except ReproError as exc:
                    batched_error = exc
                if scalar_error is None:
                    assert batched_error is None, (name, image_id, batched_error)
                    _assert_matches_scalar(batched_result, scalar_engine, image_id)
                else:
                    assert batched_error is not None, (name, image_id)
                    assert type(batched_error) is type(scalar_error), (name, image_id)
                    assert str(batched_error) == str(scalar_error), (name, image_id)

    def test_failing_cases_are_still_failing(self):
        """Guard the matrix itself: the structural cases must raise (so
        the parity test above compares errors, not two successes)."""
        quantizer = UniformQuantizer(2, "rgb")
        expected_ok = {"deep-ok", "deep-limit", "crop-then-target"}
        for name, store, ids in _error_stores(quantizer):
            errors = [
                _scalar_error(BoundsEngine(store, quantizer), image_id)
                for image_id in ids
            ]
            if name in expected_ok:
                assert errors == [None] * len(ids), name
            else:
                assert all(error is not None for error in errors), name

    def test_first_error_in_input_order_wins(self, quantizer):
        store = _DictStore()
        rng = np.random.default_rng(5)
        _add_binary(store, rng, "bin", 8, 9, quantizer)
        store.records["bad1"] = EditSequence("ghost1", ())
        store.records["bad2"] = EditSequence("ghost2", ())
        engine = BoundsEngine(store, quantizer)
        scalar_error = _scalar_error(BoundsEngine(store, quantizer), "bad2")
        with pytest.raises(UnknownObjectError, match="ghost2") as raised:
            engine.bounds_all_bins_batch(["bad2", "bad1"])
        assert type(raised.value) is type(scalar_error)
        assert str(raised.value) == str(scalar_error)


class TestIncrementalMaintenance:
    """Churned tables answer exactly like the scalar walk on the live
    catalog (which knows nothing of rows, tombstones or compaction)."""

    def _assert_matches_fresh(self, database):
        edited_ids = list(database.catalog.edited_ids())
        if not edited_ids:
            return
        live = database.engine.bounds_all_bins_batch(edited_ids)
        scalar_engine = _scalar_engine(database.engine)
        for image_id, swept in zip(edited_ids, live):
            _assert_matches_scalar(swept, scalar_engine, image_id)

    def test_insert_delete_resave_churn(self, rng):
        """The flip-flop churn: random mutations interleaved with batch
        queries; the incrementally maintained table must stay equal to a
        fresh recompile at every step."""
        database = MultimediaDatabase()
        base_ids = [
            database.insert_image(random_palette_image(rng, 10, 12, FLAG_PALETTE))
            for _ in range(3)
        ]
        for base_id in base_ids:
            database.augment(
                base_id, rng, variants=4, palette=FLAG_PALETTE,
                merge_target_pool=base_ids,
            )
        self._assert_matches_fresh(database)
        for step in range(12):
            action = step % 3
            edited_ids = list(database.catalog.edited_ids())
            if action == 0 and edited_ids:
                database.delete_edited(
                    edited_ids[int(rng.integers(len(edited_ids)))]
                )
            elif action == 1:
                database.augment(
                    base_ids[int(rng.integers(len(base_ids)))],
                    rng, variants=1, palette=FLAG_PALETTE,
                    merge_target_pool=base_ids,
                )
            else:
                # Resave: replace an edited image's sequence in place.
                victim = edited_ids[int(rng.integers(len(edited_ids)))]
                sequence = database.catalog.sequence_of(victim)
                database.delete_edited(victim)
                database.insert_edited(
                    sequence.extended(Define.of(0, 0, 3, 3)), victim
                )
            self._assert_matches_fresh(database)

    def test_insert_costs_exactly_one_compile(self, rng):
        """Append-friendliness: a fresh insert recompiles one row, not
        the catalog."""
        database = MultimediaDatabase()
        base_id = database.insert_image(
            random_palette_image(rng, 10, 12, FLAG_PALETTE)
        )
        database.augment(base_id, rng, variants=6, palette=FLAG_PALETTE)
        edited_ids = list(database.catalog.edited_ids())
        database.engine.bounds_all_bins_batch(edited_ids)
        manager = database.engine.optable_manager
        before = manager.table.compiled_rows
        new_id = database.augment(
            base_id, rng, variants=1, palette=FLAG_PALETTE
        )[0]
        database.engine.bounds_all_bins_batch(edited_ids + [new_id])
        assert manager.table.compiled_rows == before + 1

    def test_resave_recompiles_only_the_dirty_row(self, rng):
        database = MultimediaDatabase()
        base_id = database.insert_image(
            random_palette_image(rng, 10, 12, FLAG_PALETTE)
        )
        database.augment(base_id, rng, variants=5, palette=FLAG_PALETTE)
        edited_ids = list(database.catalog.edited_ids())
        database.engine.bounds_all_bins_batch(edited_ids)
        manager = database.engine.optable_manager
        before = manager.table.compiled_rows
        victim = edited_ids[0]
        sequence = database.catalog.sequence_of(victim)
        database.delete_edited(victim)
        database.insert_edited(sequence.extended(Combine.box()), victim)
        result = database.engine.bounds_all_bins_batch(edited_ids)
        assert manager.table.compiled_rows == before + 1
        assert manager.recompiled >= 1
        scalar_engine = _scalar_engine(database.engine)
        _assert_matches_scalar(result[0], scalar_engine, victim)

    def test_tombstones_trigger_compaction(self, rng):
        database = MultimediaDatabase()
        base_id = database.insert_image(
            random_palette_image(rng, 10, 12, FLAG_PALETTE)
        )
        database.augment(base_id, rng, variants=40, palette=FLAG_PALETTE)
        edited_ids = list(database.catalog.edited_ids())
        database.engine.bounds_all_bins_batch(edited_ids)
        manager = database.engine.optable_manager
        for image_id in edited_ids[:36]:
            database.delete_edited(image_id)
        survivors = [i for i in edited_ids if i not in set(edited_ids[:36])]
        database.engine.bounds_all_bins_batch(survivors)
        assert manager.compactions >= 1
        assert manager.table.dead_count <= max(manager.table.live_count // 8, 32)
        self._assert_matches_fresh(database)


class TestCacheLayering:
    """The dependency-aware memo cache over the batched sweep."""

    def test_repeat_batches_hit_the_cache(self, rng):
        database = MultimediaDatabase(bounds_cache=True)
        base_id = database.insert_image(
            random_palette_image(rng, 10, 12, FLAG_PALETTE)
        )
        database.augment(base_id, rng, variants=5, palette=FLAG_PALETTE)
        edited_ids = list(database.catalog.edited_ids())
        engine = database.engine
        engine.bounds_all_bins_batch(edited_ids)
        rules_before = engine.rules_applied
        hits_before = engine.cache_hits
        again = engine.bounds_all_bins_batch(edited_ids)
        assert engine.rules_applied == rules_before
        assert engine.cache_hits == hits_before + len(edited_ids)
        scalar_engine = _scalar_engine(engine)
        for image_id, result in zip(edited_ids, again):
            _assert_matches_scalar(result, scalar_engine, image_id)

    def test_batch_seeds_the_per_image_cache(self, rng):
        database = MultimediaDatabase(bounds_cache=True)
        base_id = database.insert_image(
            random_palette_image(rng, 10, 12, FLAG_PALETTE)
        )
        database.augment(base_id, rng, variants=4, palette=FLAG_PALETTE)
        edited_ids = list(database.catalog.edited_ids())
        engine = database.engine
        engine.bounds_all_bins_batch(edited_ids)
        rules_before = engine.rules_applied
        for image_id in edited_ids:
            engine.bounds_all_bins(image_id)
        assert engine.rules_applied == rules_before

    def test_targeted_invalidation_recomputes_dependents(self, rng):
        database = MultimediaDatabase(bounds_cache=True)
        base_id = database.insert_image(
            random_palette_image(rng, 10, 12, FLAG_PALETTE)
        )
        database.augment(base_id, rng, variants=4, palette=FLAG_PALETTE)
        edited_ids = list(database.catalog.edited_ids())
        engine = database.engine
        engine.bounds_all_bins_batch(edited_ids)
        engine.invalidate(edited_ids[0])
        rules_before = engine.rules_applied
        results = engine.bounds_all_bins_batch(edited_ids)
        assert engine.rules_applied > rules_before
        scalar_engine = _scalar_engine(engine)
        for image_id, result in zip(edited_ids, results):
            _assert_matches_scalar(result, scalar_engine, image_id)


class TestBatchRuleState:
    """The single-op columnar entry point (``apply_rule_batched``) against
    the scalar rules: the RS003 kernel-parity property."""

    def test_stack_and_row_state_roundtrip(self):
        lo = np.array([0, 1, 2], dtype=np.int64)
        hi = np.array([3, 4, 6], dtype=np.int64)
        state = BatchRuleState.stack(
            [(lo, hi, 2, 3, Rect(0, 1, 2, 3)), (hi, hi, 3, 2, Rect(0, 0, 0, 0))]
        )
        out_lo, out_hi, height, width, dr = state.row_state(0)
        assert np.array_equal(out_lo, lo) and np.array_equal(out_hi, hi)
        assert (height, width) == (2, 3)
        assert dr == Rect(0, 1, 2, 3)
        assert state.row_state(1)[4].is_empty

    @pytest.mark.parametrize(
        "op",
        [
            Define.of(0, 0, 2, 2),
            Combine.box(),
            Modify((0, 0, 0), (255, 255, 255)),
            Mutate.scale(2),
            Mutate.translation(1, 1),
            Merge(None),
        ],
        ids=lambda op: type(op).__name__,
    )
    def test_apply_rule_batched_matches_vec(self, op, quantizer):
        """One heterogeneous batch — partial, one-axis and empty DRs
        included — vs the scalar rule applied to every bin of every row
        (the test id predates the removal of the per-image vector kernel
        it used to compare against)."""
        assert parity_divergences([op], quantizer=quantizer) == []

    @pytest.mark.parametrize(
        "lo, hi",
        [
            ([0, 3, 5, 1], [2, 2, 4, 1]),  # lo > hi at bins 1 and 2
            ([0, -1, 0, 0], [1, 1, 1, 1]),  # negative lo
            ([0, 0, 0, 0], [1, 1, 1, 7]),  # hi past the total
        ],
    )
    def test_inconsistent_row_reports_the_scalar_message(self, lo, hi):
        """The columnar validate names the first offending bin exactly as
        the scalar walk, which raises bin by bin, does."""
        dr = Rect(0, 0, 2, 3)
        lo_row = np.array(lo, dtype=np.int64)
        hi_row = np.array(hi, dtype=np.int64)
        good = np.zeros(4, dtype=np.int64)
        state = BatchRuleState.stack(
            [(good, good, 2, 3, dr), (lo_row, hi_row, 2, 3, dr)]
        )
        failures = []
        survivors = _validate_rows(
            state, np.arange(2), lambda row, error: failures.append((row, error))
        )
        assert survivors.tolist() == [0]
        scalar = []
        for bin_lo, bin_hi in zip(lo, hi):
            try:
                RuleState(bin_lo, bin_hi, 2, 3, dr).validate()
            except RuleError as error:
                scalar.append(str(error))
        assert [(row, str(error)) for row, error in failures] == [(1, scalar[0])]

    def test_every_rule_case_matches_scalar(self):
        # Every case of every classifier branch, general affine and Merge
        # with a target included, plus seeded random operations.
        assert parity_divergences() == []
