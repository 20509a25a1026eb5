"""Unit and property tests for the edit-sequence optimizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classify import sequence_is_bound_widening
from repro.editing.executor import EditExecutor
from repro.editing.operations import Combine, Define, Merge, Modify, Mutate
from repro.editing.optimizer import (
    optimize_database,
    optimize_operations,
    optimize_sequence,
)
from repro.editing.random_edits import random_sequence
from repro.editing.sequence import EditSequence
from repro.images.geometry import AffineMatrix, Rect
from repro.images.raster import Image


class TestRewrites:
    def test_consecutive_defines_collapse(self):
        ops = (
            Define(Rect(0, 0, 2, 2)),
            Define(Rect(1, 1, 3, 3)),
            Define(Rect(2, 2, 4, 4)),
            Combine.box(),
        )
        optimized = optimize_operations(ops)
        assert optimized == (Define(Rect(2, 2, 4, 4)), Combine.box())

    def test_trailing_define_removed(self):
        ops = (Combine.box(), Define(Rect(0, 0, 2, 2)))
        assert optimize_operations(ops) == (Combine.box(),)

    def test_trailing_define_chain_removed(self):
        ops = (Define(Rect(0, 0, 2, 2)), Define(Rect(1, 1, 3, 3)))
        assert optimize_operations(ops) == ()

    def test_identity_modify_removed(self):
        ops = (Modify((5, 5, 5), (5, 5, 5)), Combine.box())
        assert optimize_operations(ops) == (Combine.box(),)

    def test_identity_mutate_removed(self):
        ops = (Mutate(AffineMatrix.identity()), Combine.box())
        assert optimize_operations(ops) == (Combine.box(),)

    def test_translation_zero_is_identity(self):
        ops = (Mutate.translation(0, 0), Combine.box())
        assert optimize_operations(ops) == (Combine.box(),)

    def test_meaningful_operations_kept(self):
        ops = (
            Define(Rect(0, 0, 2, 2)),
            Combine.box(),
            Modify((0, 0, 0), (1, 1, 1)),
            Mutate.translation(1, 0),
            Merge(None),
        )
        assert optimize_operations(ops) == ops

    def test_runs_to_fixed_point(self):
        # Removing the identity Modify exposes a Define-Define pair, and
        # collapsing that exposes a trailing Define: needs three passes.
        ops = (
            Define(Rect(0, 0, 2, 2)),
            Modify((5, 5, 5), (5, 5, 5)),
            Define(Rect(1, 1, 3, 3)),
        )
        assert optimize_operations(ops) == ()

    def test_merge_never_removed(self):
        ops = (Define(Rect(0, 0, 2, 2)), Merge("target", 0, 0))
        assert optimize_operations(ops) == ops


class TestSemanticPreservation:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_optimized_sequence_instantiates_identically(self, seed):
        rng = np.random.default_rng(seed)
        base = Image(rng.integers(0, 5, size=(10, 12, 3)).astype(np.uint8) * 50)
        target = Image.filled(6, 8, (9, 9, 9))
        sequence = random_sequence(
            rng, "b", base.height, base.width,
            list(base.distinct_colors())[:4],
            merge_targets={"t": (6, 8)},
        )
        # Inject optimizable noise at a random position.
        noise = (
            Modify((7, 7, 7), (7, 7, 7)),
            Mutate(AffineMatrix.identity()),
        )
        position = int(rng.integers(len(sequence) + 1))
        padded_ops = (
            sequence.operations[:position] + noise + sequence.operations[position:]
        )
        padded = EditSequence("b", padded_ops)

        optimized, report = optimize_sequence(padded)
        assert report.ops_removed >= 2
        assert report.bytes_saved > 0

        executor = EditExecutor(resolve=lambda _t: target)
        assert executor.instantiate(base, padded) == executor.instantiate(
            base, optimized
        )

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_classification_preserved(self, seed):
        rng = np.random.default_rng(seed)
        sequence = random_sequence(
            rng, "b", 10, 12, [(0, 0, 0)], merge_targets={"t": (6, 8)}
        )
        optimized, _ = optimize_sequence(sequence)
        # Non-widening operations are never removed, so the BWM
        # classification is always preserved exactly.
        assert sequence_is_bound_widening(sequence) == sequence_is_bound_widening(
            optimized
        )


class TestDatabaseOptimization:
    def test_optimize_database_preserves_results(self, small_database, rng):
        from repro.editing.operations import Modify as ModifyOp
        from repro.workloads.queries import make_query_workload

        # Pad one stored sequence with no-ops, through the public API.
        edited_id = next(iter(small_database.catalog.edited_ids()))
        sequence = small_database.catalog.sequence_of(edited_id)
        padded = sequence.extended(ModifyOp((3, 3, 3), (3, 3, 3)))
        small_database.delete_edited(edited_id)
        small_database.insert_edited(padded, image_id=edited_id)

        queries = make_query_workload(small_database, rng, 8)
        before = [small_database.range_query(q).matches for q in queries]

        report = optimize_database(small_database)
        assert report.ops_removed >= 1
        assert report.bytes_saved >= 1

        after = [small_database.range_query(q).matches for q in queries]
        assert before == after
        # Ids preserved.
        assert edited_id in set(small_database.catalog.edited_ids())

    def test_optimize_database_idempotent(self, small_database):
        optimize_database(small_database)
        second = optimize_database(small_database)
        assert second.ops_removed == 0

    def test_optimize_database_refiles_dependents(self):
        """A rewritten sequence that other edits build on: its dependents
        leave and come back with it, in an order every insert accepts."""
        from repro.db.database import MultimediaDatabase

        database = MultimediaDatabase()
        base = database.insert_image(Image.filled(6, 6, (10, 20, 30)))
        noop = Modify((3, 3, 3), (3, 3, 3))
        padded = database.insert_edited(EditSequence(base, (noop,)), image_id="x")
        child = database.insert_edited(EditSequence(padded), image_id="y")
        merger = database.insert_edited(
            EditSequence(base, (Merge(child, 0, 0),)), image_id="z"
        )
        before = [database.instantiate(each) for each in (padded, child, merger)]

        report = optimize_database(database)

        assert report.ops_removed == 1
        assert len(database.catalog.sequence_of(padded)) == 0
        assert list(database.catalog.edited_ids()) == [padded, child, merger]
        assert [
            database.instantiate(each) for each in (padded, child, merger)
        ] == before
        assert database.verify_integrity() == []
