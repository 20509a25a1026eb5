"""Unit and property tests for bound-widening classification.

The load-bearing property (§4): for every operation the classifier calls
bound-widening, applying its rule to any consistent state must produce a
percentage interval containing the original one.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.color.quantization import UniformQuantizer
from repro.core.classify import (
    first_non_widening,
    is_bound_widening,
    sequence_is_bound_widening,
)
from repro.core.rules import RuleContext, RuleState, apply_rule
from repro.editing.operations import Combine, Define, Merge, Modify, Mutate
from repro.editing.random_edits import random_operation
from repro.editing.sequence import EditSequence
from repro.images.geometry import AffineMatrix, Rect
from tests.core.rule_properties import RULE_CASES, widening_violations

Q2 = UniformQuantizer(2, "rgb")


class TestStaticClassification:
    def test_define_combine_modify_always_widening(self):
        assert is_bound_widening(Define(Rect(0, 0, 5, 5)))
        assert is_bound_widening(Combine.box())
        assert is_bound_widening(Modify((0, 0, 0), (255, 255, 255)))

    def test_rigid_mutates_widening(self):
        assert is_bound_widening(Mutate.translation(3, -1))
        assert is_bound_widening(Mutate.rotation_90(1, 2, 2))

    def test_integer_scale_widening(self):
        assert is_bound_widening(Mutate.scale(2))
        assert is_bound_widening(Mutate.scale(1))

    def test_general_affine_not_widening(self):
        assert not is_bound_widening(Mutate.scale(1.5))
        assert not is_bound_widening(Mutate(AffineMatrix(1.3, 0.4, 0, 0, 1.0, 0)))

    def test_merge_null_widening(self):
        assert is_bound_widening(Merge(None))

    def test_merge_target_not_widening(self):
        assert not is_bound_widening(Merge("other", 1, 1))


class TestSequenceClassification:
    def test_all_widening_sequence(self):
        seq = EditSequence(
            "b", (Define(Rect(0, 0, 2, 2)), Combine.box(), Merge(None))
        )
        assert sequence_is_bound_widening(seq)
        assert first_non_widening(seq) == -1

    def test_one_bad_operation_flips(self):
        seq = EditSequence(
            "b", (Define(Rect(0, 0, 2, 2)), Merge("t", 0, 0), Combine.box())
        )
        assert not sequence_is_bound_widening(seq)
        assert first_non_widening(seq) == 1

    def test_empty_sequence_is_widening(self):
        assert sequence_is_bound_widening(EditSequence("b"))

    def test_empty_sequence_has_no_non_widening_index(self):
        assert first_non_widening(EditSequence("b")) == -1

    def test_first_op_non_widening(self):
        seq = EditSequence("b", (Merge("t", 0, 0), Define(Rect(0, 0, 2, 2))))
        assert first_non_widening(seq) == 0
        assert not sequence_is_bound_widening(seq)

    def test_last_op_non_widening(self):
        seq = EditSequence(
            "b", (Define(Rect(0, 0, 2, 2)), Combine.box(), Mutate.scale(0.5))
        )
        assert first_non_widening(seq) == 2

    def test_first_non_widening_reports_earliest(self):
        seq = EditSequence(
            "b", (Define(Rect(0, 0, 2, 2)), Merge("t", 0, 0), Mutate.scale(1.5))
        )
        assert first_non_widening(seq) == 1


class TestIdentityEdgeCases:
    """Identity-shaped Modify/Mutate stay in the widening class."""

    def test_identity_color_map_widening(self):
        assert is_bound_widening(Modify((17, 34, 51), (17, 34, 51)))

    def test_modify_within_one_bin_widening(self):
        # Old and new colors land in the same histogram bin.
        assert Q2.bin_of((10, 10, 10)) == Q2.bin_of((40, 30, 20))
        assert is_bound_widening(Modify((10, 10, 10), (40, 30, 20)))

    def test_identity_matrix_widening(self):
        assert is_bound_widening(Mutate(AffineMatrix.identity()))

    def test_unit_translation_widening(self):
        assert is_bound_widening(Mutate.translation(0, 0))

    def test_near_identity_affine_not_widening(self):
        # Off by a hair from the identity: no rigid-body/integer-scale
        # branch applies, so the classifier must refuse the claim.
        assert not is_bound_widening(
            Mutate(AffineMatrix(1.0 + 1e-3, 0.0, 0.0, 0.0, 1.0, 0.0))
        )


class TestProverParity:
    """The runtime classifier agrees with §4's claim for every rule case,
    and every claim it makes holds on the state corpus."""

    def test_classifier_verdicts_match_prover(self):
        for case in RULE_CASES:
            expected = all(is_bound_widening(op) for op in case.operations)
            assert case.expect_widening == expected, case.name

    def test_sequence_classifier_agrees_with_verified_cases(self):
        for case in RULE_CASES:
            seq = EditSequence("b", tuple(case.operations))
            assert sequence_is_bound_widening(seq) == case.expect_widening, case.name

    def test_every_widening_claim_is_machine_verified(self):
        # RS001 on every rule case and the seeded random operations:
        # exact integer comparison, no float tolerance.
        assert widening_violations() == []


def random_consistent_state(rng) -> RuleState:
    height = int(rng.integers(2, 12))
    width = int(rng.integers(2, 12))
    total = height * width
    lo = int(rng.integers(0, total + 1))
    hi = int(rng.integers(lo, total + 1))
    x1 = int(rng.integers(0, height))
    y1 = int(rng.integers(0, width))
    x2 = int(rng.integers(x1, height + 1))
    y2 = int(rng.integers(y1, width + 1))
    return RuleState(lo=lo, hi=hi, height=height, width=width, dr=Rect(x1, y1, x2, y2))


class TestWideningProperty:
    """Invariant 4: classified-widening rules truly widen percentages."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_widening_ops_widen_percentage_interval(self, seed):
        rng = np.random.default_rng(seed)
        state = random_consistent_state(rng)
        op = random_operation(
            rng,
            state.height,
            state.width,
            [(0, 0, 0), (255, 255, 255), (10, 200, 30)],
            allow_crop=not state.dr.is_empty,
        )
        if not is_bound_widening(op):
            return
        if isinstance(op, Merge) and state.dr.is_empty:
            return
        context = RuleContext(quantizer=Q2, bin_index=int(rng.integers(8)))
        out = apply_rule(state, op, context)
        # Cross-multiplied, so the comparison is exact.
        assert out.lo * state.total <= state.lo * out.total, (op, state, out)
        assert out.hi * state.total >= state.hi * out.total, (op, state, out)
