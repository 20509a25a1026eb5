"""The rule-soundness properties: clean on the shipped rules, and failing
on deliberately broken ones, so the detector itself stays tested."""

from __future__ import annotations

import numpy as np

from repro.core.classify import is_bound_widening
from repro.core.optable import OP_CODE_NAMES, _lower, apply_rule_batched
from repro.core.rules import RuleState, apply_rule
from repro.editing.operations import Combine, Define, Merge, Mutate
from repro.images.geometry import Rect
from tests.core.rule_properties import (
    Q2,
    RULE_CASES,
    corpus,
    grid_states,
    parity_divergences,
    random_states,
    rule_operations,
    widening_violations,
)


def _case(name):
    return next(case for case in RULE_CASES if case.name == name)


class TestShippedRules:
    def test_every_case_verified(self):
        assert widening_violations() == []
        assert parity_divergences() == []

    def test_covers_every_default_case(self):
        # The operations reach every kernel the columnar sweep dispatches.
        codes = {_lower(op, Q2)[0] for op in rule_operations()}
        assert codes == set(OP_CODE_NAMES)

    def test_widening_rows_proved_monotone(self):
        for case in RULE_CASES:
            if case.expect_widening:
                assert all(is_bound_widening(op) for op in case.operations)
                assert widening_violations(case.operations) == [], case.name

    def test_non_widening_rows_not_claimed(self):
        for name in ("mutate-general-affine", "merge-target"):
            case = _case(name)
            assert not any(is_bound_widening(op) for op in case.operations)
            # Parity is still enforced even without a widening claim.
            assert parity_divergences(case.operations) == [], name


class TestCorpus:
    def test_grid_contains_empty_and_full_dr(self):
        states = grid_states()
        assert any(s.dr.is_empty for s in states)
        assert any(s.dr == Rect(0, 0, s.height, s.width) for s in states)
        # The DRs that cover one axis but not the other.
        assert any(s.dr == Rect(0, 0, s.height - 1, s.width) for s in states
                   if s.height > 1)
        assert any(s.dr == Rect(0, 0, s.height, s.width - 1) for s in states
                   if s.width > 1)

    def test_grid_states_are_valid(self):
        for state in grid_states():
            state.validate()

    def test_random_states_deterministic(self):
        a = random_states(np.random.default_rng(5), 20)
        b = random_states(np.random.default_rng(5), 20)
        assert a == b
        assert corpus() == corpus()


class TestBrokenRuleDetection:
    """A deliberately broken rule or kernel must make a property fail."""

    @staticmethod
    def _broken_scalar(state, op, ctx):
        post = apply_rule(state, op, ctx)
        if isinstance(op, Combine) and post.hi > post.lo:
            # Unsoundly tighten the upper bound: drops pixels the true
            # interval must keep, i.e. the rule no longer widens.
            return RuleState(post.lo, post.lo, post.height, post.width, post.dr)
        return post

    def test_refuted(self):
        assert widening_violations(apply_scalar=self._broken_scalar)

    def test_rs001_finding_with_counterexample(self):
        op, bin_index, pre, post = widening_violations(
            [Combine.box()], apply_scalar=self._broken_scalar
        )[0]
        assert isinstance(op, Combine) and 0 <= bin_index < Q2.bin_count
        assert post.hi * pre.total < pre.hi * post.total

    def test_divergent_columnar_kernel_reported_as_rs003(self):
        def broken_batched(state, rows, op, ctx):
            errors = apply_rule_batched(state, rows, op, ctx)
            if isinstance(op, Define):
                state.hi[rows] += 1  # off-by-one vs the scalar kernel
            return errors

        ops = [Define.of(0, 0, 2, 2)]
        # The scalar rule itself is sound; only the kernels disagree.
        assert widening_violations(ops) == []
        assert parity_divergences(ops, apply_batched=broken_batched)

    def test_columnar_kernel_that_drops_an_error_is_rs003(self):
        def forgiving_batched(state, rows, op, ctx):
            apply_rule_batched(state, rows, op, ctx)
            return {}  # swallows the empty-DR Merge refusals

        divergences = parity_divergences([Merge(None)], apply_batched=forgiving_batched)
        assert "Merge rule requires a non-empty Defined Region" in divergences[0]

    def test_partial_integer_scale_taken_for_whole_image(self):
        def partial_as_whole(state, rows, op, ctx):
            # Scale a DR that spans the full width but not the full height
            # as if it covered the whole image.
            d = state.dr[rows]
            full_width = (d[:, 0] == 0) & (d[:, 1] == 0) & (d[:, 2] > 0)
            full_width &= d[:, 3] >= state.widths[rows]
            state.dr[rows[full_width], 2] = state.heights[rows[full_width]]
            return apply_rule_batched(state, rows, op, ctx)

        assert parity_divergences([Mutate.scale(2)], apply_batched=partial_as_whole)


class TestClassifierIntegration:
    def test_prover_respects_injected_classifier(self):
        # A classifier that claims every operation widening is refuted on
        # Merge with a target, which can shrink the percentage interval.
        merge_target = _case("merge-target").operations
        assert widening_violations(merge_target) == []
        assert widening_violations(merge_target, classify=lambda op: True)

    def test_modes_differ_in_corpus_size(self):
        # The seeded random corpus adds states beyond the boundary grid,
        # and another seed draws other states.
        assert len(corpus()) > len(grid_states())
        assert corpus(7) != corpus()
