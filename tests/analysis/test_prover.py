"""Rule-soundness prover: proofs on the shipped rules, refutations on
deliberately broken ones."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import Severity, prove_rules
from repro.analysis.prover import (
    RuleCase,
    default_rule_cases,
    grid_states,
    minimize_state,
    random_states,
)
from repro.core.optable import apply_rule_batched
from repro.core.rules import RuleState, apply_rule
from repro.editing.operations import Combine, Define, Merge, Mutate
from repro.images.geometry import Rect


@pytest.fixture(scope="module")
def fast_report():
    return prove_rules(mode="fast")


class TestShippedRules:
    def test_every_case_verified(self, fast_report):
        assert fast_report.ok
        assert fast_report.report.clean
        for verdict in fast_report.verdicts:
            assert verdict.verified, verdict.case

    def test_covers_every_default_case(self, fast_report):
        assert {v.case for v in fast_report.verdicts} == {
            c.name for c in default_rule_cases()
        }

    def test_widening_rows_proved_monotone(self, fast_report):
        expected = {c.name for c in default_rule_cases() if c.expect_widening}
        assert set(fast_report.widening_cases()) == expected
        for name in expected:
            verdict = fast_report.verdict_for(name)
            assert verdict.classified_widening
            assert verdict.monotone is True
            assert verdict.states_checked > 0

    def test_non_widening_rows_not_claimed(self, fast_report):
        for name in ("mutate-general-affine", "merge-target"):
            verdict = fast_report.verdict_for(name)
            assert not verdict.classified_widening
            assert verdict.monotone is None
            # Parity is still enforced even without a widening claim.
            assert verdict.batched_parity_ok
            assert verdict.batched_states_checked > 0

    def test_verdict_table_mentions_every_case(self, fast_report):
        table = fast_report.verdict_table()
        for verdict in fast_report.verdicts:
            assert verdict.case in table
        assert "REFUTED" not in table
        assert "DIVERGED" not in table

    def test_to_dict_round_trips_through_json(self, fast_report):
        import json

        payload = json.loads(json.dumps(fast_report.to_dict()))
        assert payload["ok"] is True
        assert len(payload["verdicts"]) == len(fast_report.verdicts)


class TestCorpus:
    def test_grid_contains_empty_and_full_dr(self):
        states = grid_states()
        assert any(s.dr.is_empty for s in states)
        assert any(
            s.dr == Rect(0, 0, s.height, s.width) for s in states
        )

    def test_grid_states_are_valid(self):
        for state in grid_states():
            state.validate()

    def test_random_states_deterministic(self):
        a = random_states(np.random.default_rng(5), 20)
        b = random_states(np.random.default_rng(5), 20)
        assert a == b


class TestBrokenRuleDetection:
    """A deliberately unsound rule must be refuted with a minimal state."""

    @staticmethod
    def _broken_scalar(state, op, ctx):
        post = apply_rule(state, op, ctx)
        if isinstance(op, Combine) and post.hi > post.lo:
            # Unsoundly tighten the upper bound: drops pixels the true
            # interval must keep, i.e. the rule no longer widens.
            return RuleState(
                lo=post.lo,
                hi=post.lo,
                height=post.height,
                width=post.width,
                dr=post.dr,
            )
        return post

    @pytest.fixture(scope="class")
    def broken_report(self):
        return prove_rules(
            mode="fast",
            cases=[RuleCase("combine", (Combine.box(),), True)],
            apply_scalar=self._broken_scalar,
        )

    def test_refuted(self, broken_report):
        assert not broken_report.ok
        verdict = broken_report.verdict_for("combine")
        assert verdict.monotone is False

    def test_rs001_finding_with_counterexample(self, broken_report):
        findings = broken_report.report.by_code("RS001")
        assert findings
        finding = findings[0]
        assert finding.severity is Severity.ERROR
        assert finding.details["state"]
        assert finding.details["post_interval"]

    def test_counterexample_is_minimal(self, broken_report):
        # The greedy shrinker should land on a tiny state: every shrink
        # neighbor of the reported state must *not* reproduce, or the
        # state is already at the floor of the shrink lattice.
        verdict = broken_report.verdict_for("combine")
        state = verdict.counterexample["state"]
        assert state["height"] * state["width"] <= 4

    def test_divergent_columnar_kernel_reported_as_rs003(self):
        def broken_batched(state, rows, op, ctx):
            errors = apply_rule_batched(state, rows, op, ctx)
            if isinstance(op, Define):
                state.hi[rows] += 1  # off-by-one vs the scalar kernel
            return errors

        report = prove_rules(
            mode="fast",
            cases=[RuleCase("define", (Define.of(0, 0, 2, 2),), True)],
            apply_batched=broken_batched,
        )
        assert not report.ok
        verdict = report.verdict_for("define")
        assert not verdict.batched_parity_ok
        assert verdict.monotone is True  # the scalar rule itself is sound
        findings = report.report.by_code("RS003")
        assert findings
        # The failing row is shrunk before it is reported.
        state = findings[0].details["state"]
        assert state["height"] * state["width"] <= 4

    def test_columnar_kernel_that_drops_an_error_is_rs003(self):
        def forgiving_batched(state, rows, op, ctx):
            apply_rule_batched(state, rows, op, ctx)
            return {}  # swallows the empty-DR Merge refusals

        report = prove_rules(
            mode="fast",
            cases=[RuleCase("merge-null", (Merge(None),), True)],
            apply_batched=forgiving_batched,
        )
        assert not report.verdict_for("merge-null").batched_parity_ok
        assert "error mismatch" in report.report.by_code("RS003")[0].message


class TestMinimizeState:
    def test_shrinks_to_a_fixed_point(self):
        start = RuleState(lo=40, hi=90, height=10, width=10, dr=Rect(0, 0, 6, 6))

        def still_fails(state):
            return state.hi >= 1  # everything fails: shrink to the floor

        minimal = minimize_state(start, still_fails)
        assert still_fails(minimal)
        assert minimal.height * minimal.width <= 4

    def test_respects_predicate(self):
        start = RuleState(lo=0, hi=100, height=10, width=10, dr=Rect(0, 0, 5, 5))

        def needs_big(state):
            return state.height * state.width >= 100

        minimal = minimize_state(start, needs_big)
        assert needs_big(minimal)


class TestClassifierIntegration:
    def test_prover_respects_injected_classifier(self):
        # Force the general-affine case to be *claimed* widening: the
        # prover must then hold the rule to the monotonicity bar.
        report = prove_rules(
            mode="fast",
            cases=[
                RuleCase(
                    "mutate-general-affine",
                    (Mutate.scale(1.5),),
                    False,
                )
            ],
            classify_fn=lambda op: True,
        )
        verdict = report.verdict_for("mutate-general-affine")
        assert verdict.classified_widening
        # The general-warp rule is itself monotone (it only widens), so
        # the claim survives — what matters is that the prover now
        # actually ran the monotonicity check.
        assert verdict.monotone is not None
        assert verdict.states_checked > 0

    def test_modes_differ_in_corpus_size(self):
        fast = prove_rules(mode="fast")
        full = prove_rules(mode="full")
        assert full.report.subjects_examined > fast.report.subjects_examined
        assert full.ok

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            prove_rules(mode="thorough")
