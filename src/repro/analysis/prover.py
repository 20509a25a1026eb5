"""Rule-soundness prover: machine-check the §4 bound-widening claims.

BWM's correctness argument rests on a *static* claim: every rule that
:func:`repro.core.classify.is_bound_widening` marks as widening can only
ever grow the percentage interval ``[HB_min/size, HB_max/size]``.  The
classifier asserts this with hand-written proofs in docstrings; this
module checks it mechanically with an interval abstract interpreter:

1. **Monotonicity** — for every rule case the classifier calls widening,
   apply the scalar Table 1 rule to a systematic grid plus a randomized
   corpus of abstract states and verify, with exact integer
   cross-multiplication (no float tolerance), that the post-rule
   percentage interval contains the pre-rule interval.
2. **Columnar sweep parity** — for every rule case (widening or not),
   stack heterogeneous all-bins states into one multi-row
   :class:`~repro.core.optable.BatchRuleState`, apply the columnar
   kernel (:func:`repro.core.optable.apply_rule_batched`, the only
   production all-bins kernel) to every row at once and the scalar
   kernel to each bin of each row independently, and verify the results
   are byte-identical: same counts, same dimensions, same Defined
   Region, and the same rows failing with a
   :class:`~repro.errors.RuleError`.

Any violation is reported as a :class:`~repro.analysis.findings.Finding`
(``RS001`` non-monotone widening rule, ``RS003`` scalar/columnar
divergence) carrying a *minimal* reproducing state: the prover greedily
shrinks the failing state (dimensions, counts, Defined Region) until no
smaller state still fails.

The prover is pure computation over abstract states — no catalog, no
raster, no instantiation — so it runs in CI's fast mode in about a
second.  Tests inject deliberately broken rules or classifiers through
the ``apply_scalar`` / ``apply_batched`` / ``classify_fn`` hooks to prove
the prover itself catches violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.findings import AnalysisReport, Finding, Severity
from repro.color.quantization import UniformQuantizer
from repro.core.classify import is_bound_widening
from repro.core.optable import (
    BatchRuleContext,
    BatchRuleState,
    apply_rule_batched,
)
from repro.core.rules import RuleContext, RuleState, apply_rule
from repro.editing.operations import (
    Combine,
    Define,
    Merge,
    Modify,
    Mutate,
    Operation,
)
from repro.errors import RuleError
from repro.images.geometry import AffineMatrix, Rect

#: Signature of the scalar rule applier (injectable for fixture tests).
ScalarApply = Callable[[RuleState, Operation, RuleContext], RuleState]
#: Signature of the columnar (multi-row) rule applier.
BatchedApply = Callable[
    [BatchRuleState, np.ndarray, Operation, BatchRuleContext],
    Dict[int, RuleError],
]
#: Signature of the static classifier under test.
ClassifyFn = Callable[[Operation], bool]


# ----------------------------------------------------------------------
# Rule cases: one per Table 1 row / classifier branch
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RuleCase:
    """One classifier branch with representative operations.

    ``expect_widening`` records what Table 1 / §4 claims for the case;
    the prover cross-checks the *actual* classifier verdict against the
    rules, so a case whose classifier verdict flips is still proved (or
    refuted) on its own merits.
    """

    name: str
    operations: Tuple[Operation, ...]
    #: What the paper's table claims (documentation only).
    expect_widening: bool
    #: Merge rules require a non-empty Defined Region.
    requires_nonempty_dr: bool = False
    #: The whole-image scale row needs the DR to cover the image.
    force_full_dr: bool = False
    #: Non-NULL Merge needs a target resolver.
    needs_target: bool = False

    def random_operation(
        self, rng: np.random.Generator
    ) -> Optional[Operation]:
        """A random parameter variation of this case, or ``None``."""
        maker = _RANDOM_MAKERS.get(self.name)
        return maker(rng) if maker is not None else None


def _random_define(rng: np.random.Generator) -> Operation:
    x1, y1 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
    return Define.of(x1, y1, x1 + int(rng.integers(1, 5)), y1 + int(rng.integers(1, 5)))


def _random_combine(rng: np.random.Generator) -> Operation:
    return Combine(tuple(float(w) for w in rng.uniform(0.0, 2.0, 9) + 1e-3))


def _random_color(rng: np.random.Generator) -> Tuple[int, int, int]:
    return tuple(int(v) for v in rng.integers(0, 256, 3))


def _random_modify(rng: np.random.Generator) -> Operation:
    return Modify(_random_color(rng), _random_color(rng))


def _random_rigid(rng: np.random.Generator) -> Operation:
    if rng.random() < 0.5:
        return Mutate.translation(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
    return Mutate.rotation_90(int(rng.integers(1, 4)), float(rng.integers(0, 4)), 0.0)


def _random_integer_scale(rng: np.random.Generator) -> Operation:
    return Mutate.scale(int(rng.integers(1, 4)), int(rng.integers(1, 4)))


def _random_general_affine(rng: np.random.Generator) -> Operation:
    return Mutate(
        AffineMatrix(
            1.0 + float(rng.uniform(0.1, 1.0)),
            float(rng.uniform(0.0, 0.5)),
            0.0,
            0.0,
            1.0 + float(rng.uniform(0.1, 1.0)),
            0.0,
        )
    )


def _random_merge_null(rng: np.random.Generator) -> Operation:
    return Merge(None)


def _random_merge_target(rng: np.random.Generator) -> Operation:
    return Merge("target", int(rng.integers(0, 3)), int(rng.integers(0, 3)))


_RANDOM_MAKERS: Dict[str, Callable[[np.random.Generator], Operation]] = {
    "define": _random_define,
    "combine": _random_combine,
    "modify": _random_modify,
    "mutate-rigid-body": _random_rigid,
    "mutate-integer-scale": _random_integer_scale,
    "mutate-general-affine": _random_general_affine,
    "merge-null": _random_merge_null,
    "merge-target": _random_merge_target,
}


def default_rule_cases() -> Tuple[RuleCase, ...]:
    """The Table 1 rows as prover cases, one per classifier branch."""
    return (
        RuleCase("define", (Define.of(0, 0, 3, 3), Define.of(1, 1, 6, 8)), True),
        RuleCase("combine", (Combine.box(),), True),
        RuleCase(
            "modify",
            (
                Modify((0, 0, 0), (255, 255, 255)),   # old/new in different bins
                Modify((10, 10, 10), (40, 30, 20)),   # both in the same bin
                Modify((200, 16, 46), (200, 16, 46)),  # identity color map
            ),
            True,
        ),
        RuleCase("mutate-identity", (Mutate(AffineMatrix.identity()),), True),
        RuleCase(
            "mutate-rigid-body",
            (Mutate.translation(2, -1), Mutate.rotation_90(1, 2.0, 2.0)),
            True,
        ),
        RuleCase(
            "mutate-integer-scale",
            (Mutate.scale(2), Mutate.scale(3, 2)),
            True,
            force_full_dr=True,
        ),
        RuleCase(
            "mutate-partial-integer-scale",
            (Mutate.scale(2),),
            True,
        ),
        RuleCase(
            "mutate-general-affine",
            (Mutate.scale(1.5), Mutate(AffineMatrix(1.3, 0.4, 0.0, 0.0, 1.0, 0.0))),
            False,
        ),
        RuleCase("merge-null", (Merge(None),), True, requires_nonempty_dr=True),
        RuleCase(
            "merge-target",
            (Merge("target", 0, 0), Merge("target", 2, 1)),
            False,
            requires_nonempty_dr=True,
            needs_target=True,
        ),
    )


# ----------------------------------------------------------------------
# Abstract-state corpus
# ----------------------------------------------------------------------
def _state(lo: int, hi: int, height: int, width: int, dr: Rect) -> RuleState:
    return RuleState(lo=lo, hi=hi, height=height, width=width, dr=dr)

def grid_states() -> List[RuleState]:
    """The systematic corpus: boundary dimensions, counts, and DRs."""
    states: List[RuleState] = []
    for height, width in ((1, 1), (1, 3), (2, 2), (3, 5), (5, 4)):
        total = height * width
        count_pairs = {
            (0, 0),
            (0, total),
            (total, total),
            (0, total // 2),
            (total // 2, total),
            (max(0, total // 2 - 1), total // 2),
        }
        drs = [
            Rect(0, 0, height, width),            # full image
            Rect(0, 0, 0, 0),                      # empty DR
            Rect(0, 0, max(1, height // 2), max(1, width // 2)),  # corner
        ]
        if height > 1 and width > 1:
            drs.append(Rect(1, 1, height, width))  # offset interior
        for lo, hi in sorted(count_pairs):
            for dr in drs:
                states.append(_state(lo, hi, height, width, dr))
    return states


def random_states(rng: np.random.Generator, count: int) -> List[RuleState]:
    """The randomized corpus: arbitrary consistent abstract states."""
    states: List[RuleState] = []
    for _ in range(count):
        height = int(rng.integers(1, 9))
        width = int(rng.integers(1, 9))
        total = height * width
        lo = int(rng.integers(0, total + 1))
        hi = int(rng.integers(lo, total + 1))
        x1 = int(rng.integers(0, height))
        y1 = int(rng.integers(0, width))
        dr = Rect(
            x1,
            y1,
            int(rng.integers(x1, height + 1)),
            int(rng.integers(y1, width + 1)),
        )
        states.append(_state(lo, hi, height, width, dr))
    return states


def _adapt_state(state: RuleState, case: RuleCase) -> Optional[RuleState]:
    """Specialize a corpus state to a case's preconditions, or drop it."""
    if case.force_full_dr:
        state = _state(
            state.lo, state.hi, state.height, state.width,
            Rect(0, 0, state.height, state.width),
        )
    elif case.name == "mutate-partial-integer-scale":
        # The non-whole-image row: keep only states whose DR does NOT
        # cover the image, so the pixel-move branch is the one proved.
        if state.dr.contains(Rect(0, 0, state.height, state.width)):
            return None
    if case.requires_nonempty_dr and state.dr.is_empty:
        return None
    return state


# ----------------------------------------------------------------------
# The two checks
# ----------------------------------------------------------------------
def _interval_contains(pre: RuleState, post: RuleState) -> bool:
    """Exact containment of percentage intervals (no float tolerance).

    ``post.lo / post.total <= pre.lo / pre.total`` and
    ``post.hi / post.total >= pre.hi / pre.total``, cross-multiplied so
    the comparison stays in integers.
    """
    return (
        post.lo * pre.total <= pre.lo * post.total
        and post.hi * pre.total >= pre.hi * post.total
    )


def _state_payload(state: RuleState) -> Dict[str, Any]:
    return {
        "lo": state.lo,
        "hi": state.hi,
        "height": state.height,
        "width": state.width,
        "dr": list(state.dr.as_tuple()),
    }


def _state_size(state: RuleState) -> int:
    return state.height + state.width + state.lo + state.hi + state.dr.area


def _shrink_candidates(state: RuleState) -> Iterable[RuleState]:
    """Strictly smaller neighbor states, largest reduction first."""
    height, width = state.height, state.width
    for new_h, new_w in ((max(1, height // 2), width), (height, max(1, width // 2)),
                         (height - 1, width), (height, width - 1)):
        if new_h < 1 or new_w < 1 or (new_h, new_w) == (height, width):
            continue
        total = new_h * new_w
        yield _state(
            min(state.lo, total),
            min(state.hi, total),
            new_h,
            new_w,
            state.dr.clip(new_h, new_w),
        )
    for new_lo in (0, state.lo // 2, state.lo - 1):
        if 0 <= new_lo < state.lo:
            yield _state(new_lo, state.hi, height, width, state.dr)
    for new_hi in (state.lo, (state.lo + state.hi) // 2, state.hi - 1):
        if state.lo <= new_hi < state.hi:
            yield _state(state.lo, new_hi, height, width, state.dr)
    if not state.dr.is_empty and state.dr.area > 1:
        x1, y1 = state.dr.x1, state.dr.y1
        yield _state(state.lo, state.hi, height, width, Rect(x1, y1, x1 + 1, y1 + 1))


def minimize_state(
    state: RuleState,
    still_fails: Callable[[RuleState], bool],
    max_steps: int = 200,
) -> RuleState:
    """Greedy shrink: the smallest neighbor-reachable state that still fails."""
    current = state
    for _ in range(max_steps):
        best: Optional[RuleState] = None
        for candidate in _shrink_candidates(current):
            if _state_size(candidate) >= _state_size(current):
                continue
            try:
                failing = still_fails(candidate)
            except RuleError:
                continue
            if failing and (best is None or _state_size(candidate) < _state_size(best)):
                best = candidate
        if best is None:
            return current
        current = best
    return current


@dataclass
class _TargetFixture:
    """A synthetic Merge target shared by the scalar and columnar kernels."""

    lo: np.ndarray
    hi: np.ndarray
    height: int
    width: int

    def scalar_resolver(self) -> Callable[[str, int], Tuple[int, int, int, int]]:
        def resolve(target_id: str, bin_index: int) -> Tuple[int, int, int, int]:
            return (
                int(self.lo[bin_index]),
                int(self.hi[bin_index]),
                self.height,
                self.width,
            )
        return resolve

    def all_bins_resolver(
        self,
    ) -> Callable[[str], Tuple[np.ndarray, np.ndarray, int, int]]:
        def resolve(target_id: str) -> Tuple[np.ndarray, np.ndarray, int, int]:
            return (self.lo, self.hi, self.height, self.width)
        return resolve


def _make_target(rng: np.random.Generator, bin_count: int) -> _TargetFixture:
    height, width = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    total = height * width
    # A mix of exact (binary-like) and interval (edited-like) targets.
    counts = rng.multinomial(total, np.full(bin_count, 1.0 / bin_count))
    lo = counts.astype(np.int64)
    if rng.random() < 0.5:
        hi = lo.copy()
    else:
        hi = np.minimum(lo + rng.integers(0, total + 1, bin_count), total).astype(
            np.int64
        )
        lo = np.maximum(lo - rng.integers(0, total + 1, bin_count), 0).astype(
            np.int64
        )
    return _TargetFixture(lo=lo, hi=hi, height=height, width=width)


# ----------------------------------------------------------------------
# Verdicts and the report
# ----------------------------------------------------------------------
@dataclass
class RuleVerdict:
    """The prover's conclusion for one rule case."""

    case: str
    #: Representative operation (repr of the first checked op).
    operation: str
    #: What the classifier under test said for this case's operations.
    classified_widening: bool
    #: ``True`` = proved monotone on the corpus; ``False`` = refuted;
    #: ``None`` = not claimed widening, so monotonicity is not required.
    monotone: Optional[bool]
    #: (state, bin) pairs the monotonicity check covered.
    states_checked: int
    #: Minimal reproducing state for the first violation, if any.
    counterexample: Optional[Dict[str, Any]] = None
    #: Columnar multi-row kernel agreed with the scalar oracle per row.
    batched_parity_ok: bool = True
    #: Rows the columnar parity check covered.
    batched_states_checked: int = 0

    @property
    def verified(self) -> bool:
        """Machine-verified sound: monotone when claimed, kernels agree."""
        return self.batched_parity_ok and self.monotone is not False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "case": self.case,
            "operation": self.operation,
            "classified_widening": self.classified_widening,
            "monotone": self.monotone,
            "states_checked": self.states_checked,
            "batched_parity_ok": self.batched_parity_ok,
            "batched_states_checked": self.batched_states_checked,
            "counterexample": self.counterexample,
        }


@dataclass
class ProverReport:
    """Per-case verdicts plus the violations as structured findings."""

    verdicts: List[RuleVerdict] = field(default_factory=list)
    report: AnalysisReport = field(
        default_factory=lambda: AnalysisReport(pass_name="prover")
    )

    @property
    def ok(self) -> bool:
        """True when every case is verified and no finding is an error."""
        return self.report.ok and all(v.verified for v in self.verdicts)

    def verdict_for(self, case: str) -> RuleVerdict:
        for verdict in self.verdicts:
            if verdict.case == case:
                return verdict
        raise KeyError(f"no verdict for case {case!r}")

    def widening_cases(self) -> List[str]:
        """Cases the classifier marked widening AND the prover verified."""
        return [
            v.case
            for v in self.verdicts
            if v.classified_widening
            and v.monotone is True
            and v.batched_parity_ok
        ]

    def verdict_table(self) -> str:
        """Plain-text verdict table (pasted into EXPERIMENTS.md)."""
        headers = (
            "rule case",
            "classified widening",
            "monotone proved",
            "scalar==batched",
            "states",
        )
        rows = []
        for v in self.verdicts:
            rows.append(
                (
                    v.case,
                    "yes" if v.classified_widening else "no",
                    {True: "yes", False: "REFUTED", None: "n/a"}[v.monotone],
                    "yes" if v.batched_parity_ok else "DIVERGED",
                    f"{v.states_checked}+{v.batched_states_checked}",
                )
            )
        widths = [
            max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
            for i in range(len(headers))
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
            "  ".join("-" * w for w in widths),
        ]
        for row in rows:
            lines.append(
                "  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip()
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "report": self.report.to_dict(),
        }


# ----------------------------------------------------------------------
# The prover
# ----------------------------------------------------------------------
def prove_rules(
    mode: str = "fast",
    seed: int = 2006,
    quantizer: Optional[UniformQuantizer] = None,
    cases: Optional[Sequence[RuleCase]] = None,
    classify_fn: ClassifyFn = is_bound_widening,
    apply_scalar: ScalarApply = apply_rule,
    apply_batched: BatchedApply = apply_rule_batched,
) -> ProverReport:
    """Prove (or refute) the bound-widening claims on an abstract corpus.

    ``mode`` is ``"fast"`` (the CI gate: grid corpus + a small random
    corpus) or ``"full"`` (a larger random corpus and more random
    operation variants per case).  The ``classify_fn`` / ``apply_scalar``
    / ``apply_batched`` hooks exist so tests can seed a deliberately
    broken rule and assert the prover reports it with a minimal
    counterexample.
    """
    if mode not in ("fast", "full"):
        raise ValueError(f"unknown prover mode {mode!r}")
    rng = np.random.default_rng(seed)
    quantizer = quantizer if quantizer is not None else UniformQuantizer(2, "rgb")
    cases = tuple(cases) if cases is not None else default_rule_cases()
    random_state_count = 40 if mode == "fast" else 200
    random_op_count = 2 if mode == "fast" else 6

    corpus = grid_states() + random_states(rng, random_state_count)
    prover = ProverReport()
    subjects = 0

    for case in cases:
        operations = list(case.operations)
        for _ in range(random_op_count):
            extra = case.random_operation(rng)
            if extra is not None:
                operations.append(extra)
        verdict = _prove_case(
            case,
            operations,
            corpus,
            quantizer,
            rng,
            classify_fn,
            apply_scalar,
            apply_batched,
            prover.report,
        )
        prover.verdicts.append(verdict)
        subjects += verdict.states_checked + verdict.batched_states_checked
    prover.report.subjects_examined = subjects
    return prover


def _prove_case(
    case: RuleCase,
    operations: Sequence[Operation],
    corpus: Sequence[RuleState],
    quantizer: UniformQuantizer,
    rng: np.random.Generator,
    classify_fn: ClassifyFn,
    apply_scalar: ScalarApply,
    apply_batched: BatchedApply,
    report: AnalysisReport,
) -> RuleVerdict:
    bin_count = quantizer.bin_count
    classified = all(classify_fn(op) for op in operations)
    monotone: Optional[bool] = True if classified else None
    batched_ok = True
    states_checked = 0
    batched_checked = 0
    # First counterexample of each kind, reported independently so an
    # early parity divergence cannot mask a monotonicity refutation.
    mono_counterexample: Optional[Dict[str, Any]] = None
    batched_counterexample: Optional[Dict[str, Any]] = None
    adapted_corpus = [
        adapted
        for state in corpus
        if (adapted := _adapt_state(state, case)) is not None
    ]

    for op in operations:
        op_classified = classify_fn(op)
        bins = _bins_of_interest(op, quantizer)
        target = _make_target(rng, bin_count) if case.needs_target else None

        # ---- monotonicity on the claimed-widening rules --------------
        if op_classified:
            for adapted in adapted_corpus:
                for bin_index in bins:
                    ctx = _scalar_ctx(quantizer, bin_index, target)
                    try:
                        post = apply_scalar(adapted, op, ctx)
                    except RuleError:
                        continue
                    states_checked += 1
                    if not _interval_contains(adapted, post):
                        monotone = False
                        if mono_counterexample is None:
                            mono_counterexample = _report_monotonicity_violation(
                                case, op, adapted, post, bin_index,
                                quantizer, target, apply_scalar, report,
                            )

        # ---- scalar/columnar parity over one heterogeneous batch -----
        batched_checked += len(adapted_corpus)
        batched_divergence = _check_batched_parity(
            adapted_corpus, op, quantizer, rng, target, apply_scalar, apply_batched
        )
        if batched_divergence is not None:
            batched_ok = False
            if batched_counterexample is None:
                batched_counterexample = batched_divergence
                report.add(
                    Finding(
                        code="RS003",
                        severity=Severity.ERROR,
                        location=case.name,
                        message=(
                            f"scalar and columnar kernels diverge for "
                            f"{op!r}: {batched_divergence['reason']}"
                        ),
                        fix_hint=(
                            "make the repro.core.optable batched kernels "
                            "mirror the scalar branch exactly (same clamps, "
                            "same errors, same failing rows)"
                        ),
                        details=batched_divergence,
                    )
                )

    return RuleVerdict(
        case=case.name,
        operation=repr(operations[0]),
        classified_widening=classified,
        monotone=monotone if classified else None,
        states_checked=states_checked,
        batched_parity_ok=batched_ok,
        batched_states_checked=batched_checked,
        counterexample=(
            mono_counterexample
            if mono_counterexample is not None
            else batched_counterexample
        ),
    )


def _bins_of_interest(
    op: Operation, quantizer: UniformQuantizer
) -> Tuple[int, ...]:
    """The bins whose rule branches differ for ``op`` (plus a neutral one)."""
    bins = {0, quantizer.bin_count - 1, quantizer.bin_of((0, 0, 0))}
    if isinstance(op, Modify):
        bins.add(quantizer.bin_of(op.rgb_old))
        bins.add(quantizer.bin_of(op.rgb_new))
    return tuple(sorted(bins))


def _scalar_ctx(
    quantizer: UniformQuantizer,
    bin_index: int,
    target: Optional[_TargetFixture],
) -> RuleContext:
    return RuleContext(
        quantizer=quantizer,
        bin_index=bin_index,
        fill_color=(0, 0, 0),
        resolve_target=target.scalar_resolver() if target is not None else None,
    )


def _report_monotonicity_violation(
    case: RuleCase,
    op: Operation,
    state: RuleState,
    post: RuleState,
    bin_index: int,
    quantizer: UniformQuantizer,
    target: Optional[_TargetFixture],
    apply_scalar: ScalarApply,
    report: AnalysisReport,
) -> Dict[str, Any]:
    """Shrink the failing state and file the RS001 finding."""
    ctx = _scalar_ctx(quantizer, bin_index, target)

    def still_fails(candidate: RuleState) -> bool:
        result = apply_scalar(candidate, op, ctx)
        return not _interval_contains(candidate, result)

    minimal = minimize_state(state, still_fails)
    minimal_post = apply_scalar(minimal, op, ctx)
    details = {
        "case": case.name,
        "operation": repr(op),
        "bin_index": bin_index,
        "state": _state_payload(minimal),
        "post_state": _state_payload(minimal_post),
        "pre_interval": [minimal.fraction_lo, minimal.fraction_hi],
        "post_interval": [minimal_post.fraction_lo, minimal_post.fraction_hi],
    }
    report.add(
        Finding(
            code="RS001",
            severity=Severity.ERROR,
            location=case.name,
            message=(
                f"rule classified bound-widening is not monotone: {op!r} "
                f"shrank [{minimal.fraction_lo:.4f}, {minimal.fraction_hi:.4f}] "
                f"to [{minimal_post.fraction_lo:.4f}, "
                f"{minimal_post.fraction_hi:.4f}] on bin {bin_index}"
            ),
            fix_hint=(
                "either fix the rule in repro.core.rules or move the "
                "operation to the unclassified bucket in "
                "repro.core.classify.is_bound_widening"
            ),
            details=details,
        )
    )
    return details


def _batched_row_divergence(
    states: Sequence[RuleState],
    op: Operation,
    quantizer: UniformQuantizer,
    rng: np.random.Generator,
    target: Optional[_TargetFixture],
    apply_scalar: ScalarApply,
    apply_batched: BatchedApply,
) -> Optional[Dict[str, Any]]:
    """All ``states`` as rows of ONE batch vs the per-bin scalar oracle.

    Returns the first per-row divergence (row index, reason, state), or
    ``None`` when every row — results and failures alike — matches.
    """
    if not states:
        return None
    bin_count = quantizer.bin_count
    stacked = []
    vectors: List[Tuple[np.ndarray, np.ndarray]] = []
    for state in states:
        total = state.total
        lo = rng.integers(0, total + 1, bin_count).astype(np.int64)
        hi = (
            (lo + rng.integers(0, total + 1, bin_count))
            .clip(max=total)
            .astype(np.int64)
        )
        lo[0], hi[0] = state.lo, state.hi
        stacked.append((lo, hi, state.height, state.width, state.dr))
        vectors.append((lo, hi))
    batch = BatchRuleState.stack(stacked)
    batch_ctx = BatchRuleContext(
        quantizer=quantizer,
        fill_color=(0, 0, 0),
        resolve_target=target.all_bins_resolver() if target is not None else None,
    )
    rows = np.arange(len(states), dtype=np.int64)
    errors = apply_batched(batch, rows, op, batch_ctx)

    for row, state in enumerate(states):
        lo, hi = vectors[row]

        def payload(reason: str, bin_index: Optional[int] = None) -> Dict[str, Any]:
            return {
                "reason": f"row {row}: {reason}",
                "operation": repr(op),
                "row": row,
                "bin_index": bin_index,
                "state": _state_payload(state),
                "lo_vector": [int(v) for v in lo],
                "hi_vector": [int(v) for v in hi],
            }

        scalar_error: Optional[str] = None
        scalar_results: List[Optional[RuleState]] = []
        for bin_index in range(bin_count):
            ctx = _scalar_ctx(quantizer, bin_index, target)
            scalar_state = RuleState(
                lo=int(lo[bin_index]),
                hi=int(hi[bin_index]),
                height=state.height,
                width=state.width,
                dr=state.dr,
            )
            try:
                scalar_results.append(apply_scalar(scalar_state, op, ctx))
            except RuleError as exc:
                scalar_error = type(exc).__name__
                scalar_results.append(None)
        batched_error = errors.get(row)
        if (batched_error is None) != (scalar_error is None):
            batched_name = type(batched_error).__name__ if batched_error else "ok"
            return payload(
                f"error mismatch: batched={batched_name} "
                f"scalar={scalar_error or 'ok'}"
            )
        if batched_error is not None:
            continue  # both refused this row
        b_lo, b_hi, b_h, b_w, b_dr = batch.row_state(row)
        for bin_index, scalar_post in enumerate(scalar_results):
            if scalar_post is None:
                return payload("scalar raised on one bin only", bin_index)
            # The batch layout normalizes empty DRs to the zero row, so
            # empty-vs-empty counts as identical.
            dr_same = b_dr == scalar_post.dr or (
                b_dr.is_empty and scalar_post.dr.is_empty
            )
            if (
                int(b_lo[bin_index]) != scalar_post.lo
                or int(b_hi[bin_index]) != scalar_post.hi
                or b_h != scalar_post.height
                or b_w != scalar_post.width
                or not dr_same
            ):
                return payload(
                    f"bin {bin_index}: batched [{int(b_lo[bin_index])}, "
                    f"{int(b_hi[bin_index])}] ({b_h}x{b_w}) != scalar "
                    f"[{scalar_post.lo}, {scalar_post.hi}] "
                    f"({scalar_post.height}x{scalar_post.width})",
                    bin_index,
                )
    return None


def _check_batched_parity(
    states: Sequence[RuleState],
    op: Operation,
    quantizer: UniformQuantizer,
    rng: np.random.Generator,
    target: Optional[_TargetFixture],
    apply_scalar: ScalarApply,
    apply_batched: BatchedApply,
) -> Optional[Dict[str, Any]]:
    """RS003: the columnar kernel vs the scalar oracle, with shrinking.

    The whole adapted corpus rides in one heterogeneous batch — rows of
    different dimensions, counts, and Defined Regions advanced by a
    single masked kernel call, exactly how the catalog sweep uses it.
    On divergence the offending row's state is greedily minimized
    (re-checked as a single-row batch with a deterministic vector seed).
    """
    divergence = _batched_row_divergence(
        states, op, quantizer, rng, target, apply_scalar, apply_batched
    )
    if divergence is None:
        return None
    failing = states[int(divergence["row"])]

    def still_fails(candidate: RuleState) -> bool:
        return (
            _batched_row_divergence(
                [candidate],
                op,
                quantizer,
                np.random.default_rng(0),
                target,
                apply_scalar,
                apply_batched,
            )
            is not None
        )

    try:
        if still_fails(failing):
            minimal = minimize_state(failing, still_fails)
            shrunk = _batched_row_divergence(
                [minimal],
                op,
                quantizer,
                np.random.default_rng(0),
                target,
                apply_scalar,
                apply_batched,
            )
            if shrunk is not None:
                shrunk["shrunk_from"] = _state_payload(failing)
                return shrunk
    except RuleError:  # pragma: no cover — broken hooks may raise anywhere
        pass
    return divergence
