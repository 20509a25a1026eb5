"""The two soundness properties of the Table 1 rules, as plain helpers.

* **Widening (RS001).** Every operation that ``is_bound_widening``
  accepts keeps the percentage interval ``[lo/total, hi/total]`` under
  ``apply_rule``, compared by exact integer cross-multiplication.
* **Kernel parity (RS003).** ``apply_rule_batched`` on one heterogeneous
  batch equals ``apply_rule`` per bin: same counts, dimensions, Defined
  Region and failing rows, with identical messages.

Both run over the same deterministic inputs: one case per classifier
branch plus seeded random operations of every kind, over boundary grid
states (including DRs that cover one axis but not the other) plus a
seeded random corpus.  Each helper returns its violations, so a property
test asserts the list is empty and a detector test injects a broken rule
and asserts it is not.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.color.quantization import UniformQuantizer
from repro.core.classify import is_bound_widening
from repro.core.optable import BatchRuleContext, BatchRuleState, apply_rule_batched
from repro.core.rules import RuleContext, RuleState, apply_rule
from repro.editing.operations import Combine, Define, Merge, Modify, Mutate, Operation
from repro.editing.random_edits import random_operation
from repro.errors import RuleError
from repro.images.geometry import EMPTY_RECT, AffineMatrix, Rect

SEED = 2006
Q2 = UniformQuantizer(2, "rgb")
FILL = (0, 0, 0)


class RuleCase(NamedTuple):
    """One classifier branch: representative operations and §4's claim."""

    name: str
    operations: Tuple[Operation, ...]
    expect_widening: bool


RULE_CASES = (
    RuleCase("define", (Define.of(0, 0, 3, 3), Define.of(1, 1, 6, 8)), True),
    RuleCase("combine", (Combine.box(),), True),
    # Old and new color in different bins, in the same bin, and identical.
    RuleCase(
        "modify",
        (
            Modify((0, 0, 0), (255, 255, 255)),
            Modify((10, 10, 10), (40, 30, 20)),
            Modify((200, 16, 46), (200, 16, 46)),
        ),
        True,
    ),
    RuleCase("mutate-identity", (Mutate(AffineMatrix.identity()),), True),
    RuleCase(
        "mutate-rigid-body",
        (Mutate.translation(2, -1), Mutate.rotation_90(1, 2.0, 2.0)),
        True,
    ),
    # The corpus holds DRs that cover the image and DRs that do not, so
    # the same matrices reach both the whole-image and the partial row.
    RuleCase("mutate-integer-scale", (Mutate.scale(2), Mutate.scale(3, 2)), True),
    RuleCase("mutate-partial-integer-scale", (Mutate.scale(2),), True),
    RuleCase(
        "mutate-general-affine",
        (Mutate.scale(1.5), Mutate(AffineMatrix(1.3, 0.4, 0.0, 0.0, 1.0, 0.0))),
        False,
    ),
    RuleCase("merge-null", (Merge(None),), True),
    RuleCase("merge-target", (Merge("target", 0, 0), Merge("target", 2, 1)), False),
)


def grid_states() -> List[RuleState]:
    """Boundary dimensions and counts, each with every kind of DR: the
    whole image, empty, a corner, the interior, and the two that cover
    one axis but not the other."""
    states = []
    for height, width in ((1, 1), (1, 3), (2, 2), (3, 5), (5, 4)):
        total, half = height * width, height * width // 2
        counts = {(0, 0), (0, total), (total, total), (0, half), (half, total)}
        counts.add((max(0, half - 1), half))
        drs = [
            Rect(0, 0, height, width),
            EMPTY_RECT,
            Rect(0, 0, max(1, height // 2), max(1, width // 2)),
            Rect(min(1, height - 1), min(1, width - 1), height, width),
            Rect(0, 0, height - 1, width),
            Rect(0, 0, height, width - 1),
        ]
        for lo, hi in sorted(counts):
            states.extend(RuleState(lo, hi, height, width, dr) for dr in drs)
    return states


def random_states(rng: np.random.Generator, count: int = 40) -> List[RuleState]:
    """Arbitrary consistent states: any dimensions, counts and DR."""
    states = []
    for _ in range(count):
        height, width = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        lo = int(rng.integers(0, height * width + 1))
        hi = int(rng.integers(lo, height * width + 1))
        x1, y1 = int(rng.integers(0, height)), int(rng.integers(0, width))
        x2, y2 = int(rng.integers(x1, height + 1)), int(rng.integers(y1, width + 1))
        states.append(RuleState(lo, hi, height, width, Rect(x1, y1, x2, y2)))
    return states


def corpus(seed: int = SEED) -> List[RuleState]:
    return grid_states() + random_states(np.random.default_rng(seed))


def rule_operations() -> List[Operation]:
    """Every case's operations, then seeded random ones of every kind."""
    rng = np.random.default_rng(SEED)
    colors = [(0, 0, 0), (255, 255, 255), (10, 200, 30)]
    cases = [op for case in RULE_CASES for op in case.operations]
    return cases + [
        random_operation(rng, 6, 6, colors, merge_targets=("target",))
        for _ in range(16)
    ]


def _target(bins: int) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """The Merge target: a 3x4 image, exact in some bins, interval in others."""
    rng = np.random.default_rng(SEED)
    counts = rng.multinomial(12, np.full(bins, 1.0 / bins))
    slack = rng.integers(0, 3, bins)
    return np.maximum(counts - slack, 0), np.minimum(counts + slack, 12), 3, 4


def _context(quantizer: UniformQuantizer, bin_index: int, target) -> RuleContext:
    t_lo, t_hi, t_h, t_w = target

    def resolve(_id: str, b: int) -> Tuple[int, int, int, int]:
        return int(t_lo[b]), int(t_hi[b]), t_h, t_w

    return RuleContext(quantizer, bin_index, FILL, resolve)


def widening_violations(
    operations: Optional[Iterable[Operation]] = None,
    classify=is_bound_widening,
    apply_scalar=apply_rule,
) -> List[Tuple[Operation, int, RuleState, RuleState]]:
    """RS001: each ``(op, bin, pre, post)`` where an operation that
    ``classify`` accepts narrows the percentage interval."""
    states, target = corpus(), _target(Q2.bin_count)
    found = []
    for op in rule_operations() if operations is None else operations:
        if not classify(op):
            continue
        for bin_index in range(Q2.bin_count):
            ctx = _context(Q2, bin_index, target)
            for pre in states:
                try:
                    post = apply_scalar(pre, op, ctx)
                except RuleError:
                    continue
                if (post.lo * pre.total > pre.lo * post.total
                        or post.hi * pre.total < pre.hi * post.total):
                    found.append((op, bin_index, pre, post))
    return found


def parity_divergences(
    operations: Optional[Iterable[Operation]] = None,
    apply_batched=apply_rule_batched,
    quantizer: UniformQuantizer = Q2,
) -> List[str]:
    """RS003: every ``(op, row, bin)`` where the columnar kernel, run on
    the whole corpus as one batch, disagrees with the scalar rule."""
    rng, states, bins = np.random.default_rng(SEED), corpus(), quantizer.bin_count
    target = _target(bins)
    found = []
    for op in rule_operations() if operations is None else operations:
        rows = []
        for state in states:
            lo = rng.integers(0, state.total + 1, bins)
            hi = np.minimum(lo + rng.integers(0, state.total + 1, bins), state.total)
            lo[0], hi[0] = state.lo, state.hi
            rows.append((lo, hi, state.height, state.width, state.dr))
        batch = BatchRuleState.stack(rows)
        ctx = BatchRuleContext(quantizer, FILL, lambda _id: target)
        errors = apply_batched(batch, np.arange(len(rows)), op, ctx)
        for row, (lo, hi, height, width, dr) in enumerate(rows):
            b_lo, b_hi, b_h, b_w, b_dr = batch.row_state(row)
            for b in range(bins):
                pre = RuleState(int(lo[b]), int(hi[b]), height, width, dr)
                try:
                    post = apply_rule(pre, op, _context(quantizer, b, target))
                    want: object = (post.lo, post.hi, post.height, post.width,
                                    post.dr if post.dr.area else EMPTY_RECT)
                except RuleError as exc:
                    want = str(exc)
                have = (str(errors[row]) if row in errors
                        else (int(b_lo[b]), int(b_hi[b]), b_h, b_w, b_dr))
                if have != want:
                    found.append(f"{op!r} on row {row} ({pre}) bin {b}: "
                                 f"batched {have} != scalar {want}")
    return found
