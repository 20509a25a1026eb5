"""Table 1 — rules bounding the effect of each editing operation on a bin.

Given a histogram bin ``HB``, the Rule-Based Method tracks, while walking
an edit sequence, a conservative state

* ``lo`` / ``hi`` — minimum / maximum number of pixels that may map to
  ``HB`` in the (never instantiated) edited image;
* ``height`` / ``width`` — the exact image dimensions (these are
  determined by the operations' geometry alone, so the rules track them
  exactly);
* ``dr`` — the current Defined Region, tracked with the same geometry as
  the executor.

Each rule is a sound abstraction of the corresponding semantics in
:mod:`repro.editing.executor`: after applying a rule, the true count of
``HB`` pixels in the instantiated image is guaranteed to lie in
``[lo, hi]``.  The scanned Table 1 is partially corrupted; DESIGN.md §2
documents the three places where we substitute rules derived from first
principles (Combine, Mutate rigid-body width, Merge non-null), each
strictly sound for the executor semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, Optional, Tuple

from repro.color.quantization import UniformQuantizer
from repro.editing.executor import merge_canvas_geometry
from repro.editing.operations import (
    Combine,
    Define,
    Merge,
    Modify,
    Mutate,
    Operation,
)
from repro.errors import RuleError
from repro.images.geometry import Rect, transform_rect_bbox
from repro.images.raster import ColorTuple

#: Returns ``(lo, hi, height, width)`` for a Merge target image and bin:
#: conservative count bounds plus exact dimensions.  Binary targets have
#: ``lo == hi``; edited targets recurse through the bounds engine.
TargetBoundsResolver = Callable[[str, int], Tuple[int, int, int, int]]


@dataclass(frozen=True, init=False)
class RuleState:
    """The running bounds state for one (edit sequence, histogram bin).

    Immutable and slotted: every rule builds the next state with one
    constructor call, which fills the slots through their descriptors
    (the frozen ``__setattr__`` refuses plain assignment).
    """

    __slots__ = ("lo", "hi", "height", "width", "dr")

    lo: int
    hi: int
    height: int
    width: int
    dr: Rect

    def __init__(self, lo: int, hi: int, height: int, width: int, dr: Rect) -> None:
        _set_lo(self, lo)
        _set_hi(self, hi)
        _set_height(self, height)
        _set_width(self, width)
        _set_dr(self, dr)

    def __reduce__(self) -> Tuple[type, Tuple[int, int, int, int, Rect]]:
        return (RuleState, (self.lo, self.hi, self.height, self.width, self.dr))

    @property
    def total(self) -> int:
        """Total pixels in the image at this point (``E`` in Table 1)."""
        return self.height * self.width

    @property
    def fraction_lo(self) -> float:
        """Lower bound on the fraction of pixels in the bin."""
        return self.lo / self.total

    @property
    def fraction_hi(self) -> float:
        """Upper bound on the fraction of pixels in the bin."""
        return self.hi / self.total

    def clamped(self, lo: int, hi: int) -> "RuleState":
        """Copy with new bounds clamped into ``[0, total]``."""
        return _clamped(self, lo, hi, self.dr)

    def validate(self) -> "RuleState":
        """Internal consistency check (used by tests)."""
        if not 0 <= self.lo <= self.hi <= self.total:
            raise RuleError(
                f"inconsistent rule state lo={self.lo} hi={self.hi} total={self.total}"
            )
        return self


_set_lo, _set_hi, _set_height, _set_width, _set_dr = (
    RuleState.__dict__[name].__set__ for name in RuleState.__slots__
)


def _clamped(state: RuleState, lo: int, hi: int, dr: Rect) -> RuleState:
    """``state`` with bounds clamped into ``[0, total]`` and DR ``dr``."""
    height = state.height
    width = state.width
    total = height * width
    return RuleState(
        max(0, min(lo, total)), max(0, min(hi, total)), height, width, dr
    )


@dataclass(frozen=True)
class RuleContext:
    """Everything a rule may consult besides the state.

    ``quantizer`` maps Modify colors to bins; ``bin_index`` is the queried
    bin ``HB``; ``fill_color`` matches the executor's fill; ``resolve_target``
    provides Merge-target bounds (may be ``None`` when sequences contain no
    non-NULL Merge).  One context serves a whole walk, edited bases and
    Merge targets included.
    """

    quantizer: UniformQuantizer
    bin_index: int
    fill_color: ColorTuple = (0, 0, 0)
    resolve_target: Optional[TargetBoundsResolver] = None

    @cached_property
    def fill_in_bin(self) -> bool:
        """True when the executor's fill color maps to the queried bin."""
        return self.quantizer.bin_of(self.fill_color) == self.bin_index


def initial_state(
    base_count: int, base_height: int, base_width: int
) -> RuleState:
    """Start state from the referenced base image's exact bin count."""
    if base_height <= 0 or base_width <= 0:
        raise RuleError("base image must have positive dimensions")
    total = base_height * base_width
    if not 0 <= base_count <= total:
        raise RuleError(f"bin count {base_count} outside [0, {total}]")
    return RuleState(
        lo=base_count,
        hi=base_count,
        height=base_height,
        width=base_width,
        dr=Rect(0, 0, base_height, base_width),
    )


# ----------------------------------------------------------------------
# Per-operation rules
# ----------------------------------------------------------------------
def apply_define(state: RuleState, op: Define, ctx: RuleContext) -> RuleState:
    """Define: selects the DR; the histogram is untouched."""
    height = state.height
    width = state.width
    return RuleState(state.lo, state.hi, height, width, op.rect.clip(height, width))


def apply_combine(state: RuleState, op: Combine, ctx: RuleContext) -> RuleState:
    """Combine: every DR pixel may enter or leave the bin.

    Sound replacement for the corrupted Table 1 row (DESIGN.md §2 item 1):
    blur changes only DR pixels, so the count moves by at most ``|DR|`` in
    either direction and the image size is unchanged.  Bound-widening.
    """
    dr_area = state.dr.area
    return state.clamped(state.lo - dr_area, state.hi + dr_area)


def apply_modify(state: RuleState, op: Modify, ctx: RuleContext) -> RuleState:
    """Modify: Table 1 as printed.

    * ``RGB_new`` maps to HB (and ``RGB_old`` does not): up to ``|DR|``
      pixels join the bin — ``hi += |DR|``.
    * otherwise ``RGB_old`` maps to HB: up to ``|DR|`` pixels leave —
      ``lo -= |DR|``.
    * both or neither map to HB: recolored pixels stay on the same side
      of the bin — no change.

    Size unchanged.  Bound-widening in every branch.  ``Modify`` validated
    both colors when it was built, so they go straight to the
    quantizer's memoized lookup.
    """
    quantizer = ctx.quantizer
    bin_index = ctx.bin_index
    old_in = quantizer.bin_of_valid(op.rgb_old) == bin_index
    new_in = quantizer.bin_of_valid(op.rgb_new) == bin_index
    if new_in and not old_in:
        return _clamped(state, state.lo, state.hi + state.dr.area, state.dr)
    if old_in and not new_in:
        return _clamped(state, state.lo - state.dr.area, state.hi, state.dr)
    return state


def apply_mutate(state: RuleState, op: Mutate, ctx: RuleContext) -> RuleState:
    """Mutate: the two Table 1 cases plus the general warp.

    * **Whole-image integer scale** ("DR contains image"): every pixel is
      replicated exactly ``M11 * M22`` times, so ``lo``, ``hi``, and the
      dimensions all multiply — the percentage interval is preserved.
    * **Any other matrix** (rigid body included): pixels move on the same
      canvas.  Colors can change only inside the union of the source DR
      and the clipped destination bounding box, so both bounds widen by
      that union's area (DESIGN.md §2 item 2 — the printed ``|DR|`` is
      widened to the union for soundness).  Size unchanged.
    """
    dr = state.dr
    if dr.is_empty:
        return state
    matrix = op.matrix
    if (
        matrix.m11 == 1.0
        and matrix.m22 == 1.0
        and matrix.m12 == 0.0
        and matrix.m21 == 0.0
        and matrix.m13 == 0.0
        and matrix.m23 == 0.0
    ):
        # Identity transform: the executor leaves every pixel in place
        # (both execution paths), so the bounds need not widen at all.
        return state
    height = state.height
    width = state.width
    if matrix.is_integer_scale() and op.is_whole_image_scale(
        dr, Rect(0, 0, height, width)
    ):
        sx = int(round(matrix.m11))
        sy = int(round(matrix.m22))
        scale = sx * sy
        new_height = height * sx
        new_width = width * sy
        return RuleState(
            state.lo * scale,
            state.hi * scale,
            new_height,
            new_width,
            Rect(0, 0, new_height, new_width),
        )

    destination = transform_rect_bbox(dr, matrix).clip(height, width)
    affected = dr.union_area_upper_bound(destination)
    return _clamped(state, state.lo - affected, state.hi + affected, destination)


def apply_merge(state: RuleState, op: Merge, ctx: RuleContext) -> RuleState:
    """Merge: Table 1's two cases, derived for the executor semantics.

    **Target NULL (crop to DR).**  The result holds exactly the DR's
    pixels, of which between ``max(0, lo - (E - |DR|))`` (bin pixels that
    cannot all hide outside the DR) and ``min(hi, |DR|)`` map to HB.

    **Target not NULL.**  The result canvas (dimensions from
    :func:`repro.editing.executor.merge_canvas_geometry`) is composed of
    three disjoint pixel populations:

    * the pasted DR — between ``max(0, lo - (E - |DR|))`` and
      ``min(hi, |DR|)`` bin pixels, as in the crop case;
    * the *visible* target pixels — the paste hides ``C`` target pixels
      (``C`` = overlap of the paste rectangle with the target), so
      between ``max(0, T_lo - C)`` and ``min(T_hi, T - C)`` visible bin
      pixels remain;
    * the expansion border — exactly ``F = total' - |DR| - T + C`` fill
      pixels, all in HB iff the fill color maps to HB.

    Summing the three intervals yields the result interval (DESIGN.md §2
    item 3).  After either form the DR resets to the whole result.
    """
    dr = state.dr
    if dr.is_empty:
        raise RuleError("Merge rule requires a non-empty Defined Region")
    dr_area = dr.area
    outside = state.total - dr_area
    dr_lo = max(0, state.lo - outside)
    dr_hi = min(state.hi, dr_area)

    if op.is_crop:
        return RuleState(
            dr_lo, dr_hi, dr.height, dr.width, Rect(0, 0, dr.height, dr.width)
        ).validate()

    if ctx.resolve_target is None:
        raise RuleError(f"Merge target {op.target_id!r} requires a target resolver")
    t_lo, t_hi, t_height, t_width = ctx.resolve_target(op.target_id, ctx.bin_index)
    t_total = t_height * t_width

    new_height, new_width, _, _ = merge_canvas_geometry(
        dr.height, dr.width, t_height, t_width, op.x, op.y
    )
    paste_rect = Rect(op.x, op.y, op.x + dr.height, op.y + dr.width)
    covered = paste_rect.clip(t_height, t_width).area
    fill_count = new_height * new_width - dr_area - t_total + covered
    fill_contrib = fill_count if ctx.fill_in_bin else 0

    lo = dr_lo + max(0, t_lo - covered) + fill_contrib
    hi = dr_hi + min(t_hi, t_total - covered) + fill_contrib
    return RuleState(
        lo, hi, new_height, new_width, Rect(0, 0, new_height, new_width)
    ).validate()


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
#: The rule of each operation class: one look-up per applied rule.
_RULES: Dict[type, Callable[[RuleState, Any, RuleContext], RuleState]] = {
    Define: apply_define,
    Combine: apply_combine,
    Modify: apply_modify,
    Mutate: apply_mutate,
    Merge: apply_merge,
}


def apply_rule(state: RuleState, op: Operation, ctx: RuleContext) -> RuleState:
    """Apply the rule for one operation."""
    rule = _RULES.get(type(op))
    if rule is None:
        raise RuleError(f"no rule for operation {op!r}")
    return rule(state, op, ctx)


def describe_rule(op: Operation) -> Tuple[str, str, str, str]:
    """Human-readable Table 1 row: (condition, min effect, max effect, total effect).

    Used by the Table 1 regeneration bench to print the rule table.
    """
    if isinstance(op, Define):
        return ("all", "no change", "no change", "no change")
    if isinstance(op, Combine):
        return ("all", "decrease by |DR|", "increase by |DR|", "no change")
    if isinstance(op, Modify):
        return (
            "RGB_new in HB / RGB_old in HB / neither",
            "no change / decrease by |DR| / no change",
            "increase by |DR| / no change / no change",
            "no change",
        )
    if isinstance(op, Mutate):
        return (
            "DR contains image (integer scale) / otherwise",
            "multiply by M11*M22 / decrease by |DR u M(DR)|",
            "multiply by M11*M22 / increase by |DR u M(DR)|",
            "multiply by M11*M22 / no change",
        )
    if isinstance(op, Merge):
        return (
            "target NULL / target not NULL",
            "|DR| - (E - HB_min) / + max(0, T_HB - C) + fill",
            "min(HB_max, |DR|) / + min(T_HB, T - C) + fill",
            "|DR| / canvas bounding-box formula",
        )
    raise RuleError(f"no rule description for {op!r}")
