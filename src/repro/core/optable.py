"""Columnar op table: one structure-of-arrays sweep over the whole catalog.

The paper's BOUNDS walk (:mod:`repro.core.rules`) is defined per
``(edit sequence, bin)`` pair, but everything a Table 1 rule consults
besides the counts — the Defined Region, the image dimensions, the Mutate
matrix classification, the Merge canvas formula — is bin-independent, and
the per-bin arithmetic is elementwise.  This module is the one production
all-bins kernel built on that: it removes the per-*bin* loop (``lo``/``hi``
are int64 rows over every bin; only Modify and the Merge fill border touch
individual elements) and the per-*image* loop (every sequence of the
catalog advances together), so a full-catalog query is a handful of numpy
dispatches per op rank instead of N × bins Python walks.

The catalog's edit sequences compile into a fixed-width structure of
arrays — one contiguous column per operation attribute, with CSR-style
``offsets`` delimiting each image's slice:

================  ======================  =====================================
column            dtype / shape           contents
================  ======================  =====================================
``codes``         int8 ``(total_ops,)``   dispatch code (``OP_DEFINE`` … )
``params``        int64 ``(ops, 4)``      rect coords / bins / scale / paste xy
``floats``        float64 ``(ops, 6)``    affine matrix ``m11 m12 m13 m21 m22 m23``
``trefs``         int32 ``(ops,)``        Merge-target slot in ``target_ids``
``offsets``       int64 ``(rows + 1,)``   row ``r`` owns ``codes[offsets[r]:offsets[r+1]]``
================  ======================  =====================================

Modify colors are pre-quantized to bin indices at compile time and Mutate
matrices are pre-classified (identity / integer axis scale / general), so
the sweep never touches a Python operation object.

:func:`sweep_table` advances *all* sequences one op-rank at a time: rows
are grouped into dependency strata (by referenced-subtree height, so a
chained base or Merge target is always finished before its dependents
start), and within a stratum each rank applies one masked, vectorized
Table-1 rule per op code to every active row at once.  The arithmetic
reproduces :mod:`repro.core.rules` branch for branch — including IEEE
evaluation order for Mutate corner transforms — so bin ``b`` of the
resulting ``(images x bins)`` interval matrix is byte-identical to the
scalar walk for ``b``, which remains the oracle (the kernel-parity
property of ``tests/core/rule_properties.py`` checks every rule case).

:class:`OpTableManager` keeps the table fresh incrementally off the
:meth:`repro.core.bounds.BoundsEngine.add_invalidation_listener` change
feed: inserts append, deletes tombstone, resaves tombstone-and-append,
and a compaction rebuild runs only when dead rows dominate.  The
fixed-width layout is deliberately mmap-friendly — the stepping stone to
format-v4 zero-copy segments (ROADMAP item 5).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
    cast,
)

import numpy as np

from repro.color.histogram import ColorHistogram
from repro.color.quantization import UniformQuantizer
from repro.editing.operations import (
    Combine,
    Define,
    Merge,
    Modify,
    Mutate,
    Operation,
)
from repro.editing.sequence import EditSequence
from repro.errors import ReproError, RuleError, UnknownObjectError
from repro.images.geometry import Rect
from repro.images.raster import ColorTuple

#: Op codes of the ``codes`` column.  Mutate pre-classifies into the three
#: branches of :func:`repro.core.rules.apply_mutate` and Merge splits on
#: crop-vs-target, so the sweep dispatches without re-deriving geometry
#: classifications per call.
OP_DEFINE = 0
OP_COMBINE = 1
OP_MODIFY = 2
OP_MUTATE_IDENTITY = 3
OP_MUTATE_SCALE = 4
OP_MUTATE_GENERAL = 5
OP_MERGE_CROP = 6
OP_MERGE_TARGET = 7

OP_CODE_NAMES: Dict[int, str] = {
    OP_DEFINE: "define",
    OP_COMBINE: "combine",
    OP_MODIFY: "modify",
    OP_MUTATE_IDENTITY: "mutate-identity",
    OP_MUTATE_SCALE: "mutate-scale",
    OP_MUTATE_GENERAL: "mutate-general",
    OP_MERGE_CROP: "merge-crop",
    OP_MERGE_TARGET: "merge-target",
}

#: ``fail(row, error)``: a per-row rule failure during a batched kernel.
#: The row index is a state row; the sweep maps it back to an image id,
#: :func:`apply_rule_batched` keeps it as is.
FailCallback = Callable[[int, RuleError], None]

#: Resolver used by the Merge-target kernel: maps the surviving rows of
#: one batched group (plus their positions in the kernel's original
#: ``rows`` argument) to target interval matrices.  Returns a boolean
#: "resolved" mask aligned with the input rows plus, for the resolved
#: subset, the targets' ``lo`` / ``hi`` rows and ``(height, width)``
#: pairs; unresolved rows must have been reported through the fail
#: callback already.
BatchTargetResolver = Callable[
    [np.ndarray, np.ndarray],
    Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
]

#: Returns ``(lo, hi, height, width)`` for a Merge target over all bins
#: at once: conservative count vectors plus exact dimensions.
AllBinsTargetResolver = Callable[[str], Tuple[np.ndarray, np.ndarray, int, int]]


@dataclass(frozen=True)
class BatchRuleContext:
    """Bin-independent inputs of :func:`apply_rule_batched`.

    Unlike the scalar :class:`repro.core.rules.RuleContext` there is no
    ``bin_index``: the kernels cover every bin.  ``resolve_target`` yields
    a Merge target's full interval matrix (may be ``None`` when the
    operations contain no non-NULL Merge).
    """

    quantizer: UniformQuantizer
    fill_color: ColorTuple = (0, 0, 0)
    resolve_target: Optional[AllBinsTargetResolver] = None

    @property
    def fill_bin(self) -> int:
        """The bin the executor's fill color maps to."""
        return self.quantizer.bin_of(self.fill_color)


class BatchRuleState:
    """Interval-walk state for many images at once (SoA mirror of
    :class:`repro.core.rules.RuleState` over every bin).

    ``lo``/``hi`` are ``(rows, bins)`` int64 matrices.  ``geometry`` is
    ``(rows, 6)`` int64: the Defined Region ``(x1, y1, x2, y2)``, with
    empty regions normalized to all zeros exactly like
    :data:`repro.images.geometry.EMPTY_RECT`, then the image ``(height,
    width)``.  ``dr``, ``heights`` and ``widths`` are views of it, so a
    kernel reads a row's whole geometry with one gather.
    """

    __slots__ = ("lo", "hi", "geometry", "dr", "heights", "widths")

    def __init__(self, lo: np.ndarray, hi: np.ndarray, geometry: np.ndarray) -> None:
        self.lo = lo
        self.hi = hi
        self.geometry = geometry
        self.dr = geometry[:, :4]
        self.heights = geometry[:, 4]
        self.widths = geometry[:, 5]

    @classmethod
    def zeros(cls, rows: int, bins: int) -> "BatchRuleState":
        """An all-zero state block for ``rows`` images over ``bins`` bins."""
        return cls(
            np.zeros((rows, bins), dtype=np.int64),
            np.zeros((rows, bins), dtype=np.int64),
            np.zeros((rows, 6), dtype=np.int64),
        )

    @classmethod
    def stack(
        cls, states: Sequence[Tuple[np.ndarray, np.ndarray, int, int, Rect]]
    ) -> "BatchRuleState":
        """Pack per-image ``(lo, hi, height, width, dr)`` tuples into rows."""
        if not states:
            raise RuleError("cannot stack an empty state batch")
        out = cls.zeros(len(states), int(np.asarray(states[0][0]).shape[0]))
        for row, (lo, hi, height, width, dr) in enumerate(states):
            out.lo[row] = np.asarray(lo, dtype=np.int64)
            out.hi[row] = np.asarray(hi, dtype=np.int64)
            out.heights[row] = int(height)
            out.widths[row] = int(width)
            out.dr[row] = _rect_to_row(dr)
        return out

    def row_state(self, row: int) -> Tuple[np.ndarray, np.ndarray, int, int, Rect]:
        """One row back out as ``(lo, hi, height, width, dr)``."""
        return (
            self.lo[row].copy(),
            self.hi[row].copy(),
            int(self.heights[row]),
            int(self.widths[row]),
            _row_to_rect(self.dr[row]),
        )


def stack_rows(vectors: Sequence[np.ndarray], bins: int) -> np.ndarray:
    """Equal-length int64 count vectors as one ``(len(vectors), bins)``
    matrix (a single concatenate: ``np.stack`` pays Python overhead per
    row, which is what the callers are getting rid of)."""
    if not vectors:
        return np.zeros((0, bins), dtype=np.int64)
    return np.concatenate(vectors).reshape(len(vectors), bins)


def _rect_to_row(rect: Rect) -> np.ndarray:
    if rect.is_empty:
        return np.zeros(4, dtype=np.int64)
    return np.array([rect.x1, rect.y1, rect.x2, rect.y2], dtype=np.int64)


def _row_to_rect(row: np.ndarray) -> Rect:
    return Rect(int(row[0]), int(row[1]), int(row[2]), int(row[3]))


def _areas(extent: np.ndarray) -> np.ndarray:
    """``height * width`` of ``(n, 2)`` extents: DR sizes or image dims."""
    return extent[:, 0] * extent[:, 1]


def _canvas(dims: np.ndarray) -> np.ndarray:
    """Geometry rows of ``(n, 2)`` new image dims whose DR is the whole
    image (what Mutate-scale and both Merges leave behind)."""
    return np.concatenate((np.zeros_like(dims), dims, dims), axis=1)


def _widen(
    state: BatchRuleState, rows: np.ndarray, amount: np.ndarray, total: np.ndarray
) -> None:
    """``lo - amount`` / ``hi + amount``, each clipped to ``[0, total]``
    (``np.clip``'s ``min(max(x, 0), total)``, in place)."""
    lo = state.lo[rows]
    lo -= amount
    np.maximum(lo, 0, out=lo)
    np.minimum(lo, total, out=lo)
    state.lo[rows] = lo
    hi = state.hi[rows]
    hi += amount
    np.maximum(hi, 0, out=hi)
    np.minimum(hi, total, out=hi)
    state.hi[rows] = hi


def _validate_rows(
    state: BatchRuleState, rows: np.ndarray, fail: FailCallback
) -> np.ndarray:
    """``0 <= lo <= hi <= total`` per bin, per row; returns the survivors.

    A failing row gets :meth:`repro.core.rules.RuleState.validate`'s
    message for its first offending bin — the bin the scalar walk, which
    runs bin by bin, raises on.
    """
    if rows.size == 0:
        return rows
    lo = state.lo[rows]
    hi = state.hi[rows]
    total = _areas(state.geometry[rows, 4:])
    bad = (lo < 0) | (lo > hi) | (hi > total[:, None])
    ok = ~bad.any(axis=1)
    if ok.all():
        return rows
    for position in np.flatnonzero(~ok):
        column = int(bad[position].argmax())
        fail(
            int(rows[position]),
            RuleError(
                f"inconsistent rule state lo={int(lo[position, column])} "
                f"hi={int(hi[position, column])} total={int(total[position])}"
            ),
        )
    return rows[ok]


# ----------------------------------------------------------------------
# Masked batched Table-1 kernels
#
# Each kernel mutates `state` in place for `rows` (state row indices)
# with per-row parameter columns, reproducing the matching scalar rule's
# branch arithmetic exactly for every bin — same clip bounds, same int64
# promotion, same IEEE float evaluation order.  They are written for few
# numpy calls: a sweep after a write runs them over a handful of rows,
# where each call costs more than its arithmetic.
# ----------------------------------------------------------------------
def _kernel_define(
    state: BatchRuleState, rows: np.ndarray, rect4: np.ndarray
) -> None:
    """Define: ``dr = rect.clip(height, width)``, bins untouched."""
    low = np.maximum(rect4[:, :2], 0)
    high = np.minimum(rect4[:, 2:], state.geometry[rows, 4:])
    dr = np.concatenate((low, high), axis=1)
    dr[(high <= low).any(axis=1)] = 0
    state.dr[rows] = dr


def _kernel_combine(state: BatchRuleState, rows: np.ndarray) -> None:
    """Combine: every DR pixel may enter or leave any bin."""
    geometry = state.geometry[rows]
    area = _areas(geometry[:, 2:4] - geometry[:, :2])
    _widen(state, rows, area[:, None], _areas(geometry[:, 4:])[:, None])


def _kernel_modify(
    state: BatchRuleState,
    rows: np.ndarray,
    old_bins: np.ndarray,
    new_bins: np.ndarray,
) -> None:
    """Modify: two-element update per row; same-bin rows are no-ops."""
    moved = old_bins != new_bins
    if not moved.all():
        rows, old_bins, new_bins = rows[moved], old_bins[moved], new_bins[moved]
        if rows.size == 0:
            return
    geometry = state.geometry[rows]
    area = _areas(geometry[:, 2:4] - geometry[:, :2])
    total = _areas(geometry[:, 4:])
    state.hi[rows, new_bins] = np.minimum(state.hi[rows, new_bins] + area, total)
    state.lo[rows, old_bins] = np.maximum(state.lo[rows, old_bins] - area, 0)


#: A DR's four corners ``(x, y)`` as ``transform_rect_bbox`` lists them:
#: ``x1`` / ``x2 - 1`` against ``y1`` / ``y2 - 1``, as columns of the DR
#: and the offsets subtracted from them.
_CORNER_X, _CORNER_DX = [0, 0, 2, 2], np.array([0, 0, 1, 1])
_CORNER_Y, _CORNER_DY = [1, 3, 1, 3], np.array([0, 1, 0, 1])


def _kernel_mutate(
    state: BatchRuleState,
    rows: np.ndarray,
    fmat: np.ndarray,
    scale: Optional[np.ndarray],
) -> None:
    """Mutate: scale / general branches, selected per row at runtime.

    ``scale`` holds the integer ``(sx, sy)`` factors of rows whose matrix
    is an integer axis scale, ``None`` for general matrices; the
    whole-image test (``dr.contains(image_bounds)``) depends on the
    evolving DR, so it is evaluated here, not at compile time.  Identity
    matrices never reach this kernel (``OP_MUTATE_IDENTITY`` is a no-op
    at dispatch), matching the scalar early return.
    """
    geometry = state.geometry[rows]
    area = _areas(geometry[:, 2:4] - geometry[:, :2])
    active = area > 0
    if not active.all():
        if not active.any():
            return
        rows, geometry, area, fmat = (
            rows[active], geometry[active], area[active], fmat[active]
        )
        scale = None if scale is None else scale[active]
    dims = geometry[:, 4:]
    if scale is not None:
        whole = ((geometry[:, :2] <= 0) & (geometry[:, 2:4] >= dims)).all(axis=1)
        if whole.any():
            sub = rows[whole]
            factors = scale[whole]
            factor = (factors[:, 0] * factors[:, 1])[:, None]
            state.lo[sub] = state.lo[sub] * factor
            state.hi[sub] = state.hi[sub] * factor
            state.geometry[sub] = _canvas(dims[whole] * factors)
            if whole.all():
                return
            general = ~whole
            rows, geometry, area, fmat = (
                rows[general], geometry[general], area[general], fmat[general]
            )
            dims = geometry[:, 4:]

    dr = geometry[:, :4]
    # Corner fan-out of transform_rect_bbox: the DR is non-empty here,
    # so the scalar max(x1, x2 - 1) clamps never fire.
    cx = (dr[:, _CORNER_X] - _CORNER_DX)[:, None, :]
    cy = (dr[:, _CORNER_Y] - _CORNER_DY)[:, None, :]
    # Rows of the matrix against the corners, (rows, 2, 4): the same
    # association as AffineMatrix.apply_point, (m*x + m*y) + m13.
    m = fmat.reshape(-1, 2, 3)
    moved = m[:, :, :1] * cx + m[:, :, 1:2] * cy + m[:, :, 2:]
    low = np.floor(moved.min(axis=2)).astype(np.int64)
    high = np.ceil(moved.max(axis=2)).astype(np.int64) + 1
    # .clip(height, width) of the bbox.
    np.maximum(low, 0, out=low)
    np.minimum(high, dims, out=high)
    empty = (high <= low).any(axis=1)
    if empty.any():
        low[empty] = 0
        high[empty] = 0
    # union_area_upper_bound: exact inclusion-exclusion.
    overlap = np.minimum(dr[:, 2:], high) - np.maximum(dr[:, :2], low)
    np.maximum(overlap, 0, out=overlap)
    affected = area + _areas(high - low) - _areas(overlap)
    _widen(state, rows, affected[:, None], _areas(dims)[:, None])
    state.dr[rows] = np.concatenate((low, high), axis=1)


def _kernel_merge_crop(
    state: BatchRuleState, rows: np.ndarray, fail: FailCallback
) -> int:
    """Merge with NULL target; returns the number of rows applied."""
    live, _, size, area, total = _merge_live_rows(state, rows, fail)
    if live.size == 0:
        return 0
    outside = (total - area)[:, None]
    state.lo[live] = np.maximum(state.lo[live] - outside, 0)
    state.hi[live] = np.minimum(state.hi[live], area[:, None])
    state.geometry[live] = _canvas(size)
    return int(_validate_rows(state, live, fail).size)


def _kernel_merge_target(
    state: BatchRuleState,
    rows: np.ndarray,
    paste: np.ndarray,
    resolve: BatchTargetResolver,
    fill_bin: int,
    fail: FailCallback,
) -> int:
    """Merge onto resolved targets at ``paste`` ``(x, y)``; returns the
    number of rows applied.

    The empty-DR check precedes target resolution, matching the scalar
    rule's raise order; ``resolve`` reports per-row resolution failures
    through ``fail`` itself and returns the surviving subset.
    """
    live, live_pos, size, area, total = _merge_live_rows(state, rows, fail)
    if live.size == 0:
        return 0
    ok, t_lo, t_hi, t_dims = resolve(live, live_pos)
    sub = live
    if not ok.all():
        sub, live_pos, size, area, total = (
            live[ok], live_pos[ok], size[ok], area[ok], total[ok]
        )
        if sub.size == 0:
            return 0
    paste = paste[live_pos]
    dr_lo = np.maximum(state.lo[sub] - (total - area)[:, None], 0)
    dr_hi = np.minimum(state.hi[sub], area[:, None])
    t_total = _areas(t_dims)
    # merge_canvas_geometry over rows, and the part of the target the
    # pasted DR covers (paste_rect.intersect(target bounds).area).
    far = paste + size
    canvas = np.maximum(far, t_dims) - np.minimum(paste, 0)
    overlap = np.minimum(far, t_dims) - np.maximum(paste, 0)
    np.maximum(overlap, 0, out=overlap)
    covered = _areas(overlap)
    fill_count = _areas(canvas) - area - t_total + covered
    lo = dr_lo + np.maximum(t_lo - covered[:, None], 0)
    hi = dr_hi + np.minimum(t_hi, (t_total - covered)[:, None])
    # Adding zero is the vectorized form of the scalar `if fill_count:`.
    lo[:, fill_bin] += fill_count
    hi[:, fill_bin] += fill_count
    state.lo[sub] = lo
    state.hi[sub] = hi
    state.geometry[sub] = _canvas(canvas)
    return int(_validate_rows(state, sub, fail).size)


def _merge_live_rows(
    state: BatchRuleState, rows: np.ndarray, fail: FailCallback
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fail the empty-DR rows of a Merge group.

    Returns ``(live, live_pos, size, area, total)``: the surviving rows,
    their positions within the original ``rows`` argument (so aligned
    per-op columns can be sliced without searching), and their DR
    ``(height, width)``, DR area and pixel total.
    """
    geometry = state.geometry[rows]
    size = geometry[:, 2:4] - geometry[:, :2]
    area = _areas(size)
    total = _areas(geometry[:, 4:])
    empty = area == 0
    if not empty.any():
        return rows, np.arange(rows.size), size, area, total
    for row in rows[empty].tolist():
        fail(row, RuleError("Merge rule requires a non-empty Defined Region"))
    live_pos = np.flatnonzero(~empty)
    return rows[live_pos], live_pos, size[live_pos], area[live_pos], total[live_pos]


def _classify_mutate(op: Mutate) -> Tuple[int, int, int]:
    """Pre-classify a Mutate into ``(code, sx, sy)`` at compile time."""
    matrix = op.matrix
    if (
        matrix.m11 == 1.0
        and matrix.m22 == 1.0
        and matrix.m12 == 0.0
        and matrix.m21 == 0.0
        and matrix.m13 == 0.0
        and matrix.m23 == 0.0
    ):
        return (OP_MUTATE_IDENTITY, 1, 1)
    if matrix.is_integer_scale():
        return (OP_MUTATE_SCALE, int(round(matrix.m11)), int(round(matrix.m22)))
    return (OP_MUTATE_GENERAL, 1, 1)


#: The ``params`` / ``floats`` row of an operation that uses neither.
_NO_PARAMS = (0, 0, 0, 0)
_NO_FLOATS = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _lower(
    op: Operation, quantizer: UniformQuantizer
) -> Tuple[int, Tuple[int, ...], Tuple[float, ...]]:
    """The one lowering of an operation: its kernel code and its
    ``params`` / ``floats`` rows, as :meth:`CatalogOpTable._compile`
    stores them and :func:`apply_rule_batched` broadcasts them."""
    if isinstance(op, Define):
        rect = op.rect
        return OP_DEFINE, (rect.x1, rect.y1, rect.x2, rect.y2), _NO_FLOATS
    if isinstance(op, Combine):
        return OP_COMBINE, _NO_PARAMS, _NO_FLOATS
    if isinstance(op, Modify):
        old_bin = quantizer.bin_of(op.rgb_old)
        new_bin = quantizer.bin_of(op.rgb_new)
        return OP_MODIFY, (old_bin, new_bin, 0, 0), _NO_FLOATS
    if isinstance(op, Mutate):
        code, sx, sy = _classify_mutate(op)
        m = op.matrix
        return code, (sx, sy, 0, 0), (m.m11, m.m12, m.m13, m.m21, m.m22, m.m23)
    if isinstance(op, Merge):
        code = OP_MERGE_CROP if op.is_crop else OP_MERGE_TARGET
        return code, (op.x, op.y, 0, 0), _NO_FLOATS
    raise RuleError(f"no rule for operation {op!r}")


def _apply_code(
    state: BatchRuleState,
    code: int,
    rows: np.ndarray,
    params: np.ndarray,
    floats: np.ndarray,
    idx: np.ndarray,
    resolver: Callable[[], BatchTargetResolver],
    fill_bin: int,
    fail: FailCallback,
) -> None:
    """The one code → kernel dispatch: run op ``code`` on ``rows``, whose
    lowered rows are ``params[idx]`` / ``floats[idx]``.  Each caller
    brings its own Merge-target ``resolver`` (built only when needed)."""
    if code == OP_DEFINE:
        _kernel_define(state, rows, params[idx])
    elif code == OP_COMBINE:
        _kernel_combine(state, rows)
    elif code == OP_MODIFY:
        lowered = params[idx]
        _kernel_modify(state, rows, lowered[:, 0], lowered[:, 1])
    elif code == OP_MUTATE_IDENTITY:
        pass
    elif code == OP_MUTATE_SCALE:
        _kernel_mutate(state, rows, floats[idx], params[idx, :2])
    elif code == OP_MUTATE_GENERAL:
        _kernel_mutate(state, rows, floats[idx], None)
    elif code == OP_MERGE_CROP:
        _kernel_merge_crop(state, rows, fail)
    elif code == OP_MERGE_TARGET:
        _kernel_merge_target(
            state, rows, params[idx, :2], resolver(), fill_bin, fail
        )
    else:  # pragma: no cover — lowering assigns only known codes
        raise RuleError(f"unknown op code {code}")


def apply_rule_batched(
    state: BatchRuleState,
    rows: np.ndarray,
    op: Operation,
    ctx: BatchRuleContext,
) -> Dict[int, RuleError]:
    """Apply one operation's batched kernel to ``rows`` of ``state``.

    The single-op entry of
    :meth:`repro.core.bounds.BoundsEngine.walk_states` and of the
    kernel-parity property in ``tests/core``: ``op`` goes through the
    sweep's own lowering and dispatch (only the Merge-target resolver is
    this function's), so parity checked over it covers the shipped
    sweep.  Returns per-row :class:`RuleError` failures keyed by row
    index (empty when every row applied cleanly); failed rows' state is
    unspecified, matching the scalar walk where a raise abandons the
    image.
    """
    errors: Dict[int, RuleError] = {}

    def fail(row: int, error: RuleError) -> None:
        errors[row] = error

    def resolve(
        live: np.ndarray, positions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        target_id = str(cast(Merge, op).target_id)
        bins = state.lo.shape[1]
        ok = np.zeros(live.size, dtype=bool)
        empty = np.zeros((0, bins), dtype=np.int64)
        none = np.zeros((0, 2), dtype=np.int64)
        if ctx.resolve_target is None:
            for row in live:
                fail(
                    int(row),
                    RuleError(
                        f"Merge target {target_id!r} requires a target resolver"
                    ),
                )
            return (ok, empty, empty, none)
        try:
            t_lo, t_hi, t_height, t_width = ctx.resolve_target(target_id)
        except RuleError as exc:
            for row in live:
                fail(int(row), exc)
            return (ok, empty, empty, none)
        ok[:] = True
        return (
            ok,
            np.broadcast_to(np.asarray(t_lo, dtype=np.int64), (live.size, bins)),
            np.broadcast_to(np.asarray(t_hi, dtype=np.int64), (live.size, bins)),
            np.broadcast_to(
                np.array([int(t_height), int(t_width)], dtype=np.int64),
                (live.size, 2),
            ),
        )

    code, params, floats = _lower(op, ctx.quantizer)
    _apply_code(
        state,
        code,
        rows,
        np.array([params], dtype=np.int64),
        np.array([floats], dtype=np.float64),
        np.zeros(rows.size, dtype=np.int64),  # every row reads the one op
        lambda: resolve,
        ctx.fill_bin,
        fail,
    )
    return errors


# ----------------------------------------------------------------------
# The columnar table
# ----------------------------------------------------------------------
@dataclass
class _RowOps:
    """One compiled edit sequence (the pre-seal row granule)."""

    codes: np.ndarray
    params: np.ndarray
    floats: np.ndarray
    trefs: np.ndarray


class CatalogOpTable:
    """Append-friendly structure-of-arrays over every edit sequence.

    Rows are append-only with tombstones: an insert appends a compiled
    row, a delete drops the id from ``row_of`` (its row stays, dead),
    and a resave is tombstone-then-append (``row_of`` always points at
    the live row).  :meth:`seal` materializes the contiguous columns,
    copying only rows added since the previous seal; :meth:`compact`
    rebuilds from live rows once tombstones dominate.  ``version`` bumps
    on every structural change so sweep plans can be cached against it.
    """

    def __init__(self, quantizer: UniformQuantizer) -> None:
        self._quantizer = quantizer
        self.image_ids: List[str] = []
        self.base_ids: List[str] = []
        self.row_of: Dict[str, int] = {}
        self.target_ids: List[str] = []
        self._target_index: Dict[str, int] = {}
        self._refs: List[Tuple[str, ...]] = []
        self._sequences: List[EditSequence] = []
        self._row_ops: List[_RowOps] = []
        self.version = 0
        #: Total sequence compilations ever — the append-friendliness
        #: metric (an insert must cost exactly one compile).
        self.compiled_rows = 0
        self._sealed_rows = 0
        #: The columns are prefix views of buffers with spare room (a
        #: quarter more when one fills), so a seal after one upsert
        #: copies that row's ops and not the whole table.
        self._buffers: Dict[str, np.ndarray] = {}
        self.codes = np.zeros(0, dtype=np.int8)
        self.params = np.zeros((0, 4), dtype=np.int64)
        self.floats = np.zeros((0, 6), dtype=np.float64)
        self.trefs = np.zeros(0, dtype=np.int32)
        self.offsets = np.zeros(1, dtype=np.int64)
        #: Single-slot scheduling cache: repeat sweeps over an unchanged
        #: table and wanted set skip the reachability/stratification work.
        self._sweep_plan: Optional["_SweepPlan"] = None

    @property
    def quantizer(self) -> UniformQuantizer:
        """The quantizer Modify colors were compiled against."""
        return self._quantizer

    @property
    def row_count(self) -> int:
        """All rows ever appended, tombstoned ones included."""
        return len(self.image_ids)

    @property
    def live_count(self) -> int:
        """Rows that currently describe a catalog image."""
        return len(self.row_of)

    @property
    def dead_count(self) -> int:
        """Tombstoned rows awaiting compaction."""
        return self.row_count - self.live_count

    def upsert(self, image_id: str, sequence: EditSequence) -> int:
        """Insert or replace ``image_id``'s row; returns the new row index."""
        self.remove(image_id)
        row_ops, refs = self._compile(sequence)
        row = len(self.image_ids)
        self.image_ids.append(image_id)
        self.base_ids.append(sequence.base_id)
        self._refs.append(refs)
        self._sequences.append(sequence)
        self._row_ops.append(row_ops)
        self.row_of[image_id] = row
        self.version += 1
        self.compiled_rows += 1
        return row

    def remove(self, image_id: str) -> bool:
        """Tombstone ``image_id``'s row; False when it has no live row."""
        if self.row_of.pop(image_id, None) is None:
            return False
        self.version += 1
        return True

    def refs_of(self, image_id: str) -> Tuple[str, ...]:
        """Base id followed by Merge-target ids in operation order."""
        row = self.row_of.get(image_id)
        if row is None:
            raise UnknownObjectError(f"no op-table row for {image_id!r}")
        return self._refs[row]

    def sequence_of(self, image_id: str) -> EditSequence:
        """The sequence ``image_id``'s live row was compiled from."""
        row = self.row_of.get(image_id)
        if row is None:
            raise UnknownObjectError(f"no op-table row for {image_id!r}")
        return self._sequences[row]

    def refs_of_row(self, row: int) -> Tuple[str, ...]:
        """Like :meth:`refs_of` by row index (tombstoned rows included)."""
        return self._refs[row]

    def clear(self) -> None:
        """Drop every row (the full-invalidation path)."""
        version = self.version
        compiled = self.compiled_rows
        self.__init__(self._quantizer)  # noqa: PLC2801 — deliberate reset
        self.version = version + 1
        self.compiled_rows = compiled

    def seal(self) -> None:
        """Materialize the contiguous columns for rows added since last seal."""
        if self._sealed_rows == len(self._row_ops):
            return
        fresh = self._row_ops[self._sealed_rows :]
        self.codes = self._extend("codes", self.codes, [r.codes for r in fresh])
        self.params = self._extend("params", self.params, [r.params for r in fresh])
        self.floats = self._extend("floats", self.floats, [r.floats for r in fresh])
        self.trefs = self._extend("trefs", self.trefs, [r.trefs for r in fresh])
        lengths = np.array([len(r.codes) for r in fresh], dtype=np.int64)
        self.offsets = self._extend(
            "offsets", self.offsets, [self.offsets[-1] + np.cumsum(lengths)]
        )
        self._sealed_rows = len(self._row_ops)

    def _extend(
        self, name: str, column: np.ndarray, blocks: List[np.ndarray]
    ) -> np.ndarray:
        """``column`` with ``blocks`` appended, as a prefix view of its
        buffer.  Views handed out earlier stay valid: they end where the
        new rows begin, and a grown buffer is a new array."""
        used = len(column)
        block = np.concatenate(blocks)
        end = used + len(block)
        buffer = self._buffers.get(name)
        if buffer is None or len(buffer) < end:
            capacity = max(end + end // 4, 64)
            buffer = np.empty((capacity,) + column.shape[1:], column.dtype)
            buffer[:used] = column
            self._buffers[name] = buffer
        buffer[used:end] = block
        return buffer[:end]

    def compact(self) -> None:
        """Rebuild the table from live rows, dropping tombstones."""
        live = [
            (
                self.image_ids[row],
                self.base_ids[row],
                self._refs[row],
                self._sequences[row],
                self._row_ops[row],
            )
            for row in sorted(self.row_of.values())
        ]
        quantizer = self._quantizer
        target_ids = self.target_ids
        target_index = self._target_index
        version = self.version
        compiled = self.compiled_rows
        self.__init__(quantizer)  # noqa: PLC2801 — deliberate reset
        self.target_ids = target_ids
        self._target_index = target_index
        self.compiled_rows = compiled
        for image_id, base_id, refs, sequence, ops in live:
            row = len(self.image_ids)
            self.image_ids.append(image_id)
            self.base_ids.append(base_id)
            self._refs.append(refs)
            self._sequences.append(sequence)
            self._row_ops.append(ops)
            self.row_of[image_id] = row
        self.version = version + 1

    def _target_slot(self, target_id: str) -> int:
        slot = self._target_index.get(target_id)
        if slot is None:
            slot = len(self.target_ids)
            self.target_ids.append(target_id)
            self._target_index[target_id] = slot
        return slot

    def _compile(
        self, sequence: EditSequence
    ) -> Tuple[_RowOps, Tuple[str, ...]]:
        """Lower one edit sequence into fixed-width column rows."""
        count = len(sequence.operations)
        codes = np.zeros(count, dtype=np.int8)
        params = np.zeros((count, 4), dtype=np.int64)
        floats = np.zeros((count, 6), dtype=np.float64)
        trefs = np.full(count, -1, dtype=np.int32)
        refs: List[str] = [sequence.base_id]
        for rank, op in enumerate(sequence.operations):
            code, op_params, op_floats = _lower(op, self._quantizer)
            codes[rank] = code
            if op_params is not _NO_PARAMS:
                params[rank] = op_params
            if op_floats is not _NO_FLOATS:
                floats[rank] = op_floats
            if code == OP_MERGE_TARGET:
                target_id = str(cast(Merge, op).target_id)
                trefs[rank] = self._target_slot(target_id)
                refs.append(target_id)
        return (_RowOps(codes, params, floats, trefs), tuple(refs))


# ----------------------------------------------------------------------
# The full-catalog sweep
# ----------------------------------------------------------------------
@dataclass
class SweepOutcome:
    """Everything one batched sweep produced.

    ``lo`` / ``hi`` (``swept rows x bins``) and ``heights`` / ``widths``
    are the sweep's read-only state matrices, one row per image the
    sweep computed (``swept_ids``, in table order); ``rows[i]`` is the
    state row of the ``i``-th requested id, so ``lo[rows]`` is the
    requested block in request order and :meth:`view` hands out one
    id's ``(lo, hi, height, width)`` —
    :data:`repro.core.bounds.AllBinsBounds` — on demand.  ``failures``
    holds the exact per-image error the scalar walk would have raised
    (a requested id the table has no row for fails too, with ``rows[i]``
    left at ``-1``); ``swept_ids`` lists every row actually computed
    (requested images plus transitive edited references) for dependency
    registration; ``ops_applied`` counts successful rule applications,
    the §5 work metric.
    """

    lo: np.ndarray
    hi: np.ndarray
    heights: np.ndarray
    widths: np.ndarray
    rows: np.ndarray
    failures: Dict[str, ReproError]
    swept_ids: Tuple[str, ...]
    ops_applied: int

    def view(self, position: int) -> Tuple[np.ndarray, np.ndarray, int, int]:
        """The ``position``-th requested id's interval as read-only views."""
        row = self.rows[position]
        return (
            self.lo[row],
            self.hi[row],
            int(self.heights[row]),
            int(self.widths[row]),
        )


#: One dispatch of a stratum: op ``code`` applied to state ``rows``,
#: whose ops sit at ``idx`` in the table columns.
_OpGroup = Tuple[int, np.ndarray, np.ndarray]


@dataclass
class _StratumPlan:
    """One dependency stratum: how each row seeds and which ops it runs.

    Rows here are *state* rows of the sweep, not table rows.
    ``binary_rows`` start from a base that has no table row (a binary
    image, or an id the store will reject): ``binary_ids`` are their
    distinct base ids and ``binary_src[i]`` indexes the one
    ``binary_rows[i]`` reads.  ``chained_rows`` start from the finished
    interval of state row ``chained_base[i]``, whose reference height is
    ``chained_height[i]`` (inf marks a cycle).  ``groups`` are the
    stratum's ops, rank by rank and, within a rank, by op code.
    """

    rows: np.ndarray
    binary_rows: np.ndarray
    binary_ids: Tuple[str, ...]
    binary_src: np.ndarray
    chained_rows: np.ndarray
    chained_base: np.ndarray
    chained_height: np.ndarray
    groups: List[_OpGroup]


@dataclass
class _SweepPlan:
    """Scheduling artifacts of one (table version, request).

    The sweep computes only the rows its request reaches, so its state
    has one row per ``swept_ids`` entry (table order) and ``row_of``
    maps an id to its state row.  Reachability, stratification, how
    each stratum's rows seed, its op groups and which row answers which
    requested id are pure functions of the table structure and the
    request, so a repeat sweep — the steady state once the table is
    compiled — reuses them and goes straight to fetching base
    histograms and kernel dispatch.  Nothing here depends on store
    *data* or on the per-call ``max_depth``; everything is read-only
    during a sweep.
    """

    version: int
    wanted: Tuple[str, ...]
    wanted_rows: np.ndarray
    swept_ids: Tuple[str, ...]
    row_of: Dict[str, int]
    heights: np.ndarray
    strata: List[_StratumPlan]


def _plan_sweep(table: CatalogOpTable, wanted: Tuple[str, ...]) -> _SweepPlan:
    """The plan of a sweep for ``wanted`` over ``table`` (sealed)."""
    rows = _needed_rows(table, wanted)
    swept_ids = tuple(table.image_ids[row] for row in rows)
    row_of = {image_id: state_row for state_row, image_id in enumerate(swept_ids)}
    refs = [table.refs_of_row(row) for row in rows]
    # Each row's references that are themselves swept, as state rows.
    children = [[row_of[ref] for ref in each if ref in row_of] for each in refs]
    heights = _ref_heights(children)
    table_rows = np.array(rows, dtype=np.int64)
    strata = [
        _stratum_plan(table, stratum, table_rows[stratum], refs, row_of, heights)
        for stratum in _strata(refs, row_of, heights)
    ]
    return _SweepPlan(
        version=table.version,
        wanted=wanted,
        wanted_rows=np.array([row_of.get(i, -1) for i in wanted], dtype=np.int64),
        swept_ids=swept_ids,
        row_of=row_of,
        heights=heights,
        strata=strata,
    )


def _needed_rows(table: CatalogOpTable, wanted: Sequence[str]) -> List[int]:
    """Table rows reachable from the wanted ids through live references."""
    seen: Set[int] = set()
    stack = [table.row_of[image_id] for image_id in wanted if image_id in table.row_of]
    while stack:
        row = stack.pop()
        if row in seen:
            continue
        seen.add(row)
        for ref in table.refs_of_row(row):
            ref_row = table.row_of.get(ref)
            if ref_row is not None and ref_row not in seen:
                stack.append(ref_row)
    return sorted(seen)


def _ref_heights(children: List[List[int]]) -> np.ndarray:
    """Longest ref-path (edges) to a leaf per row; inf marks cycles."""
    waiting = [len(each) for each in children]
    dependents: Dict[int, List[int]] = {}
    for row, each in enumerate(children):
        for child in each:
            dependents.setdefault(child, []).append(row)
    heights = np.full(len(children), math.inf)
    ready = [row for row, count in enumerate(waiting) if count == 0]
    while ready:
        row = ready.pop()
        below = (heights[child] for child in children[row])
        heights[row] = 1.0 + max(below, default=0.0)
        for dependent in dependents.get(row, ()):
            waiting[dependent] -= 1
            if waiting[dependent] == 0:
                ready.append(dependent)
    return heights


def _base_chain_height(
    row: int,
    refs: List[Tuple[str, ...]],
    row_of: Dict[str, int],
    memo: Dict[int, float],
) -> float:
    """Height along base edges only; inf for base-chain cycles."""
    chain: List[int] = []
    on_chain: Set[int] = set()
    current: Optional[int] = row
    while current is not None and current not in memo:
        if current in on_chain:
            for member in chain:
                memo[member] = math.inf
            break
        chain.append(current)
        on_chain.add(current)
        current = row_of.get(refs[current][0])
    for member in reversed(chain):
        if member in memo:
            continue
        base_row = row_of.get(refs[member][0])
        memo[member] = 1.0 if base_row is None else 1.0 + memo.get(base_row, math.inf)
    return memo[row]


def _strata(
    refs: List[Tuple[str, ...]], row_of: Dict[str, int], heights: np.ndarray
) -> List[np.ndarray]:
    """Dependency-safe batches of state rows: references always land in
    earlier ones."""
    finite: Dict[float, List[int]] = {}
    infinite: List[int] = []
    for row, height in enumerate(heights.tolist()):
        if math.isinf(height):
            infinite.append(row)
        else:
            finite.setdefault(height, []).append(row)
    strata = [np.array(finite[height], dtype=np.int64) for height in sorted(finite)]
    if infinite:
        # Rows above reference cycles still need their base values in
        # order, so batch them by base-chain height; base-cycle rows
        # fail at init and can share the final batch.
        memo: Dict[int, float] = {}
        buckets: Dict[float, List[int]] = {}
        tail: List[int] = []
        for row in infinite:
            chain_height = _base_chain_height(row, refs, row_of, memo)
            if math.isinf(chain_height):
                tail.append(row)
            else:
                buckets.setdefault(chain_height, []).append(row)
        strata.extend(
            np.array(buckets[height], dtype=np.int64) for height in sorted(buckets)
        )
        if tail:
            strata.append(np.array(tail, dtype=np.int64))
    return strata


def _stratum_plan(
    table: CatalogOpTable,
    rows: np.ndarray,
    table_rows: np.ndarray,
    refs: List[Tuple[str, ...]],
    row_of: Dict[str, int],
    heights: np.ndarray,
) -> _StratumPlan:
    """Split a stratum by where each row's starting interval comes from,
    and group its ops for dispatch."""
    binary_rows: List[int] = []
    binary_src: List[int] = []
    binary_slot: Dict[str, int] = {}
    chained_rows: List[int] = []
    chained_base: List[int] = []
    for row in rows.tolist():
        base_id = refs[row][0]
        base_row = row_of.get(base_id)
        if base_row is None:
            binary_rows.append(row)
            binary_src.append(binary_slot.setdefault(base_id, len(binary_slot)))
        else:
            chained_rows.append(row)
            chained_base.append(base_row)
    chained = np.array(chained_base, dtype=np.int64)
    return _StratumPlan(
        rows=rows,
        binary_rows=np.array(binary_rows, dtype=np.int64),
        binary_ids=tuple(binary_slot),
        binary_src=np.array(binary_src, dtype=np.int64),
        chained_rows=np.array(chained_rows, dtype=np.int64),
        chained_base=chained,
        chained_height=heights[chained],
        groups=_op_groups(table, rows, table_rows),
    )


def _op_groups(
    table: CatalogOpTable, rows: np.ndarray, table_rows: np.ndarray
) -> List[_OpGroup]:
    """Every op of ``rows`` grouped by (rank, code), ranks in order.

    One stable sort of the flattened ops on ``rank * codes + code``: the
    groups come out rank by rank and code by code, rows in order within
    each, so the sweep dispatches them as they come.
    """
    starts = table.offsets[table_rows]
    lengths = table.offsets[table_rows + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return []
    rank = np.arange(total) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    idx = np.repeat(starts, lengths) + rank
    codes = table.codes[idx]
    key = rank * len(OP_CODE_NAMES) + codes
    order = np.argsort(key, kind="stable")
    key, idx, op_rows = key[order], idx[order], np.repeat(rows, lengths)[order]
    cuts = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), total]
    return [
        (int(key[start]) % len(OP_CODE_NAMES), op_rows[start:end], idx[start:end])
        for start, end in zip(cuts, cuts[1:])
    ]


class _Sweep:
    """One sweep execution: init, rank dispatch, errors.

    Its state holds only the rows the request reaches (the plan's
    ``swept_ids``), so a sweep over a few rows pays for those rows,
    not for the table.
    """

    def __init__(
        self,
        table: CatalogOpTable,
        store: "BoundsStoreLike",
        fill_color: ColorTuple,
        max_depth: int,
        wanted: Sequence[str],
    ) -> None:
        table.seal()
        self.table = table
        self.store = store
        self.max_depth = max_depth
        self.bins = table.quantizer.bin_count
        self.fill_bin = table.quantizer.bin_of(fill_color)
        wanted = tuple(wanted)
        plan = table._sweep_plan
        if plan is None or plan.version != table.version or plan.wanted != wanted:
            plan = table._sweep_plan = _plan_sweep(table, wanted)
        self.plan = plan
        rows = len(plan.swept_ids)
        self.state = BatchRuleState.zeros(rows, self.bins)
        self.failed: Dict[int, ReproError] = {}
        self.failed_mask = np.zeros(rows, dtype=bool)
        self.done = np.zeros(rows, dtype=bool)
        self.ops_applied = 0
        self._binary_memo: Dict[
            str, Union[Tuple[np.ndarray, int, int], ReproError]
        ] = {}

    # -- structural error replay ---------------------------------------
    def _fetch_binary(
        self, image_id: str
    ) -> Union[Tuple[np.ndarray, int, int], ReproError]:
        cached = self._binary_memo.get(image_id)
        if cached is not None:
            return cached
        result: Union[Tuple[np.ndarray, int, int], ReproError]
        try:
            record = self.store.lookup_for_bounds(image_id)
        except ReproError as exc:
            result = exc
        else:
            if isinstance(record, tuple):
                histogram, height, width = record
                result = (histogram.counts, height, width)
            elif isinstance(record, EditSequence):
                # The coverage fixpoint should have compiled this row;
                # reaching here means the table is stale mid-sweep.
                result = RuleError(
                    f"op table has no row for edited image {image_id!r}"
                )
            else:
                result = UnknownObjectError(
                    f"unexpected store record for {image_id!r}"
                )
        self._binary_memo[image_id] = result
        return result

    def _structural_error(
        self, image_id: str, visiting: FrozenSet[str], depth: int
    ) -> Optional[ReproError]:
        """Replay the scalar walk's structural checks from ``image_id``.

        Mirrors the scalar walk's order (``_ScalarWalk.image`` in
        :mod:`repro.core.bounds`) — cyclic check, then depth, then store
        lookup, then base-first/targets-in-op-order recursion — so cycle,
        depth, and unknown-id failures surface with the exact message the
        scalar walk raises.  Returns None when the walk is
        structurally sound (any remaining failure is a rule error owned
        by some referenced row).
        """
        try:
            self._structural_visit(image_id, visiting, depth)
        except ReproError as exc:
            return exc
        return None

    def _structural_visit(
        self, image_id: str, visiting: FrozenSet[str], depth: int
    ) -> None:
        if image_id in visiting:
            raise RuleError(f"cyclic Merge reference through {image_id!r}")
        if depth <= 0:
            raise RuleError(
                f"Merge recursion deeper than {self.max_depth} at {image_id!r}"
            )
        row = self.table.row_of.get(image_id)
        if row is None:
            fetched = self._fetch_binary(image_id)
            if isinstance(fetched, ReproError):
                raise fetched
            return
        inner = visiting | {image_id}
        for ref in self.table.refs_of_row(row):
            self._structural_visit(ref, inner, depth - 1)

    # -- execution ------------------------------------------------------
    def run(self) -> SweepOutcome:
        plan = self.plan
        for stratum in plan.strata:
            self._run_stratum(stratum)
        # The state matrices outlive the sweep as the outcome, handed out
        # whole (and as per-row views), so nothing may write to them.
        state = self.state
        for column in (state.lo, state.hi, state.heights, state.widths):
            column.setflags(write=False)
        failures: Dict[str, ReproError] = {
            plan.swept_ids[row]: self.failed[row] for row in sorted(self.failed)
        }
        for position in np.flatnonzero(plan.wanted_rows < 0).tolist():
            image_id = plan.wanted[position]
            failures[image_id] = RuleError(f"op table has no row for {image_id!r}")
        return SweepOutcome(
            lo=state.lo,
            hi=state.hi,
            heights=state.heights,
            widths=state.widths,
            rows=plan.wanted_rows,
            failures=failures,
            swept_ids=plan.swept_ids,
            ops_applied=self.ops_applied,
        )

    def _fail(self, row: int, error: ReproError) -> None:
        if row not in self.failed:
            self.failed[row] = error
            self.failed_mask[row] = True

    def _fetch_counts(
        self, image_ids: Sequence[str]
    ) -> Tuple[np.ndarray, np.ndarray, Dict[int, ReproError]]:
        """Stack the stored histograms of ``image_ids``, one fetch each.

        Returns ``(counts, dims, errors)`` aligned with ``image_ids``,
        ``dims`` as ``(height, width)`` rows; an id the store cannot
        serve as a binary image gets all-zero rows and an entry in
        ``errors`` by position.
        """
        vectors: List[np.ndarray] = []
        dims: List[Tuple[int, int]] = []
        errors: Dict[int, ReproError] = {}
        for position, image_id in enumerate(image_ids):
            fetched = self._fetch_binary(image_id)
            if isinstance(fetched, ReproError):
                errors[position] = fetched
                fetched = (np.zeros(self.bins, dtype=np.int64), 0, 0)
            vectors.append(fetched[0])
            dims.append(fetched[1:])
        return (
            stack_rows(vectors, self.bins),
            np.array(dims, dtype=np.int64).reshape(-1, 2),
            errors,
        )

    def _init_rows(self, stratum: _StratumPlan) -> None:
        """Seed each row from its base image's interval (or fail it).

        The split into binary-based and chained rows is the plan's; what
        is read here is data: base histograms come from the store on
        every sweep, and a chained row inherits whatever its base row
        just computed.
        """
        state = self.state
        rows = stratum.binary_rows
        if rows.size and self.max_depth < 2:
            for row in rows.tolist():
                self._fail_structurally(row)
        elif rows.size:
            counts, dims, errors = self._fetch_counts(stratum.binary_ids)
            src = stratum.binary_src
            for position, error in errors.items():
                for row in rows[src == position].tolist():
                    self._fail(row, error)
            seeded = counts[src]
            state.lo[rows] = seeded
            state.hi[rows] = seeded
            state.geometry[rows] = _canvas(dims[src])
        rows = stratum.chained_rows
        if rows.size:
            # The base is walked before any op, so base-chain cycles,
            # depth overruns, and failed bases surface at init; a row's
            # *own* cyclic or too-deep Merge targets must wait for their
            # op rank (scalar raise order).
            src = stratum.chained_base
            bad = self.failed_mask[src] | (
                stratum.chained_height > self.max_depth - 2
            )
            if bad.any():
                for row, base_row in zip(rows[bad].tolist(), src[bad].tolist()):
                    self._fail_structurally(row, inherited_from=base_row)
                rows = rows[~bad]
                src = src[~bad]
            state.lo[rows] = state.lo[src]
            state.hi[rows] = state.hi[src]
            state.geometry[rows] = _canvas(state.geometry[src, 4:])

    def _fail_structurally(
        self, row: int, inherited_from: Optional[int] = None
    ) -> None:
        image_id = self.plan.swept_ids[row]
        error = self._structural_error(image_id, frozenset(), self.max_depth)
        if error is None and inherited_from is not None:
            error = self.failed.get(inherited_from)
        if error is None:
            error = RuleError(
                f"unresolvable base chain for {image_id!r}"
            )  # pragma: no cover — defensive; structural walk finds real causes
        self._fail(row, error)

    def _run_stratum(self, stratum: _StratumPlan) -> None:
        self._init_rows(stratum)
        for code, rows, idx in stratum.groups:
            if self.failed:
                # A row that failed (at init or an earlier rank) is done.
                keep = ~self.failed_mask[rows]
                rows, idx = rows[keep], idx[keep]
                if rows.size == 0:
                    continue
            self._dispatch(code, rows, idx)
        # The walk's final ``state.validate()``, once per stratum: no row
        # of a stratum reads another's result before the stratum ends.
        rows = stratum.rows
        if self.failed:
            rows = rows[~self.failed_mask[rows]]
        self.done[_validate_rows(self.state, rows, self._fail)] = True

    def _dispatch(self, code: int, rows: np.ndarray, idx: np.ndarray) -> None:
        table = self.table
        before = len(self.failed)
        _apply_code(
            self.state,
            code,
            rows,
            table.params,
            table.floats,
            idx,
            lambda: self._make_target_resolver(idx),
            self.fill_bin,
            self._fail,
        )
        self.ops_applied += rows.size - (len(self.failed) - before)

    def _make_target_resolver(self, idx: np.ndarray) -> BatchTargetResolver:
        """Resolver over the sweep's computed rows and binary store data."""
        table = self.table
        plan = self.plan

        def resolve(
            live: np.ndarray, positions: np.ndarray
        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
            # Classify the distinct targets once, then gather: swept
            # targets out of the state matrices, binary targets out of
            # the store, one row per distinct target that resolves.
            distinct: Dict[int, int] = {}
            member_of = np.array(
                [
                    distinct.setdefault(slot, len(distinct))
                    for slot in table.trefs[idx[positions]].tolist()
                ],
                dtype=np.int64,
            )
            state = self.state
            at = np.full(len(distinct), -1, dtype=np.int64)
            lows: List[np.ndarray] = []
            highs: List[np.ndarray] = []
            dims: List[Tuple[int, int]] = []
            for index, slot in enumerate(distinct):
                target_id = table.target_ids[slot]
                target = plan.row_of.get(target_id)
                error: Optional[ReproError] = None
                if target is None:
                    fetched = self._fetch_binary(target_id)
                    if isinstance(fetched, ReproError):
                        error = fetched
                    else:
                        counts, height, width = fetched
                        at[index] = len(lows)
                        lows.append(counts)
                        highs.append(counts)
                        dims.append((height, width))
                elif (
                    plan.heights[target] <= self.max_depth - 2
                    and self.done[target]
                    and target not in self.failed
                ):
                    at[index] = len(lows)
                    lows.append(state.lo[target])
                    highs.append(state.hi[target])
                    height, width = state.geometry[target, 4:].tolist()
                    dims.append((height, width))
                if at[index] < 0:
                    for row in live[member_of == index].tolist():
                        if error is None:
                            self._fail(row, self._target_error(target_id, target, row))
                        else:
                            self._fail(row, error)
            sel = at[member_of]
            resolved = sel >= 0
            sel = sel[resolved]
            return (
                resolved,
                stack_rows(lows, self.bins)[sel],
                stack_rows(highs, self.bins)[sel],
                np.array(dims, dtype=np.int64).reshape(-1, 2)[sel],
            )

        return resolve

    def _target_error(
        self, target_id: str, target: Optional[int], row: int
    ) -> ReproError:
        """Why state ``row`` cannot read swept ``target``: the structural
        replay, which the scalar walk runs with the *source* image in its
        visiting set, else the target's own failure."""
        error = self._structural_error(
            target_id, frozenset({self.plan.swept_ids[row]}), self.max_depth - 1
        )
        if error is None and target is not None:
            error = self.failed.get(target)
        if error is None:  # pragma: no cover — defensive
            error = RuleError(f"unresolvable Merge target {target_id!r}")
        return error


class BoundsStoreLike:
    """Structural stand-in for :class:`repro.core.bounds.BoundsStore`.

    Declared here (rather than imported) to keep ``optable`` importable
    from ``bounds`` without a cycle; any object with the catalog's
    ``lookup_for_bounds`` contract works.
    """

    def lookup_for_bounds(
        self, image_id: str
    ) -> Union[Tuple[ColorHistogram, int, int], EditSequence]:
        """``(histogram, h, w)`` for binary images, sequence for edited."""
        raise NotImplementedError


def sweep_table(
    table: CatalogOpTable,
    store: BoundsStoreLike,
    wanted: Sequence[str],
    fill_color: ColorTuple = (0, 0, 0),
    max_depth: int = 8,
) -> SweepOutcome:
    """Compute all-bins BOUNDS for ``wanted`` rows in one batched sweep.

    The engine resolves binary and unknown ids before sweeping, so a
    ``wanted`` id without a table row is a failure like any other; every
    other id's interval is a row of the outcome's matrices.
    """
    return _Sweep(table, store, fill_color, max_depth, wanted).run()


class OpTableManager:
    """Keeps a :class:`CatalogOpTable` fresh off the engine's change feed.

    Subscribe :meth:`on_invalidation` via
    :meth:`repro.core.bounds.BoundsEngine.add_invalidation_listener`;
    every catalog mutation then marks the image dirty and the next
    :meth:`compute` reconciles just those rows — recompile on resave
    (not when the sequence is the one compiled: an in-place change such
    as a compactor roll-back leaves the row as it is), tombstone on
    delete, full reset on a whole-cache flush — before
    extending coverage to any newly referenced sequences and sweeping.
    Thread-safe for concurrent readers: the service serializes writers,
    but multiple query threads may trigger coverage compiles at once.
    """

    def __init__(
        self, store: BoundsStoreLike, quantizer: UniformQuantizer
    ) -> None:
        self._store = store
        self._table = CatalogOpTable(quantizer)
        self._dirty: Set[str] = set()
        self._full_dirty = False
        #: ``(table version, requested ids)`` the coverage fixpoint last
        #: ran for; while nothing is dirty it need not run for them again.
        self._covered: Optional[Tuple[int, Tuple[str, ...]]] = None
        self._lock = threading.Lock()
        #: Reconciliation counters for observability and tests.
        self.recompiled = 0
        self.tombstoned = 0
        self.compactions = 0

    @property
    def table(self) -> CatalogOpTable:
        """The live columnar table (callers must not mutate it)."""
        return self._table

    def on_invalidation(self, image_id: Optional[str]) -> None:
        """Change-feed callback: ``None`` flushes, ids mark dirty."""
        with self._lock:
            if image_id is None:
                self._full_dirty = True
            else:
                self._dirty.add(image_id)

    def refresh(self, requested: Sequence[str]) -> None:
        """Reconcile dirty rows and compile coverage for ``requested``."""
        with self._lock:
            self._refresh_locked(tuple(requested))

    def _refresh_locked(self, requested: Tuple[str, ...]) -> None:
        table = self._table
        if (
            not self._full_dirty
            and not self._dirty
            and self._covered == (table.version, requested)
        ):
            return
        if self._full_dirty:
            table.clear()
            self._full_dirty = False
            self._dirty.clear()
        if self._dirty:
            for image_id in sorted(self._dirty):
                if image_id not in table.row_of:
                    continue
                try:
                    record = self._store.lookup_for_bounds(image_id)
                except ReproError:
                    record = None
                if isinstance(record, EditSequence):
                    if record != table.sequence_of(image_id):
                        table.upsert(image_id, record)
                        self.recompiled += 1
                else:
                    table.remove(image_id)
                    self.tombstoned += 1
            self._dirty.clear()
        # Coverage fixpoint: every requested edited image and every
        # edited image transitively referenced by one gets a row.
        stack = list(requested)
        seen: Set[str] = set()
        while stack:
            image_id = stack.pop()
            if image_id in seen:
                continue
            seen.add(image_id)
            if image_id in table.row_of:
                refs = table.refs_of(image_id)
            else:
                try:
                    record = self._store.lookup_for_bounds(image_id)
                except ReproError:
                    continue
                if not isinstance(record, EditSequence):
                    continue
                table.upsert(image_id, record)
                refs = table.refs_of(image_id)
            stack.extend(ref for ref in refs if ref not in seen)
        # An eighth: each tombstone is kept, and copied by every seal,
        # until compaction; a steady insert/delete churn would otherwise
        # grow the table to twice its live rows first.
        if table.dead_count > max(table.live_count // 8, 32):
            table.compact()
            self.compactions += 1
        self._covered = (table.version, requested)

    def compute(
        self,
        requested: Sequence[str],
        fill_color: ColorTuple = (0, 0, 0),
        max_depth: int = 8,
    ) -> SweepOutcome:
        """Refresh then sweep: all-bins BOUNDS for ``requested`` ids."""
        with self._lock:
            wanted = tuple(requested)
            self._refresh_locked(wanted)
            return sweep_table(
                self._table,
                self._store,
                wanted=wanted,
                fill_color=fill_color,
                max_depth=max_depth,
            )
