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
``alive``         bool ``(rows,)``        tombstone flag (false = dead row)
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
#: The row index is the *global* table row; the sweep maps it back to an
#: image id, :func:`apply_rule_batched` keeps it as a state index.
FailCallback = Callable[[int, RuleError], None]

#: Resolver used by the Merge-target kernel: maps the surviving rows of
#: one batched group (plus their positions in the kernel's original
#: ``rows`` argument) to target interval matrices.  Returns a boolean
#: "resolved" mask aligned with the input rows plus the target columns
#: for the resolved subset; unresolved rows must have been reported
#: through the fail callback already.
BatchTargetResolver = Callable[
    [np.ndarray, np.ndarray],
    Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray],
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


@dataclass
class BatchRuleState:
    """Interval-walk state for many images at once (SoA mirror of
    :class:`repro.core.rules.RuleState` over every bin).

    ``lo``/``hi`` are ``(rows, bins)`` int64 matrices; ``heights``,
    ``widths`` are ``(rows,)`` int64 vectors; ``dr`` is ``(rows, 4)``
    int64 holding ``(x1, y1, x2, y2)`` with empty regions normalized to
    all zeros, exactly like :data:`repro.images.geometry.EMPTY_RECT`.
    """

    lo: np.ndarray
    hi: np.ndarray
    heights: np.ndarray
    widths: np.ndarray
    dr: np.ndarray

    @classmethod
    def zeros(cls, rows: int, bins: int) -> "BatchRuleState":
        """An all-zero state block for ``rows`` images over ``bins`` bins."""
        return cls(
            lo=np.zeros((rows, bins), dtype=np.int64),
            hi=np.zeros((rows, bins), dtype=np.int64),
            heights=np.zeros(rows, dtype=np.int64),
            widths=np.zeros(rows, dtype=np.int64),
            dr=np.zeros((rows, 4), dtype=np.int64),
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


def _dr_areas(state: BatchRuleState, rows: np.ndarray) -> np.ndarray:
    d = state.dr[rows]
    return (d[:, 2] - d[:, 0]) * (d[:, 3] - d[:, 1])


def _totals(state: BatchRuleState, rows: np.ndarray) -> np.ndarray:
    return state.heights[rows] * state.widths[rows]


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
    total = _totals(state, rows)
    bad = (lo < 0) | (lo > hi) | (hi > total[:, None])
    ok = ~bad.any(axis=1)
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
# Each kernel mutates `state` in place for `rows` (global row indices)
# with per-row parameter columns, reproducing the matching scalar rule's
# branch arithmetic exactly for every bin — same clip bounds, same int64
# promotion, same IEEE float evaluation order.
# ----------------------------------------------------------------------
def _kernel_define(
    state: BatchRuleState, rows: np.ndarray, rect4: np.ndarray
) -> None:
    """Define: ``dr = rect.clip(height, width)``, bins untouched."""
    h = state.heights[rows]
    w = state.widths[rows]
    x1 = np.maximum(rect4[:, 0], 0)
    y1 = np.maximum(rect4[:, 1], 0)
    x2 = np.minimum(rect4[:, 2], h)
    y2 = np.minimum(rect4[:, 3], w)
    out = np.stack([x1, y1, x2, y2], axis=1)
    out[(x2 <= x1) | (y2 <= y1)] = 0
    state.dr[rows] = out


def _kernel_combine(state: BatchRuleState, rows: np.ndarray) -> None:
    """Combine: every DR pixel may enter or leave any bin."""
    area = _dr_areas(state, rows)[:, None]
    total = _totals(state, rows)[:, None]
    state.lo[rows] = np.clip(state.lo[rows] - area, 0, total)
    state.hi[rows] = np.clip(state.hi[rows] + area, 0, total)


def _kernel_modify(
    state: BatchRuleState,
    rows: np.ndarray,
    old_bins: np.ndarray,
    new_bins: np.ndarray,
) -> None:
    """Modify: two-element update per row; same-bin rows are no-ops."""
    moved = old_bins != new_bins
    sub = rows[moved]
    if sub.size == 0:
        return
    area = _dr_areas(state, sub)
    total = _totals(state, sub)
    nb = new_bins[moved]
    ob = old_bins[moved]
    state.hi[sub, nb] = np.minimum(state.hi[sub, nb] + area, total)
    state.lo[sub, ob] = np.maximum(state.lo[sub, ob] - area, 0)


def _kernel_mutate(
    state: BatchRuleState,
    rows: np.ndarray,
    fmat: np.ndarray,
    int_scale: np.ndarray,
    sx: np.ndarray,
    sy: np.ndarray,
) -> None:
    """Mutate: scale / general branches, selected per row at runtime.

    ``int_scale`` marks rows whose matrix is an integer axis scale; the
    whole-image test (``dr.contains(image_bounds)``) depends on the
    evolving DR, so it is evaluated here, not at compile time.  Identity
    matrices never reach this kernel (``OP_MUTATE_IDENTITY`` is a no-op
    at dispatch), matching the scalar early return.
    """
    d = state.dr[rows]
    active = (d[:, 2] - d[:, 0]) * (d[:, 3] - d[:, 1]) > 0
    if not active.any():
        return
    rows = rows[active]
    d = d[active]
    fmat = fmat[active]
    int_scale = int_scale[active]
    h = state.heights[rows]
    w = state.widths[rows]
    whole = (d[:, 0] <= 0) & (d[:, 1] <= 0) & (d[:, 2] >= h) & (d[:, 3] >= w)
    scale_sel = int_scale & whole

    if scale_sel.any():
        sub = rows[scale_sel]
        fx = sx[active][scale_sel]
        fy = sy[active][scale_sel]
        factor = (fx * fy)[:, None]
        state.lo[sub] = state.lo[sub] * factor
        state.hi[sub] = state.hi[sub] * factor
        nh = h[scale_sel] * fx
        nw = w[scale_sel] * fy
        state.heights[sub] = nh
        state.widths[sub] = nw
        zeros = np.zeros_like(nh)
        state.dr[sub] = np.stack([zeros, zeros, nh, nw], axis=1)

    general = ~scale_sel
    if general.any():
        sub = rows[general]
        dg = d[general]
        hg = h[general]
        wg = w[general]
        # Corner fan-out of transform_rect_bbox: the DR is non-empty here,
        # so the scalar max(x1, x2 - 1) clamps never fire.
        cx = np.stack([dg[:, 0], dg[:, 0], dg[:, 2] - 1, dg[:, 2] - 1], axis=1)
        cy = np.stack([dg[:, 1], dg[:, 3] - 1, dg[:, 1], dg[:, 3] - 1], axis=1)
        fg = fmat[general]
        # Same association as AffineMatrix.apply_point: (m*x + m*y) + m13.
        tx = fg[:, 0][:, None] * cx + fg[:, 1][:, None] * cy + fg[:, 2][:, None]
        ty = fg[:, 3][:, None] * cx + fg[:, 4][:, None] * cy + fg[:, 5][:, None]
        bx1 = np.floor(tx.min(axis=1)).astype(np.int64)
        by1 = np.floor(ty.min(axis=1)).astype(np.int64)
        bx2 = np.ceil(tx.max(axis=1)).astype(np.int64) + 1
        by2 = np.ceil(ty.max(axis=1)).astype(np.int64) + 1
        # .clip(height, width) of the bbox.
        dx1 = np.maximum(bx1, 0)
        dy1 = np.maximum(by1, 0)
        dx2 = np.minimum(bx2, hg)
        dy2 = np.minimum(by2, wg)
        dest = np.stack([dx1, dy1, dx2, dy2], axis=1)
        dest[(dx2 <= dx1) | (dy2 <= dy1)] = 0
        dest_area = (dest[:, 2] - dest[:, 0]) * (dest[:, 3] - dest[:, 1])
        # union_area_upper_bound: exact inclusion-exclusion.
        ix1 = np.maximum(dg[:, 0], dest[:, 0])
        iy1 = np.maximum(dg[:, 1], dest[:, 1])
        ix2 = np.minimum(dg[:, 2], dest[:, 2])
        iy2 = np.minimum(dg[:, 3], dest[:, 3])
        inter = np.where(
            (ix2 > ix1) & (iy2 > iy1), (ix2 - ix1) * (iy2 - iy1), 0
        )
        dr_area = (dg[:, 2] - dg[:, 0]) * (dg[:, 3] - dg[:, 1])
        affected = (dr_area + dest_area - inter)[:, None]
        total = (hg * wg)[:, None]
        state.lo[sub] = np.clip(state.lo[sub] - affected, 0, total)
        state.hi[sub] = np.clip(state.hi[sub] + affected, 0, total)
        state.dr[sub] = dest


def _kernel_merge_crop(
    state: BatchRuleState, rows: np.ndarray, fail: FailCallback
) -> int:
    """Merge with NULL target; returns the number of rows applied."""
    live, _ = _merge_live_rows(state, rows, fail)
    if live.size == 0:
        return 0
    d = state.dr[live]
    area = (d[:, 2] - d[:, 0]) * (d[:, 3] - d[:, 1])
    outside = _totals(state, live) - area
    state.lo[live] = np.maximum(state.lo[live] - outside[:, None], 0)
    state.hi[live] = np.minimum(state.hi[live], area[:, None])
    nh = d[:, 2] - d[:, 0]
    nw = d[:, 3] - d[:, 1]
    state.heights[live] = nh
    state.widths[live] = nw
    zeros = np.zeros_like(nh)
    state.dr[live] = np.stack([zeros, zeros, nh, nw], axis=1)
    return int(_validate_rows(state, live, fail).size)


def _kernel_merge_target(
    state: BatchRuleState,
    rows: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    resolve: BatchTargetResolver,
    fill_bin: int,
    fail: FailCallback,
) -> int:
    """Merge onto resolved targets; returns the number of rows applied.

    The empty-DR check precedes target resolution, matching the scalar
    rule's raise order; ``resolve`` reports per-row resolution failures
    through ``fail`` itself and returns the surviving subset.
    """
    live, live_pos = _merge_live_rows(state, rows, fail)
    if live.size == 0:
        return 0
    ok, t_lo, t_hi, t_h, t_w = resolve(live, live_pos)
    sub = live[ok]
    if sub.size == 0:
        return 0
    sub_pos = live_pos[ok]
    x = x[sub_pos]
    y = y[sub_pos]
    d = state.dr[sub]
    dr_h = d[:, 2] - d[:, 0]
    dr_w = d[:, 3] - d[:, 1]
    area = dr_h * dr_w
    outside = _totals(state, sub) - area
    dr_lo = np.maximum(state.lo[sub] - outside[:, None], 0)
    dr_hi = np.minimum(state.hi[sub], area[:, None])
    t_total = t_h * t_w
    # merge_canvas_geometry over rows.
    nh = np.maximum(x + dr_h, t_h) - np.minimum(x, 0)
    nw = np.maximum(y + dr_w, t_w) - np.minimum(y, 0)
    # covered = paste_rect.intersect(target bounds).area
    ix1 = np.maximum(x, 0)
    iy1 = np.maximum(y, 0)
    ix2 = np.minimum(x + dr_h, t_h)
    iy2 = np.minimum(y + dr_w, t_w)
    covered = np.where((ix2 > ix1) & (iy2 > iy1), (ix2 - ix1) * (iy2 - iy1), 0)
    fill_count = nh * nw - area - t_total + covered
    lo = dr_lo + np.maximum(t_lo - covered[:, None], 0)
    hi = dr_hi + np.minimum(t_hi, (t_total - covered)[:, None])
    # Adding zero is the vectorized form of the scalar `if fill_count:`.
    lo[:, fill_bin] += fill_count
    hi[:, fill_bin] += fill_count
    state.lo[sub] = lo
    state.hi[sub] = hi
    state.heights[sub] = nh
    state.widths[sub] = nw
    zeros = np.zeros_like(nh)
    state.dr[sub] = np.stack([zeros, zeros, nh, nw], axis=1)
    return int(_validate_rows(state, sub, fail).size)


def _merge_live_rows(
    state: BatchRuleState, rows: np.ndarray, fail: FailCallback
) -> Tuple[np.ndarray, np.ndarray]:
    """Fail the empty-DR rows of a Merge group.

    Returns ``(live, live_pos)``: the surviving rows and their positions
    within the original ``rows`` argument (so aligned per-op columns can
    be sliced without searching).
    """
    areas = _dr_areas(state, rows)
    empty = areas == 0
    for row in rows[empty]:
        fail(int(row), RuleError("Merge rule requires a non-empty Defined Region"))
    live_pos = np.nonzero(~empty)[0]
    return rows[live_pos], live_pos


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
        _kernel_modify(state, rows, params[idx, 0], params[idx, 1])
    elif code == OP_MUTATE_IDENTITY:
        pass
    elif code in (OP_MUTATE_SCALE, OP_MUTATE_GENERAL):
        _kernel_mutate(
            state,
            rows,
            floats[idx],
            np.full(rows.size, code == OP_MUTATE_SCALE, dtype=bool),
            params[idx, 0],
            params[idx, 1],
        )
    elif code == OP_MERGE_CROP:
        _kernel_merge_crop(state, rows, fail)
    elif code == OP_MERGE_TARGET:
        _kernel_merge_target(
            state, rows, params[idx, 0], params[idx, 1], resolver(), fill_bin, fail
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
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        target_id = str(cast(Merge, op).target_id)
        bins = state.lo.shape[1]
        ok = np.zeros(live.size, dtype=bool)
        empty = np.zeros((0, bins), dtype=np.int64)
        none = np.zeros(0, dtype=np.int64)
        if ctx.resolve_target is None:
            for row in live:
                fail(
                    int(row),
                    RuleError(
                        f"Merge target {target_id!r} requires a target resolver"
                    ),
                )
            return (ok, empty, empty, none, none)
        try:
            t_lo, t_hi, t_height, t_width = ctx.resolve_target(target_id)
        except RuleError as exc:
            for row in live:
                fail(int(row), exc)
            return (ok, empty, empty, none, none)
        ok[:] = True
        return (
            ok,
            np.broadcast_to(np.asarray(t_lo, dtype=np.int64), (live.size, bins)),
            np.broadcast_to(np.asarray(t_hi, dtype=np.int64), (live.size, bins)),
            np.full(live.size, int(t_height), dtype=np.int64),
            np.full(live.size, int(t_width), dtype=np.int64),
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
    row, a delete flips ``alive`` off, and a resave is
    tombstone-then-append (``row_of`` always points at the live row).
    :meth:`seal` materializes the contiguous columns, concatenating only
    rows added since the previous seal; :meth:`compact` rebuilds from
    live rows once tombstones dominate.  ``version`` bumps on every
    structural change so sweep plans can be cached against it.
    """

    def __init__(self, quantizer: UniformQuantizer) -> None:
        self._quantizer = quantizer
        self.image_ids: List[str] = []
        self.base_ids: List[str] = []
        self.row_of: Dict[str, int] = {}
        self.target_ids: List[str] = []
        self._target_index: Dict[str, int] = {}
        self._refs: List[Tuple[str, ...]] = []
        self._alive: List[bool] = []
        self._row_ops: List[_RowOps] = []
        self.version = 0
        #: Total sequence compilations ever — the append-friendliness
        #: metric (an insert must cost exactly one compile).
        self.compiled_rows = 0
        self._sealed_rows = 0
        self.codes = np.zeros(0, dtype=np.int8)
        self.params = np.zeros((0, 4), dtype=np.int64)
        self.floats = np.zeros((0, 6), dtype=np.float64)
        self.trefs = np.zeros(0, dtype=np.int32)
        self.offsets = np.zeros(1, dtype=np.int64)
        self.alive = np.zeros(0, dtype=bool)
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
        self._alive.append(True)
        self._row_ops.append(row_ops)
        self.row_of[image_id] = row
        self.version += 1
        self.compiled_rows += 1
        return row

    def remove(self, image_id: str) -> bool:
        """Tombstone ``image_id``'s row; False when it has no live row."""
        row = self.row_of.pop(image_id, None)
        if row is None:
            return False
        self._alive[row] = False
        self.version += 1
        return True

    def refs_of(self, image_id: str) -> Tuple[str, ...]:
        """Base id followed by Merge-target ids in operation order."""
        row = self.row_of.get(image_id)
        if row is None:
            raise UnknownObjectError(f"no op-table row for {image_id!r}")
        return self._refs[row]

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
        if self._sealed_rows < len(self._row_ops):
            fresh = self._row_ops[self._sealed_rows :]
            self.codes = np.concatenate([self.codes] + [r.codes for r in fresh])
            self.params = np.concatenate([self.params] + [r.params for r in fresh])
            self.floats = np.concatenate([self.floats] + [r.floats for r in fresh])
            self.trefs = np.concatenate([self.trefs] + [r.trefs for r in fresh])
            lengths = np.array([len(r.codes) for r in fresh], dtype=np.int64)
            self.offsets = np.concatenate(
                [self.offsets, self.offsets[-1] + np.cumsum(lengths)]
            )
            self._sealed_rows = len(self._row_ops)
        self.alive = np.array(self._alive, dtype=bool)

    def compact(self) -> None:
        """Rebuild the table from live rows, dropping tombstones."""
        live = [
            (self.image_ids[row], self.base_ids[row], self._refs[row], ops)
            for row, ops in enumerate(self._row_ops)
            if self._alive[row]
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
        for image_id, base_id, refs, ops in live:
            row = len(self.image_ids)
            self.image_ids.append(image_id)
            self.base_ids.append(base_id)
            self._refs.append(refs)
            self._alive.append(True)
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

    ``lo`` / ``hi`` (``table rows x bins``) and ``heights`` / ``widths``
    are the sweep's read-only state matrices; ``rows[i]`` is the table
    row of the ``i``-th requested id, so ``lo[rows]`` is the requested
    block in request order and :meth:`view` hands out one id's
    ``(lo, hi, height, width)`` —
    :data:`repro.core.bounds.AllBinsBounds` — on demand.  ``failures``
    holds the exact per-image error the scalar walk would have raised
    (a requested id the table has no row for fails too, with ``rows[i]``
    left at ``-1``); ``swept_ids`` lists every row actually computed (requested images
    plus transitive edited references) for dependency registration;
    ``ops_applied`` counts successful rule applications, the §5 work
    metric.
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


@dataclass
class _StratumPlan:
    """One dependency stratum plus the structural split of how it seeds.

    ``binary_rows`` start from a base that has no table row (a binary
    image, or an id the store will reject): ``binary_ids`` are their
    distinct base ids and ``binary_src[i]`` indexes the one
    ``binary_rows[i]`` reads.  ``chained_rows`` start from the finished
    interval of table row ``chained_base[i]``, whose reference height is
    ``chained_height[i]`` (inf marks a cycle).
    """

    rows: np.ndarray
    binary_rows: np.ndarray
    binary_ids: Tuple[str, ...]
    binary_src: np.ndarray
    chained_rows: np.ndarray
    chained_base: np.ndarray
    chained_height: np.ndarray


@dataclass
class _SweepPlan:
    """Cached scheduling artifacts for one (table version, request).

    Reachability, stratification, how each stratum's rows seed and which
    row answers which requested id are pure functions of the table
    structure and the request, so repeat sweeps — the steady state once
    the table is compiled — reuse them and go straight to fetching base
    histograms and kernel dispatch.  Nothing here depends on store
    *data* or on the per-call ``max_depth``; everything is read-only
    during a sweep.
    """

    version: int
    wanted: Tuple[str, ...]
    wanted_rows: np.ndarray
    swept_ids: Tuple[str, ...]
    heights: Dict[int, float]
    strata: List[_StratumPlan]


class _Sweep:
    """One sweep execution: scheduling, init, rank dispatch, errors."""

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
        self.fill_color = fill_color
        self.max_depth = max_depth
        self.wanted = tuple(wanted)
        self.bins = table.quantizer.bin_count
        self.fill_bin = table.quantizer.bin_of(fill_color)
        self.state = BatchRuleState.zeros(table.row_count, self.bins)
        self.failed: Dict[int, ReproError] = {}
        self.failed_mask = np.zeros(table.row_count, dtype=bool)
        self.done = np.zeros(table.row_count, dtype=bool)
        self.heights: Dict[int, float] = {}
        self.ops_applied = 0
        self._binary_memo: Dict[
            str, Union[Tuple[np.ndarray, int, int], ReproError]
        ] = {}

    # -- scheduling ----------------------------------------------------
    def _needed_rows(self) -> List[int]:
        """Rows reachable from the wanted ids through live references."""
        table = self.table
        seen: Set[int] = set()
        stack = [
            table.row_of[image_id]
            for image_id in self.wanted
            if image_id in table.row_of
        ]
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

    def _ref_heights(self, rows: Sequence[int]) -> Dict[int, float]:
        """Longest ref-path (edges) to a leaf per row; inf marks cycles."""
        table = self.table
        children: Dict[int, List[int]] = {}
        waiting: Dict[int, int] = {}
        dependents: Dict[int, List[int]] = {}
        for row in rows:
            refs = [
                table.row_of[ref]
                for ref in table.refs_of_row(row)
                if ref in table.row_of
            ]
            children[row] = refs
            waiting[row] = len(refs)
            for ref_row in refs:
                dependents.setdefault(ref_row, []).append(row)
        heights: Dict[int, float] = {}
        ready = [row for row in rows if waiting[row] == 0]
        while ready:
            row = ready.pop()
            heights[row] = 1.0 + max(
                (heights[child] for child in children[row]), default=0.0
            )
            for dependent in dependents.get(row, ()):
                waiting[dependent] -= 1
                if waiting[dependent] == 0:
                    ready.append(dependent)
        for row in rows:
            heights.setdefault(row, math.inf)
        return heights

    def _base_chain_height(self, row: int, memo: Dict[int, float]) -> float:
        """Height along base edges only; inf for base-chain cycles."""
        table = self.table
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
            current = table.row_of.get(table.base_ids[current])
        for member in reversed(chain):
            if member in memo:
                continue
            base_row = table.row_of.get(table.base_ids[member])
            memo[member] = (
                1.0 if base_row is None else 1.0 + memo.get(base_row, math.inf)
            )
        return memo[row]

    def _strata(self, rows: List[int]) -> List[_StratumPlan]:
        """Dependency-safe batches: references always land in earlier ones."""
        self.heights = self._ref_heights(rows)
        finite: Dict[float, List[int]] = {}
        infinite: List[int] = []
        for row in rows:
            height = self.heights[row]
            if math.isinf(height):
                infinite.append(row)
            else:
                finite.setdefault(height, []).append(row)
        strata = [
            np.array(sorted(finite[height]), dtype=np.int64)
            for height in sorted(finite)
        ]
        if infinite:
            # Rows above reference cycles still need their base values in
            # order, so batch them by base-chain height; base-cycle rows
            # fail at init and can share the final batch.
            memo: Dict[int, float] = {}
            buckets: Dict[float, List[int]] = {}
            tail: List[int] = []
            for row in infinite:
                chain_height = self._base_chain_height(row, memo)
                if math.isinf(chain_height):
                    tail.append(row)
                else:
                    buckets.setdefault(chain_height, []).append(row)
            strata.extend(
                np.array(sorted(buckets[height]), dtype=np.int64)
                for height in sorted(buckets)
            )
            if tail:
                strata.append(np.array(sorted(tail), dtype=np.int64))
        return [self._stratum_plan(stratum) for stratum in strata]

    def _stratum_plan(self, rows: np.ndarray) -> _StratumPlan:
        """Split a stratum by where each row's starting interval comes from."""
        table = self.table
        binary_rows: List[int] = []
        binary_src: List[int] = []
        binary_slot: Dict[str, int] = {}
        chained_rows: List[int] = []
        chained_base: List[int] = []
        for row in rows.tolist():
            base_id = table.base_ids[row]
            base_row = table.row_of.get(base_id)
            if base_row is None:
                binary_rows.append(row)
                binary_src.append(binary_slot.setdefault(base_id, len(binary_slot)))
            else:
                chained_rows.append(row)
                chained_base.append(base_row)
        return _StratumPlan(
            rows=rows,
            binary_rows=np.array(binary_rows, dtype=np.int64),
            binary_ids=tuple(binary_slot),
            binary_src=np.array(binary_src, dtype=np.int64),
            chained_rows=np.array(chained_rows, dtype=np.int64),
            chained_base=np.array(chained_base, dtype=np.int64),
            chained_height=np.array(
                [self.heights.get(base, math.inf) for base in chained_base],
                dtype=np.float64,
            ),
        )

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
        table = self.table
        plan = table._sweep_plan
        if (
            plan is None
            or plan.version != table.version
            or plan.wanted != self.wanted
        ):
            rows = self._needed_rows()
            strata = self._strata(rows)
            plan = _SweepPlan(
                version=table.version,
                wanted=self.wanted,
                wanted_rows=np.array(
                    [table.row_of.get(image_id, -1) for image_id in self.wanted],
                    dtype=np.int64,
                ),
                swept_ids=tuple(table.image_ids[row] for row in rows),
                heights=self.heights,
                strata=strata,
            )
            table._sweep_plan = plan
        else:
            self.heights = plan.heights
        for stratum in plan.strata:
            self._run_stratum(stratum)
        # The state matrices outlive the sweep as the outcome, handed out
        # whole (and as per-row views), so nothing may write to them.
        state = self.state
        for column in (state.lo, state.hi, state.heights, state.widths):
            column.setflags(write=False)
        failures: Dict[str, ReproError] = {
            table.image_ids[row]: self.failed[row] for row in sorted(self.failed)
        }
        for position in np.nonzero(plan.wanted_rows < 0)[0].tolist():
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
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Dict[int, ReproError]]:
        """Stack the stored histograms of ``image_ids``, one fetch each.

        Returns ``(counts, heights, widths, errors)`` aligned with
        ``image_ids``; an id the store cannot serve as a binary image
        gets an all-zero row and an entry in ``errors`` by position.
        """
        vectors: List[np.ndarray] = []
        heights: List[int] = []
        widths: List[int] = []
        errors: Dict[int, ReproError] = {}
        for position, image_id in enumerate(image_ids):
            fetched = self._fetch_binary(image_id)
            if isinstance(fetched, ReproError):
                errors[position] = fetched
                fetched = (np.zeros(self.bins, dtype=np.int64), 0, 0)
            vectors.append(fetched[0])
            heights.append(fetched[1])
            widths.append(fetched[2])
        return (
            stack_rows(vectors, self.bins),
            np.array(heights, dtype=np.int64),
            np.array(widths, dtype=np.int64),
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
            counts, heights, widths, errors = self._fetch_counts(stratum.binary_ids)
            src = stratum.binary_src
            for position, error in errors.items():
                for row in rows[src == position].tolist():
                    self._fail(row, error)
            seeded = counts[src]
            state.lo[rows] = seeded
            state.hi[rows] = seeded
            state.heights[rows] = state.dr[rows, 2] = heights[src]
            state.widths[rows] = state.dr[rows, 3] = widths[src]
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
            state.heights[rows] = state.dr[rows, 2] = state.heights[src]
            state.widths[rows] = state.dr[rows, 3] = state.widths[src]

    def _fail_structurally(
        self, row: int, inherited_from: Optional[int] = None
    ) -> None:
        image_id = self.table.image_ids[row]
        error = self._structural_error(image_id, frozenset(), self.max_depth)
        if error is None and inherited_from is not None:
            error = self.failed.get(inherited_from)
        if error is None:
            error = RuleError(
                f"unresolvable base chain for {image_id!r}"
            )  # pragma: no cover — defensive; structural walk finds real causes
        self._fail(row, error)

    def _run_stratum(self, stratum: _StratumPlan) -> None:
        rows = stratum.rows
        if rows.size == 0:
            return
        self._init_rows(stratum)
        table = self.table
        lengths = table.offsets[rows + 1] - table.offsets[rows]
        max_len = int(lengths.max())
        self._complete(rows[(lengths == 0) & ~self.failed_mask[rows]])
        for rank in range(max_len):
            active = rows[(lengths > rank) & ~self.failed_mask[rows]]
            if active.size == 0:
                continue
            idx = table.offsets[active] + rank
            codes = table.codes[idx]
            for code in np.unique(codes):
                group_sel = codes == code
                self._dispatch(int(code), active[group_sel], idx[group_sel])
            self._complete(
                rows[(lengths == rank + 1) & ~self.failed_mask[rows]]
            )

    def _complete(self, rows: np.ndarray) -> None:
        """End-of-sequence validate (the walk's final ``state.validate()``)."""
        if rows.size == 0:
            return
        surviving = _validate_rows(self.state, rows, self._fail)
        self.done[surviving] = True

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
            lambda: self._make_target_resolver(rows, idx),
            self.fill_bin,
            self._fail,
        )
        self.ops_applied += rows.size - (len(self.failed) - before)

    def _make_target_resolver(
        self, rows: np.ndarray, idx: np.ndarray
    ) -> BatchTargetResolver:
        """Resolver over the table's computed rows and binary store data."""
        table = self.table
        del rows  # positions passed to resolve index into ``idx`` directly

        def resolve(
            live: np.ndarray, positions: np.ndarray
        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
            # Classify the distinct targets once, then gather: table-row
            # targets out of the state matrices, binary targets out of
            # one stack of stored histograms.
            slots, member_of = np.unique(
                table.trefs[idx[positions]], return_inverse=True
            )
            target_ids = [table.target_ids[slot] for slot in slots.tolist()]
            from_row: Dict[int, int] = {}
            from_store: Dict[int, str] = {}
            for distinct, target_id in enumerate(target_ids):
                target_row = table.row_of.get(target_id)
                if target_row is None:
                    from_store[distinct] = target_id
                elif (
                    self.heights.get(target_row, math.inf) <= self.max_depth - 2
                    and self.done[target_row]
                    and target_row not in self.failed
                ):
                    from_row[distinct] = target_row
                else:
                    # Structural replay per source row: the scalar walk
                    # resolves targets with the *source* image in its
                    # visiting set.
                    for row_i in live[member_of == distinct].tolist():
                        error: Optional[ReproError] = self._structural_error(
                            target_id,
                            frozenset({table.image_ids[row_i]}),
                            self.max_depth - 1,
                        )
                        if error is None:
                            error = self.failed.get(target_row)
                        if error is None:  # pragma: no cover — defensive
                            error = RuleError(
                                f"unresolvable Merge target {target_id!r}"
                            )
                        self._fail(row_i, error)
            count = len(target_ids)
            ok = np.zeros(count, dtype=bool)
            t_lo = np.zeros((count, self.bins), dtype=np.int64)
            t_hi = np.zeros((count, self.bins), dtype=np.int64)
            t_h = np.zeros(count, dtype=np.int64)
            t_w = np.zeros(count, dtype=np.int64)
            if from_row:
                dest = np.fromiter(from_row, dtype=np.int64, count=len(from_row))
                src = np.fromiter(
                    from_row.values(), dtype=np.int64, count=len(from_row)
                )
                ok[dest] = True
                t_lo[dest] = self.state.lo[src]
                t_hi[dest] = self.state.hi[src]
                t_h[dest] = self.state.heights[src]
                t_w[dest] = self.state.widths[src]
            if from_store:
                dest = np.fromiter(from_store, dtype=np.int64, count=len(from_store))
                counts, heights, widths, errors = self._fetch_counts(
                    list(from_store.values())
                )
                ok[dest] = True
                t_lo[dest] = counts
                t_hi[dest] = counts
                t_h[dest] = heights
                t_w[dest] = widths
                for position, fetch_error in errors.items():
                    distinct = int(dest[position])
                    ok[distinct] = False
                    for row_i in live[member_of == distinct].tolist():
                        self._fail(row_i, fetch_error)
            resolved = ok[member_of]
            sel = member_of[resolved]
            return (resolved, t_lo[sel], t_hi[sel], t_h[sel], t_w[sel])

        return resolve


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
    :meth:`compute` reconciles just those rows — recompile on resave,
    tombstone on delete, full reset on a whole-cache flush — before
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
