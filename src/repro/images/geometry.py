"""Rectangle geometry used for Defined Regions and R-tree bounding boxes.

The editing-operation algebra of the paper manipulates a *Defined Region*
(DR): an axis-aligned rectangle of pixels selected by the ``Define``
operation.  The same rectangle arithmetic (containment, union area,
clipping, affine transform of corners) is needed by the Table 1 rules and
by the executor, so it lives in one shared module.

Coordinates follow numpy convention: ``x`` is the row index (top to
bottom), ``y`` is the column index (left to right).  A :class:`Rect` is
*inclusive* of ``x1``/``y1`` and *exclusive* of ``x2``/``y2``, matching
Python slicing, so ``Rect(0, 0, h, w)`` covers an entire ``h x w`` image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import GeometryError


@dataclass(frozen=True, order=True)
class Rect:
    """Half-open axis-aligned rectangle ``[x1, x2) x [y1, y2)``.

    Degenerate (empty) rectangles are permitted and normalize to zero
    area; inverted rectangles (``x2 < x1``) are rejected at construction.
    """

    x1: int
    y1: int
    x2: int
    y2: int

    def __post_init__(self) -> None:
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise GeometryError(
                f"inverted rectangle: ({self.x1},{self.y1})-({self.x2},{self.y2})"
            )

    # ------------------------------------------------------------------
    # Basic measures
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        """Number of rows covered."""
        return self.x2 - self.x1

    @property
    def width(self) -> int:
        """Number of columns covered."""
        return self.y2 - self.y1

    @property
    def area(self) -> int:
        """Number of pixels covered."""
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    @property
    def is_empty(self) -> bool:
        """True when the rectangle covers no pixels."""
        return self.area == 0

    # ------------------------------------------------------------------
    # Set-like operations
    # ------------------------------------------------------------------
    def union_area_upper_bound(self, other: "Rect") -> int:
        """Exact pixel count of the union of the two rectangles.

        Inclusion-exclusion over two boxes is exact, so despite the name
        (kept for symmetry with rule terminology) this is the true area of
        ``self | other``.  The overlap is measured without building the
        intersection rectangle.
        """
        rows = min(self.x2, other.x2) - max(self.x1, other.x1)
        cols = min(self.y2, other.y2) - max(self.y1, other.y1)
        overlap = rows * cols if rows > 0 and cols > 0 else 0
        return self.area + other.area - overlap

    def contains(self, other: "Rect") -> bool:
        """True when ``other`` lies entirely inside ``self``."""
        if other.is_empty:
            return True
        return (
            self.x1 <= other.x1
            and self.y1 <= other.y1
            and self.x2 >= other.x2
            and self.y2 >= other.y2
        )

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def clip(self, height: int, width: int) -> "Rect":
        """Clip to an image of the given dimensions.

        ``intersect(Rect(0, 0, height, width))`` without building that
        rectangle: the executor and the scalar rules clip per region op.
        A non-empty rectangle already inside the image is returned as is.
        """
        if 0 <= self.x1 < self.x2 <= height and 0 <= self.y1 < self.y2 <= width:
            return self
        x1 = max(self.x1, 0)
        y1 = max(self.y1, 0)
        x2 = min(self.x2, height)
        y2 = min(self.y2, width)
        if x2 <= x1 or y2 <= y1:
            return EMPTY_RECT
        return Rect(x1, y1, x2, y2)

    def translate(self, dx: int, dy: int) -> "Rect":
        """Return the rectangle shifted by ``(dx, dy)``."""
        return Rect(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

    def as_tuple(self) -> Tuple[int, int, int, int]:
        """Return ``(x1, y1, x2, y2)``."""
        return (self.x1, self.y1, self.x2, self.y2)


#: Canonical empty rectangle.  All empty intersections normalize to this.
EMPTY_RECT = Rect(0, 0, 0, 0)


def transform_rect_bbox(rect: Rect, matrix: "AffineMatrix") -> Rect:
    """Bounding box of ``rect`` mapped through an affine matrix.

    Used by the Mutate rule to bound the destination region of moved
    pixels without touching the raster.  The box of the transformed
    corners bounds the transformed set because
    affine maps preserve convexity.  Each output coordinate is a sum of
    one term in ``x`` and one in ``y``, and float rounding is monotone,
    so its extremes over the four corners are the sums of the per-term
    extremes: the same floats as mapping every corner, with half the
    products.
    """
    if rect.is_empty:
        return EMPTY_RECT
    x_near, y_near = rect.x1, rect.y1
    x_far = max(x_near, rect.x2 - 1)
    y_far = max(y_near, rect.y2 - 1)
    # x' = m11 x + m12 y + m13 and y' = m21 x + m22 y + m23.
    x_of_x = (matrix.m11 * x_near, matrix.m11 * x_far)
    x_of_y = (matrix.m12 * y_near, matrix.m12 * y_far)
    y_of_x = (matrix.m21 * x_near, matrix.m21 * x_far)
    y_of_y = (matrix.m22 * y_near, matrix.m22 * y_far)
    return Rect(
        math.floor(min(x_of_x) + min(x_of_y) + matrix.m13),
        math.floor(min(y_of_x) + min(y_of_y) + matrix.m23),
        math.ceil(max(x_of_x) + max(x_of_y) + matrix.m13) + 1,
        math.ceil(max(y_of_x) + max(y_of_y) + matrix.m23) + 1,
    )


class AffineMatrix:
    """A 3x3 homogeneous matrix as used by the Mutate operation.

    The paper's Mutate carries nine parameters ``M11..M33``.  Only affine
    maps are meaningful for pixel rearrangement, so the bottom row is
    required to be ``(0, 0, 1)``; points transform as::

        [x']   [m11 m12 m13] [x]
        [y'] = [m21 m22 m23] [y]
        [1 ]   [ 0   0   1 ] [1]
    """

    __slots__ = ("m11", "m12", "m13", "m21", "m22", "m23")

    def __init__(
        self,
        m11: float,
        m12: float,
        m13: float,
        m21: float,
        m22: float,
        m23: float,
        m31: float = 0.0,
        m32: float = 0.0,
        m33: float = 1.0,
    ) -> None:
        if (m31, m32) != (0.0, 0.0) or m33 != 1.0:
            raise GeometryError(
                "Mutate matrices must be affine: bottom row (0, 0, 1)"
            )
        self.m11 = float(m11)
        self.m12 = float(m12)
        self.m13 = float(m13)
        self.m21 = float(m21)
        self.m22 = float(m22)
        self.m23 = float(m23)

    # ------------------------------------------------------------------
    def apply_point(self, x: float, y: float) -> Tuple[float, float]:
        """Map a point through the matrix."""
        return (
            self.m11 * x + self.m12 * y + self.m13,
            self.m21 * x + self.m22 * y + self.m23,
        )

    @property
    def determinant(self) -> float:
        """Determinant of the linear part; area scale factor."""
        return self.m11 * self.m22 - self.m12 * self.m21

    def is_rigid_body(self, tol: float = 1e-9) -> bool:
        """True for rotations/reflections/translations (``|det| == 1``).

        Rigid-body transforms rearrange pixels without changing how many
        there are, which is the condition under which the paper's Mutate
        rule keeps the image size constant.
        """
        return abs(abs(self.determinant) - 1.0) <= tol

    def is_axis_scale(self, tol: float = 1e-9) -> bool:
        """True for pure axis-aligned scales ``diag(sx, sy)``.

        This is the "DR contains image" row of Table 1, where the rule
        multiplies all three counters by ``M11 * M22``.
        """
        return (
            abs(self.m12) <= tol
            and abs(self.m21) <= tol
            and abs(self.m13) <= tol
            and abs(self.m23) <= tol
            and self.m11 > tol
            and self.m22 > tol
        )

    def is_integer_scale(self, tol: float = 1e-9) -> bool:
        """True for axis scales with integral factors (exact pixel counts)."""
        return (
            self.is_axis_scale(tol)
            and abs(self.m11 - round(self.m11)) <= tol
            and abs(self.m22 - round(self.m22)) <= tol
        )

    # ------------------------------------------------------------------
    # Constructors for common transforms
    # ------------------------------------------------------------------
    @staticmethod
    def identity() -> "AffineMatrix":
        """The identity transform."""
        return AffineMatrix(1, 0, 0, 0, 1, 0)

    @staticmethod
    def translation(dx: float, dy: float) -> "AffineMatrix":
        """Translation by ``(dx, dy)``."""
        return AffineMatrix(1, 0, dx, 0, 1, dy)

    @staticmethod
    def scale(sx: float, sy: Optional[float] = None) -> "AffineMatrix":
        """Axis-aligned scale; uniform when ``sy`` is omitted."""
        if sy is None:
            sy = sx
        if sx <= 0 or sy <= 0:
            raise GeometryError("scale factors must be positive")
        return AffineMatrix(sx, 0, 0, 0, sy, 0)

    @staticmethod
    def rotation(radians: float, cx: float = 0.0, cy: float = 0.0) -> "AffineMatrix":
        """Rotation by an arbitrary angle about ``(cx, cy)``.

        Arbitrary-angle rotations are rigid (``|det| = 1``) so they
        classify as bound-widening, but unlike quarter turns they do not
        map the pixel grid to itself: the executor's nearest-neighbor
        resampling leaves small holes, which the union-widening Mutate
        rule soundly covers.  Prefer :meth:`rotation_90` when exactness
        matters.
        """
        c = math.cos(radians)
        s = math.sin(radians)
        return AffineMatrix(c, -s, cx - c * cx + s * cy, s, c, cy - s * cx - c * cy)

    @staticmethod
    def rotation_90(quarter_turns: int, cx: float = 0.0, cy: float = 0.0) -> "AffineMatrix":
        """Rotation by ``quarter_turns`` * 90 degrees about ``(cx, cy)``.

        Only quarter turns are offered because they map the pixel grid to
        itself exactly, keeping rule soundness testable without sampling
        slack.
        """
        q = quarter_turns % 4
        cos_sin = {0: (1, 0), 1: (0, 1), 2: (-1, 0), 3: (0, -1)}[q]
        c, s = cos_sin
        # x' = c*(x-cx) - s*(y-cy) + cx ; y' = s*(x-cx) + c*(y-cy) + cy
        return AffineMatrix(c, -s, cx - c * cx + s * cy, s, c, cy - s * cx - c * cy)

    def as_tuple(self) -> Tuple[float, ...]:
        """Return the nine matrix entries in row-major order."""
        return (
            self.m11, self.m12, self.m13,
            self.m21, self.m22, self.m23,
            0.0, 0.0, 1.0,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffineMatrix):
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        return (
            f"AffineMatrix({self.m11:g}, {self.m12:g}, {self.m13:g}, "
            f"{self.m21:g}, {self.m22:g}, {self.m23:g})"
        )
