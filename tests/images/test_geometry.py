"""Unit and property tests for rectangles and affine matrices."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.images.geometry import (
    EMPTY_RECT,
    AffineMatrix,
    Rect,
    transform_rect_bbox,
)

rect_strategy = st.builds(
    lambda x1, y1, dh, dw: Rect(x1, y1, x1 + dh, y1 + dw),
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.integers(0, 60),
    st.integers(0, 60),
)


def intersect(a, b):
    """The intersection of two rectangles, empty ones as ``EMPTY_RECT``."""
    x1, y1 = max(a.x1, b.x1), max(a.y1, b.y1)
    x2, y2 = min(a.x2, b.x2), min(a.y2, b.y2)
    if x2 <= x1 or y2 <= y1:
        return EMPTY_RECT
    return Rect(x1, y1, x2, y2)


class TestRectBasics:
    def test_dimensions(self):
        rect = Rect(1, 2, 4, 7)
        assert rect.height == 3
        assert rect.width == 5
        assert rect.area == 15

    def test_inverted_rejected(self):
        with pytest.raises(GeometryError):
            Rect(5, 0, 2, 10)
        with pytest.raises(GeometryError):
            Rect(0, 8, 10, 2)

    def test_empty_rect(self):
        assert EMPTY_RECT.is_empty
        assert EMPTY_RECT.area == 0
        assert Rect(3, 3, 3, 9).is_empty

    def test_as_tuple_round_trip(self):
        rect = Rect(1, 2, 3, 4)
        assert rect.as_tuple() == (1, 2, 3, 4)
        assert Rect(*rect.as_tuple()) == rect

    def test_ordering_is_total(self):
        assert Rect(0, 0, 1, 1) < Rect(0, 0, 1, 2)


class TestRectSetOps:
    def test_union_area_exact_inclusion_exclusion(self):
        a = Rect(0, 0, 4, 4)
        b = Rect(2, 2, 6, 6)
        assert a.union_area_upper_bound(b) == 16 + 16 - 4

    def test_contains(self):
        assert Rect(0, 0, 10, 10).contains(Rect(2, 3, 5, 6))
        assert not Rect(0, 0, 10, 10).contains(Rect(2, 3, 5, 12))
        assert Rect(0, 0, 1, 1).contains(EMPTY_RECT)

    def test_clip(self):
        assert Rect(-3, -3, 5, 99).clip(4, 6) == Rect(0, 0, 4, 6)

    @pytest.mark.parametrize(
        "rect, height, width",
        [
            (Rect(1, 2, 3, 4), 10, 12),  # inside
            (Rect(0, 0, 10, 12), 10, 12),  # exactly the image
            (Rect(-3, 5, 4, 20), 10, 12),  # overhanging two sides
            (Rect(-5, -5, 15, 17), 10, 12),  # overhanging all four
            (Rect(10, 0, 14, 12), 10, 12),  # outside, touching an edge
            (Rect(-9, -9, -2, -2), 10, 12),  # outside entirely
            (Rect(3, 3, 3, 9), 10, 12),  # empty
            (EMPTY_RECT, 10, 12),
            (Rect(0, 0, 1, 40), 1, 30),  # 1 x N image
            (Rect(0, -2, 5, 1), 40, 1),  # N x 1 image
            (Rect(0, 0, 4, 4), 0, 0),  # 0 x 0 image
        ],
    )
    def test_clip_equals_intersection_with_the_image(self, rect, height, width):
        expected = intersect(rect, Rect(0, 0, height, width))
        clipped = rect.clip(height, width)
        assert clipped == expected
        if expected.is_empty:
            assert clipped is EMPTY_RECT

    @given(rect_strategy, st.integers(0, 60), st.integers(0, 60))
    def test_clip_equals_intersection_property(self, rect, height, width):
        assert rect.clip(height, width) == intersect(rect, Rect(0, 0, height, width))

    def test_translate(self):
        assert Rect(1, 1, 2, 2).translate(3, -1) == Rect(4, 0, 5, 1)

    @given(rect_strategy, rect_strategy)
    def test_union_area_is_inclusion_exclusion(self, a, b):
        expected = a.area + b.area - intersect(a, b).area
        assert a.union_area_upper_bound(b) == expected

    @given(rect_strategy, rect_strategy)
    def test_union_area_between_max_and_sum(self, a, b):
        union_area = a.union_area_upper_bound(b)
        assert max(a.area, b.area) <= union_area <= a.area + b.area


class TestAffineMatrix:
    def test_identity(self):
        identity = AffineMatrix.identity()
        assert identity.apply_point(3.5, -2.0) == (3.5, -2.0)
        assert identity.determinant == 1.0
        assert identity.is_rigid_body()
        assert identity.is_axis_scale()
        assert identity.is_integer_scale()

    def test_translation(self):
        matrix = AffineMatrix.translation(2, -3)
        assert matrix.apply_point(1, 1) == (3, -2)
        assert matrix.is_rigid_body()
        assert not matrix.is_axis_scale()

    def test_scale(self):
        matrix = AffineMatrix.scale(2, 3)
        assert matrix.apply_point(1, 1) == (2, 3)
        assert matrix.determinant == 6
        assert matrix.is_axis_scale()
        assert matrix.is_integer_scale()
        assert not matrix.is_rigid_body()

    def test_scale_uniform_default(self):
        assert AffineMatrix.scale(2).apply_point(1, 1) == (2, 2)

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(GeometryError):
            AffineMatrix.scale(0)
        with pytest.raises(GeometryError):
            AffineMatrix.scale(2, -1)

    def test_fractional_scale_not_integer(self):
        assert AffineMatrix.scale(1.5).is_axis_scale()
        assert not AffineMatrix.scale(1.5).is_integer_scale()

    def test_non_affine_rejected(self):
        with pytest.raises(GeometryError):
            AffineMatrix(1, 0, 0, 0, 1, 0, m31=1.0)
        with pytest.raises(GeometryError):
            AffineMatrix(1, 0, 0, 0, 1, 0, m33=2.0)

    @pytest.mark.parametrize("quarter_turns", [0, 1, 2, 3, 4, -1])
    def test_rotation_90_is_rigid(self, quarter_turns):
        matrix = AffineMatrix.rotation_90(quarter_turns, cx=5, cy=7)
        assert matrix.is_rigid_body()
        # The center is a fixed point.
        assert matrix.apply_point(5, 7) == pytest.approx((5, 7))

    def test_rotation_90_quarter_turn(self):
        matrix = AffineMatrix.rotation_90(1)
        assert matrix.apply_point(1, 0) == pytest.approx((0, 1))

    def test_rotation_four_turns_is_identity(self):
        matrix = AffineMatrix.rotation_90(4)
        assert matrix.apply_point(3, 9) == pytest.approx((3, 9))

    def test_equality_and_hash(self):
        a = AffineMatrix.scale(2)
        b = AffineMatrix(2, 0, 0, 0, 2, 0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != AffineMatrix.identity()

    def test_determinant_of_shear(self):
        assert AffineMatrix(1, 0.7, 0, 0, 1, 0).determinant == pytest.approx(1.0)


class TestTransformRectBbox:
    def test_empty_maps_to_empty(self):
        assert transform_rect_bbox(EMPTY_RECT, AffineMatrix.scale(2)).is_empty

    def test_translation_moves_box(self):
        box = transform_rect_bbox(Rect(0, 0, 3, 3), AffineMatrix.translation(5, 6))
        assert box.contains(Rect(5, 6, 8, 9))

    @given(
        rect_strategy,
        st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=6,
            max_size=6,
        ),
    )
    def test_equals_the_box_of_the_mapped_corners(self, rect, entries):
        matrix = AffineMatrix(*entries)
        if rect.is_empty:
            assert transform_rect_bbox(rect, matrix) is EMPTY_RECT
            return
        x_far, y_far = rect.x2 - 1, rect.y2 - 1
        corners = ((rect.x1, rect.y1), (rect.x1, y_far), (x_far, rect.y1), (x_far, y_far))
        points = [matrix.apply_point(x, y) for x, y in corners]
        xs = [x for x, _ in points]
        ys = [y for _, y in points]
        assert transform_rect_bbox(rect, matrix) == Rect(
            math.floor(min(xs)),
            math.floor(min(ys)),
            math.ceil(max(xs)) + 1,
            math.ceil(max(ys)) + 1,
        )

    def test_bbox_contains_all_forward_mapped_pixels(self):
        rect = Rect(1, 2, 6, 9)
        matrix = AffineMatrix(1.3, -0.4, 2.0, 0.6, 0.9, -3.0)
        box = transform_rect_bbox(rect, matrix)
        for x in range(rect.x1, rect.x2):
            for y in range(rect.y1, rect.y2):
                tx, ty = matrix.apply_point(x, y)
                # The executor rounds half-up; bbox must still contain it.
                rx = math.floor(tx + 0.5)
                ry = math.floor(ty + 0.5)
                assert box.x1 <= rx < box.x2 and box.y1 <= ry < box.y2, (x, y, box)


class TestArbitraryRotation:
    def test_is_rigid(self):
        matrix = AffineMatrix.rotation(0.7, cx=3, cy=4)
        assert matrix.is_rigid_body()

    def test_center_fixed(self):
        matrix = AffineMatrix.rotation(1.1, cx=5, cy=7)
        assert matrix.apply_point(5, 7) == pytest.approx((5, 7))

    def test_quarter_angle_matches_rotation_90(self):
        arbitrary = AffineMatrix.rotation(math.pi / 2, cx=2, cy=3)
        exact = AffineMatrix.rotation_90(1, cx=2, cy=3)
        for point in ((0, 0), (4, 1), (-2, 7)):
            assert arbitrary.apply_point(*point) == pytest.approx(
                exact.apply_point(*point)
            )

    def test_preserves_distances(self):
        matrix = AffineMatrix.rotation(0.3)
        ax, ay = matrix.apply_point(1, 2)
        bx, by = matrix.apply_point(4, 6)
        assert math.hypot(ax - bx, ay - by) == pytest.approx(5.0)

    def test_inverse_is_negative_angle(self):
        matrix = AffineMatrix.rotation(0.4, cx=1, cy=1)
        inverse = AffineMatrix.rotation(-0.4, cx=1, cy=1)
        x, y = inverse.apply_point(*matrix.apply_point(3.0, -2.0))
        assert (x, y) == pytest.approx((3.0, -2.0))
