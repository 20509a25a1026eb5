"""Unit tests for the generic synthetic image generators."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.images.generators import (
    box_blur,
    darken,
    draw_cross,
    draw_disc,
    draw_rect,
    horizontal_bands,
    random_palette_image,
    solid,
    vertical_bands,
)
from repro.images.geometry import Rect
from tests.images.builders import checkerboard, random_noise_image
from repro.images.raster import Image


class TestBands:
    def test_solid(self):
        image = solid(3, 4, (7, 7, 7))
        assert image.count_color((7, 7, 7)) == 12

    def test_horizontal_bands_cover_evenly(self):
        image = horizontal_bands(9, 4, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert image.count_color((1, 0, 0)) == 12
        assert image.count_color((0, 1, 0)) == 12
        assert image.count_color((0, 0, 1)) == 12

    def test_horizontal_bands_remainder_to_last(self):
        image = horizontal_bands(10, 2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert image.count_color((0, 0, 1)) == 8  # last band absorbs the extra row

    def test_vertical_bands(self):
        image = vertical_bands(2, 6, [(1, 0, 0), (0, 1, 0)])
        assert image.get_pixel(0, 0) == (1, 0, 0)
        assert image.get_pixel(0, 5) == (0, 1, 0)
        assert image.count_color((1, 0, 0)) == 6

    def test_empty_colors_rejected(self):
        with pytest.raises(WorkloadError):
            horizontal_bands(4, 4, [])
        with pytest.raises(WorkloadError):
            vertical_bands(4, 4, [])

    def test_too_many_bands_rejected(self):
        with pytest.raises(WorkloadError):
            horizontal_bands(2, 4, [(0, 0, 0)] * 3)


class TestShapes:
    def test_checkerboard_alternates(self):
        image = checkerboard(4, 4, 2, (0, 0, 0), (255, 255, 255))
        assert image.get_pixel(0, 0) == (0, 0, 0)
        assert image.get_pixel(0, 2) == (255, 255, 255)
        assert image.get_pixel(2, 0) == (255, 255, 255)
        assert image.count_color((0, 0, 0)) == 8

    def test_checkerboard_bad_cell(self):
        with pytest.raises(WorkloadError):
            checkerboard(4, 4, 0, (0, 0, 0), (1, 1, 1))

    def test_draw_rect_clips(self):
        image = Image.filled(4, 4, (0, 0, 0))
        draw_rect(image, Rect(2, 2, 99, 99), (5, 5, 5))
        assert image.count_color((5, 5, 5)) == 4

    def test_draw_disc_radius_zero_is_center_pixel(self):
        image = Image.filled(5, 5, (0, 0, 0))
        draw_disc(image, 2, 2, 0, (9, 9, 9))
        assert image.count_color((9, 9, 9)) == 1

    def test_draw_disc_negative_radius(self):
        with pytest.raises(WorkloadError):
            draw_disc(Image.filled(3, 3), 1, 1, -1, (1, 1, 1))

    def test_draw_cross_spans_image(self):
        image = Image.filled(9, 9, (0, 0, 0))
        draw_cross(image, 4, 4, 1, (3, 3, 3))
        assert image.get_pixel(4, 0) == (3, 3, 3)
        assert image.get_pixel(0, 4) == (3, 3, 3)
        assert image.get_pixel(0, 0) == (0, 0, 0)

    def test_draw_cross_bad_thickness(self):
        with pytest.raises(WorkloadError):
            draw_cross(Image.filled(5, 5), 2, 2, 0, (1, 1, 1))


class TestRandomGenerators:
    def test_palette_image_uses_only_palette(self, rng):
        palette = [(10, 0, 0), (0, 10, 0), (0, 0, 10)]
        image = random_palette_image(rng, 12, 12, palette)
        assert set(image.distinct_colors()) <= set(palette)

    def test_palette_image_deterministic(self):
        a = random_palette_image(np.random.default_rng(5), 10, 10, [(1, 1, 1), (2, 2, 2)])
        b = random_palette_image(np.random.default_rng(5), 10, 10, [(1, 1, 1), (2, 2, 2)])
        assert a == b

    def test_palette_empty_rejected(self, rng):
        with pytest.raises(WorkloadError):
            random_palette_image(rng, 4, 4, [])

    def test_noise_levels(self, rng):
        image = random_noise_image(rng, 16, 16, levels=2)
        assert set(np.unique(image.pixels)) <= {0, 255}

    def test_noise_bad_levels(self, rng):
        with pytest.raises(WorkloadError):
            random_noise_image(rng, 4, 4, levels=1)


class TestDistortions:
    def test_darken_scales(self):
        image = Image.filled(2, 2, (100, 200, 50))
        dark = darken(image, 0.5)
        assert dark.get_pixel(0, 0) == (50, 100, 25)

    def test_darken_identity(self):
        image = Image.filled(2, 2, (100, 200, 50))
        assert darken(image, 1.0) == image

    def test_darken_bad_factor(self):
        with pytest.raises(WorkloadError):
            darken(Image.filled(2, 2), 1.5)

    def test_box_blur_preserves_flat_image(self):
        image = Image.filled(5, 5, (60, 60, 60))
        assert box_blur(image) == image

    def test_box_blur_smooths_edge(self):
        image = Image.filled(3, 3, (0, 0, 0))
        image.set_pixel(1, 1, (90, 90, 90))
        blurred = box_blur(image)
        assert blurred.get_pixel(1, 1) == (10, 10, 10)  # 90 / 9
