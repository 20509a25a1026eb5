"""Unit and property tests for uniform quantizers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.color.quantization import UniformQuantizer
from repro.color.spaces import channel_ranges, convert_pixels
from repro.errors import ColorError

rgb_strategy = st.tuples(*([st.integers(0, 255)] * 3))


class TestConstruction:
    def test_defaults(self):
        quantizer = UniformQuantizer()
        assert quantizer.divisions == 4
        assert quantizer.space == "rgb"
        assert quantizer.bin_count == 64

    def test_space_normalized(self):
        assert UniformQuantizer(2, "HSV").space == "hsv"

    @pytest.mark.parametrize("divisions", [0, -1, 257])
    def test_bad_divisions(self, divisions):
        with pytest.raises(ColorError):
            UniformQuantizer(divisions)

    def test_bad_space(self):
        with pytest.raises(ColorError):
            UniformQuantizer(4, "lab")

    def test_frozen_and_hashable(self):
        a = UniformQuantizer(4, "rgb")
        b = UniformQuantizer(4, "rgb")
        assert a == b
        assert hash(a) == hash(b)
        assert a != UniformQuantizer(8, "rgb")


class TestBinning:
    def test_single_division_maps_everything_to_bin_zero(self):
        quantizer = UniformQuantizer(1, "rgb")
        assert quantizer.bin_of((0, 0, 0)) == 0
        assert quantizer.bin_of((255, 255, 255)) == 0

    def test_rgb_corner_bins(self):
        quantizer = UniformQuantizer(2, "rgb")
        assert quantizer.bin_of((0, 0, 0)) == 0
        assert quantizer.bin_of((255, 255, 255)) == 7
        assert quantizer.bin_of((255, 0, 0)) == 4  # high R, low G, low B

    def test_rgb_boundary_at_midpoint(self):
        quantizer = UniformQuantizer(2, "rgb")
        assert quantizer.bin_of((127, 0, 0)) == 0
        assert quantizer.bin_of((128, 0, 0)) == 4

    @given(rgb_strategy)
    @settings(max_examples=60)
    def test_bin_always_in_range(self, rgb):
        for quantizer in (
            UniformQuantizer(4, "rgb"),
            UniformQuantizer(3, "hsv"),
            UniformQuantizer(3, "luv"),
        ):
            assert 0 <= quantizer.bin_of(rgb) < quantizer.bin_count

    def test_bin_indices_vectorized_matches_scalar(self, rng):
        quantizer = UniformQuantizer(4, "rgb")
        pixels = rng.integers(0, 256, size=(30, 3)).astype(np.uint8)
        vector = quantizer.bin_indices(pixels)
        for row, expected in zip(pixels, vector):
            assert quantizer.bin_of(tuple(int(v) for v in row)) == int(expected)

    def test_bin_indices_2d_image_shape(self, rng):
        quantizer = UniformQuantizer(4, "rgb")
        pixels = rng.integers(0, 256, size=(5, 7, 3)).astype(np.uint8)
        assert quantizer.bin_indices(pixels).shape == (5, 7)


def arithmetic_bin_indices(quantizer, rgb_pixels):
    """Reference: divide / floor / clip per channel, no look-up tables."""
    coords = convert_pixels(rgb_pixels, quantizer.space)
    cells = np.empty(coords.shape, dtype=np.int64)
    for channel, (low, high) in enumerate(channel_ranges(quantizer.space)):
        scaled = (coords[..., channel] - low) / (high - low) * quantizer.divisions
        cells[..., channel] = np.clip(
            np.floor(scaled).astype(np.int64), 0, quantizer.divisions - 1
        )
    d = quantizer.divisions
    return cells[..., 0] * d * d + cells[..., 1] * d + cells[..., 2]


class TestChannelTables:
    @pytest.mark.parametrize("divisions", [1, 2, 3, 4, 5, 7, 8, 16, 256])
    def test_rgb_tables_equal_arithmetic_for_every_channel_value(self, divisions, rng):
        quantizer = UniformQuantizer(divisions, "rgb")
        values = np.arange(256, dtype=np.uint8)
        for channel in range(3):
            pixels = rng.integers(0, 256, size=(256, 3)).astype(np.uint8)
            pixels[:, channel] = values
            assert np.array_equal(
                quantizer.bin_indices(pixels), arithmetic_bin_indices(quantizer, pixels)
            )

    def test_rgb_image_shaped_and_strided_input(self, rng):
        quantizer = UniformQuantizer(4, "rgb")
        pixels = rng.integers(0, 256, size=(9, 11, 3)).astype(np.uint8)
        for view in (pixels, pixels[2:7, 1:9], pixels[::2, ::3]):
            assert np.array_equal(
                quantizer.bin_indices(view), arithmetic_bin_indices(quantizer, view)
            )

    def test_rgb_wider_dtypes_still_clip_into_the_last_cell(self):
        quantizer = UniformQuantizer(4, "rgb")
        pixels = np.array([[300, 0, 255], [-5, 128, 64]], dtype=np.int64)
        assert np.array_equal(
            quantizer.bin_indices(pixels), arithmetic_bin_indices(quantizer, pixels)
        )

    @pytest.mark.parametrize("space", ["hsv", "luv"])
    @pytest.mark.parametrize("divisions", [1, 3, 4, 8])
    def test_non_separable_spaces_keep_the_conversion_path(self, space, divisions, rng):
        quantizer = UniformQuantizer(divisions, space)
        pixels = rng.integers(0, 256, size=(400, 3)).astype(np.uint8)
        pixels[:8] = [
            (0, 0, 0), (255, 255, 255), (255, 0, 0), (0, 255, 0),
            (0, 0, 255), (128, 128, 128), (255, 255, 0), (1, 0, 1),
        ]
        assert np.array_equal(
            quantizer.bin_indices(pixels), arithmetic_bin_indices(quantizer, pixels)
        )


class TestCellMapping:
    def test_cell_of_round_trips_flat_index(self):
        quantizer = UniformQuantizer(4, "rgb")
        for bin_index in range(quantizer.bin_count):
            i, j, k = quantizer.cell_of(bin_index)
            assert i * 16 + j * 4 + k == bin_index
            assert all(0 <= c < 4 for c in (i, j, k))

    def test_cell_of_invalid(self):
        with pytest.raises(ColorError):
            UniformQuantizer(2, "rgb").cell_of(8)

    def test_validate_bin(self):
        quantizer = UniformQuantizer(2, "rgb")
        assert quantizer.validate_bin(0) == 0
        assert quantizer.validate_bin(7) == 7
        with pytest.raises(ColorError):
            quantizer.validate_bin(-1)
        with pytest.raises(ColorError):
            quantizer.validate_bin(8)


class TestDescribe:
    def test_describe(self):
        assert UniformQuantizer(4, "rgb").describe() == "rgb/4^3=64 bins"
