"""Unit and property tests for color histograms."""

import numpy as np
import pytest

from repro.color.histogram import ColorHistogram
from repro.color.quantization import UniformQuantizer
from repro.errors import HistogramError
from repro.images.raster import Image
from tests.images.builders import random_noise_image


@pytest.fixture
def q2():
    return UniformQuantizer(2, "rgb")


class TestExtraction:
    def test_flat_image_single_bin(self, q2):
        image = Image.filled(4, 5, (0, 0, 0))
        histogram = ColorHistogram.of_image(image, q2)
        assert histogram.total == 20
        assert histogram.count(0) == 20
        assert histogram.fraction(0) == 1.0
        assert int(histogram.counts.sum()) == 20

    def test_two_color_split(self, q2):
        image = Image.filled(2, 2, (0, 0, 0))
        image.set_pixel(0, 0, (255, 255, 255))
        histogram = ColorHistogram.of_image(image, q2)
        assert histogram.count(0) == 3
        assert histogram.count(7) == 1
        assert histogram.fraction(7) == 0.25

    def test_counts_sum_to_total(self, rng, quantizer):
        image = random_noise_image(rng, 13, 17)
        histogram = ColorHistogram.of_image(image, quantizer)
        assert int(histogram.counts.sum()) == image.size

    def test_fractions_sum_to_one(self, rng, quantizer):
        image = random_noise_image(rng, 9, 9)
        histogram = ColorHistogram.of_image(image, quantizer)
        assert histogram.fractions().sum() == pytest.approx(1.0)

    def test_counts_immutable(self, q2, flat_image):
        histogram = ColorHistogram.of_image(flat_image, q2)
        with pytest.raises(ValueError):
            histogram.counts[0] = 5


class TestValidation:
    def test_wrong_length_rejected(self, q2):
        with pytest.raises(HistogramError):
            ColorHistogram(q2, np.zeros(5, dtype=np.int64), 0)

    def test_negative_count_rejected(self, q2):
        counts = np.zeros(8, dtype=np.int64)
        counts[0] = -1
        with pytest.raises(HistogramError):
            ColorHistogram(q2, counts, -1)

    def test_total_mismatch_rejected(self, q2):
        counts = np.zeros(8, dtype=np.int64)
        counts[0] = 5
        with pytest.raises(HistogramError):
            ColorHistogram(q2, counts, 6)

    def test_empty_total_rejected(self, q2):
        with pytest.raises(HistogramError):
            ColorHistogram(q2, np.zeros(8, dtype=np.int64), 0)


class TestQueries:
    def test_satisfies_range_closed_interval(self, q2):
        image = Image.filled(2, 2, (0, 0, 0))
        image.set_pixel(0, 0, (255, 255, 255))
        histogram = ColorHistogram.of_image(image, q2)
        assert histogram.satisfies_range(7, 0.25, 0.25)
        assert histogram.satisfies_range(7, 0.1, 0.3)
        assert not histogram.satisfies_range(7, 0.3, 0.9)

    def test_satisfies_range_rejects_empty_interval(self, q2, flat_image):
        histogram = ColorHistogram.of_image(flat_image, q2)
        with pytest.raises(HistogramError):
            histogram.satisfies_range(0, 0.8, 0.2)

    def test_dominant_bins_ordering(self, q2):
        image = Image.filled(4, 4, (0, 0, 0))
        image.region(type(image.bounds)(0, 0, 1, 3))[:] = (255, 255, 255)
        histogram = ColorHistogram.of_image(image, q2)
        assert histogram.dominant_bins(2) == (0, 7)

    def test_dominant_bins_excludes_empty(self, q2, flat_image):
        histogram = ColorHistogram.of_image(flat_image, q2)
        assert len(histogram.dominant_bins(5)) == 1

    def test_dominant_bins_k_positive(self, q2, flat_image):
        histogram = ColorHistogram.of_image(flat_image, q2)
        with pytest.raises(HistogramError):
            histogram.dominant_bins(0)

    def test_count_validates_bin(self, q2, flat_image):
        histogram = ColorHistogram.of_image(flat_image, q2)
        with pytest.raises(Exception):
            histogram.count(64)


class TestCompatibility:
    def test_require_compatible(self, q2, flat_image):
        a = ColorHistogram.of_image(flat_image, q2)
        b = ColorHistogram.of_image(flat_image, UniformQuantizer(4, "rgb"))
        with pytest.raises(HistogramError):
            a.require_compatible(b)
        a.require_compatible(a)

    def test_equality_and_hash(self, q2, flat_image):
        a = ColorHistogram.of_image(flat_image, q2)
        b = ColorHistogram.of_image(flat_image.copy(), q2)
        assert a == b
        assert hash(a) == hash(b)

    def test_repr_mentions_quantizer(self, q2, flat_image):
        assert "rgb/2^3=8 bins" in repr(ColorHistogram.of_image(flat_image, q2))
