"""Unit and property tests for histogram similarity functions, and for
the scalar interval bounds the kNN parity tests use as oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.color.histogram import ColorHistogram
from repro.color.quantization import UniformQuantizer
from repro.color.similarity import (
    histogram_intersection,
    intersection_distance,
    l1_distance,
    l2_distance,
    lp_distance,
)
from repro.errors import HistogramError
from tests.oracles import intersection_upper_bound, l1_lower_bound

Q2 = UniformQuantizer(2, "rgb")


def histogram_from_counts(counts):
    arr = np.asarray(counts, dtype=np.int64)
    return ColorHistogram(Q2, arr, int(arr.sum()))


counts_strategy = st.lists(st.integers(0, 30), min_size=8, max_size=8).filter(
    lambda values: sum(values) > 0
)


class TestIntersection:
    def test_identical_histograms_give_one(self):
        h = histogram_from_counts([4, 0, 0, 0, 0, 0, 0, 4])
        assert histogram_intersection(h, h) == pytest.approx(1.0)

    def test_disjoint_histograms_give_zero(self):
        a = histogram_from_counts([8, 0, 0, 0, 0, 0, 0, 0])
        b = histogram_from_counts([0, 0, 0, 0, 0, 0, 0, 8])
        assert histogram_intersection(a, b) == 0.0

    def test_known_value(self):
        a = histogram_from_counts([6, 2, 0, 0, 0, 0, 0, 0])
        b = histogram_from_counts([2, 6, 0, 0, 0, 0, 0, 0])
        assert histogram_intersection(a, b) == pytest.approx(0.5)

    @given(counts_strategy, counts_strategy)
    @settings(max_examples=50)
    def test_symmetric_and_bounded(self, xs, ys):
        a, b = histogram_from_counts(xs), histogram_from_counts(ys)
        value = histogram_intersection(a, b)
        assert value == pytest.approx(histogram_intersection(b, a))
        assert 0.0 <= value <= 1.0 + 1e-12

    def test_incompatible_quantizers_rejected(self):
        a = histogram_from_counts([1] * 8)
        other = ColorHistogram(
            UniformQuantizer(4, "rgb"), np.ones(64, dtype=np.int64), 64
        )
        with pytest.raises(HistogramError):
            histogram_intersection(a, other)

    def test_intersection_distance_complement(self):
        a = histogram_from_counts([6, 2, 0, 0, 0, 0, 0, 0])
        b = histogram_from_counts([2, 6, 0, 0, 0, 0, 0, 0])
        assert intersection_distance(a, b) == pytest.approx(0.5)


class TestLpDistances:
    def test_l1_known_value(self):
        a = histogram_from_counts([4, 0, 0, 0, 0, 0, 0, 0])
        b = histogram_from_counts([0, 4, 0, 0, 0, 0, 0, 0])
        assert l1_distance(a, b) == pytest.approx(2.0)

    def test_l2_known_value(self):
        a = histogram_from_counts([4, 0, 0, 0, 0, 0, 0, 0])
        b = histogram_from_counts([0, 4, 0, 0, 0, 0, 0, 0])
        assert l2_distance(a, b) == pytest.approx(np.sqrt(2.0))

    def test_p_below_one_rejected(self):
        h = histogram_from_counts([1] * 8)
        with pytest.raises(HistogramError):
            lp_distance(h, h, p=0.5)

    def test_fractional_p_supported(self):
        a = histogram_from_counts([4, 0, 0, 0, 0, 0, 0, 0])
        b = histogram_from_counts([0, 4, 0, 0, 0, 0, 0, 0])
        assert lp_distance(a, b, p=3.0) == pytest.approx(2 ** (1 / 3))

    @given(counts_strategy, counts_strategy, counts_strategy)
    @settings(max_examples=40)
    def test_l1_triangle_inequality(self, xs, ys, zs):
        a, b, c = map(histogram_from_counts, (xs, ys, zs))
        assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c) + 1e-9

    @given(counts_strategy, counts_strategy)
    @settings(max_examples=40)
    def test_l1_identity_and_symmetry(self, xs, ys):
        a, b = histogram_from_counts(xs), histogram_from_counts(ys)
        assert l1_distance(a, a) == pytest.approx(0.0)
        assert l1_distance(a, b) == pytest.approx(l1_distance(b, a))

    @given(counts_strategy, counts_strategy)
    @settings(max_examples=40)
    def test_l1_equals_twice_one_minus_intersection(self, xs, ys):
        # Classic identity over normalized histograms.
        a, b = histogram_from_counts(xs), histogram_from_counts(ys)
        assert l1_distance(a, b) == pytest.approx(
            2.0 * (1.0 - histogram_intersection(a, b))
        )


class TestIntervalBounds:
    def test_l1_lower_bound_zero_when_query_inside(self):
        q = np.array([0.5, 0.5, 0, 0, 0, 0, 0, 0])
        lo = np.zeros(8)
        hi = np.ones(8)
        assert l1_lower_bound(q, lo, hi) == 0.0

    def test_l1_lower_bound_positive_when_outside(self):
        q = np.array([1.0, 0, 0, 0, 0, 0, 0, 0])
        lo = np.zeros(8)
        hi = np.zeros(8)
        hi[0] = 0.4
        assert l1_lower_bound(q, lo, hi) == pytest.approx(0.6)

    def test_l1_lower_bound_never_exceeds_true_distance(self, rng):
        for _ in range(50):
            a = histogram_from_counts(rng.integers(0, 20, size=8) + 1)
            b = histogram_from_counts(rng.integers(0, 20, size=8) + 1)
            width = rng.uniform(0, 0.2, size=8)
            lo = np.clip(b.fractions() - width, 0, 1)
            hi = np.clip(b.fractions() + width, 0, 1)
            assert l1_lower_bound(a.fractions(), lo, hi) <= l1_distance(a, b) + 1e-9

    def test_l1_lower_bound_shape_mismatch(self):
        with pytest.raises(HistogramError):
            l1_lower_bound(np.zeros(8), np.zeros(7), np.zeros(8))

    def test_l1_lower_bound_inverted_interval(self):
        with pytest.raises(HistogramError):
            l1_lower_bound(np.zeros(8), np.ones(8), np.zeros(8))

    def test_intersection_upper_bound_dominates_truth(self, rng):
        for _ in range(50):
            a = histogram_from_counts(rng.integers(0, 20, size=8) + 1)
            b = histogram_from_counts(rng.integers(0, 20, size=8) + 1)
            hi = np.clip(b.fractions() + rng.uniform(0, 0.2, size=8), 0, 1)
            assert (
                intersection_upper_bound(a.fractions(), hi)
                >= histogram_intersection(a, b) - 1e-9
            )

    def test_intersection_upper_bound_shape_mismatch(self):
        with pytest.raises(HistogramError):
            intersection_upper_bound(np.zeros(8), np.zeros(9))


class TestQuadraticForm:
    def test_similarity_matrix_properties(self):
        from repro.color.similarity import bin_similarity_matrix

        matrix = bin_similarity_matrix(Q2)
        assert matrix.shape == (8, 8)
        assert np.allclose(np.diag(matrix), 1.0)
        assert np.allclose(matrix, matrix.T)
        assert (matrix > 0).all() and (matrix <= 1).all()

    def test_sigma_validation(self):
        from repro.color.similarity import bin_similarity_matrix

        with pytest.raises(HistogramError):
            bin_similarity_matrix(Q2, sigma=0.0)

    def test_identity_distance_zero(self):
        from repro.color.similarity import quadratic_form_distance

        h = histogram_from_counts([3, 5, 0, 0, 0, 0, 0, 0])
        assert quadratic_form_distance(h, h) == pytest.approx(0.0)

    def test_cross_bin_awareness(self):
        from repro.color.similarity import quadratic_form_distance

        # Bins 0 (0,0,0) and 1 (0,0,1) are adjacent cells; bin 7 (1,1,1)
        # is the far corner.  Moving mass to the adjacent bin must score
        # closer than moving it to the far corner.
        base = histogram_from_counts([8, 0, 0, 0, 0, 0, 0, 0])
        near = histogram_from_counts([0, 8, 0, 0, 0, 0, 0, 0])
        far = histogram_from_counts([0, 0, 0, 0, 0, 0, 0, 8])
        assert quadratic_form_distance(base, near) < quadratic_form_distance(base, far)
        # L1 cannot tell the difference.
        assert l1_distance(base, near) == l1_distance(base, far)

    def test_explicit_matrix_shape_checked(self):
        from repro.color.similarity import quadratic_form_distance

        a = histogram_from_counts([1] * 8)
        with pytest.raises(HistogramError):
            quadratic_form_distance(a, a, similarity_matrix=np.eye(4))

    def test_identity_matrix_reduces_to_l2(self):
        from repro.color.similarity import quadratic_form_distance

        a = histogram_from_counts([4, 0, 0, 0, 0, 0, 0, 0])
        b = histogram_from_counts([0, 4, 0, 0, 0, 0, 0, 0])
        assert quadratic_form_distance(a, b, similarity_matrix=np.eye(8)) == (
            pytest.approx(l2_distance(a, b))
        )

    @given(counts_strategy, counts_strategy)
    @settings(max_examples=30)
    def test_symmetric_nonnegative(self, xs, ys):
        from repro.color.similarity import quadratic_form_distance

        a, b = histogram_from_counts(xs), histogram_from_counts(ys)
        d_ab = quadratic_form_distance(a, b)
        assert d_ab == pytest.approx(quadratic_form_distance(b, a))
        assert d_ab >= 0.0
