"""Unit and property tests for the VA-file, with the linear scan oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.index.linear import LinearIndex
from repro.index.mbr import MBR
from repro.index.vafile import VAFile


def random_points(rng, count, dims=8):
    return rng.uniform(0.0, 1.0, size=(count, dims))


class TestConstruction:
    def test_bits_validation(self):
        with pytest.raises(IndexError_):
            VAFile(bits=0)
        with pytest.raises(IndexError_):
            VAFile(bits=9)

    def test_domain_validation(self):
        with pytest.raises(IndexError_):
            VAFile(lo=1.0, hi=0.0)

    def test_empty_file(self):
        file = VAFile()
        assert len(file) == 0
        assert file.search(MBR([0], [1])) == []
        assert file.nearest([0.5], k=2) == []
        assert file.approximation_bytes() == 0

    def test_out_of_domain_rejected(self):
        file = VAFile()
        with pytest.raises(IndexError_):
            file.insert_point([1.5], "a")

    def test_dimension_mismatch_rejected(self):
        file = VAFile()
        file.insert_point([0.5, 0.5], "a")
        with pytest.raises(IndexError_):
            file.insert_point([0.5], "b")

    def test_extended_box_rejected(self):
        with pytest.raises(IndexError_):
            VAFile().insert(MBR([0.0, 0.0], [0.5, 0.5]), "a")

    def test_approximation_bytes_scale(self):
        file = VAFile(bits=4)
        for index in range(10):
            file.insert_point(np.full(16, 0.5), index)
        # 16 dims x 4 bits = 8 bytes per vector.
        assert file.approximation_bytes() == 80


class TestSearchOracle:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 80), st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_range_search_matches_linear(self, seed, count, bits):
        rng = np.random.default_rng(seed)
        vafile = VAFile(bits=bits)
        oracle = LinearIndex()
        for index, point in enumerate(random_points(rng, count, dims=5)):
            vafile.insert_point(point, index)
            oracle.insert_point(point, index)
        for _ in range(4):
            lows = rng.uniform(0, 1, size=5)
            highs = np.minimum(lows + rng.uniform(0, 0.7, size=5), 1.0)
            box = MBR(lows, highs)
            assert sorted(vafile.search(box)) == sorted(oracle.search(box))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 60), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_knn_matches_linear(self, seed, count, k):
        rng = np.random.default_rng(seed)
        vafile = VAFile(bits=4)
        oracle = LinearIndex()
        for index, point in enumerate(random_points(rng, count, dims=4)):
            vafile.insert_point(point, index)
            oracle.insert_point(point, index)
        query = rng.uniform(0, 1, size=4)
        mine = vafile.nearest(query, k=k)
        truth = oracle.nearest(query, k=k)
        assert [round(d, 9) for d, _ in mine] == [round(d, 9) for d, _ in truth]

    def test_slab_queries(self, rng):
        vafile = VAFile(bits=4)
        points = random_points(rng, 60, dims=6)
        for index, point in enumerate(points):
            vafile.insert_point(point, index)
        box = MBR.slab(6, 2, 0.25, 0.75, domain_lo=0.0, domain_hi=1.0)
        expected = [i for i, p in enumerate(points) if 0.25 <= p[2] <= 0.75]
        assert sorted(vafile.search(box)) == expected


class TestApproximationEffectiveness:
    def test_most_vectors_answered_from_approximations(self, rng):
        vafile = VAFile(bits=6)
        count = 500
        for index, point in enumerate(random_points(rng, count, dims=8)):
            vafile.insert_point(point, index)
        vafile.search(MBR.slab(8, 0, 0.4, 0.6, domain_lo=0.0, domain_hi=1.0))
        # Only vectors whose dim-0 cell straddles the 0.4/0.6 boundaries
        # need exact refinement — a small fraction at 6 bits.
        assert vafile.last_refinements < count * 0.2

    def test_knn_prunes_refinements(self, rng):
        vafile = VAFile(bits=6)
        count = 400
        for index, point in enumerate(random_points(rng, count, dims=6)):
            vafile.insert_point(point, index)
        vafile.nearest(rng.uniform(0, 1, size=6), k=5)
        assert vafile.last_refinements < count


class TestItems:
    def test_items(self):
        vafile = VAFile()
        vafile.insert_point([0.25, 0.5], "a")
        entries = list(vafile.items())
        assert len(entries) == 1
        assert entries[0][1] == "a"
