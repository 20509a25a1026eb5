"""Unit and property tests for the R-tree, with the linear scan as oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.index.linear import LinearIndex
from repro.index.mbr import MBR
from repro.index.rtree import RTree


def random_points(rng, count, dims=3):
    return rng.uniform(0.0, 1.0, size=(count, dims))


class TestConstruction:
    def test_capacity_validation(self):
        with pytest.raises(IndexError_):
            RTree(max_entries=3)
        with pytest.raises(IndexError_):
            RTree(max_entries=8, min_entries=5)
        with pytest.raises(IndexError_):
            RTree(max_entries=8, min_entries=0)

    def test_empty_tree(self):
        tree = RTree()
        assert len(tree) == 0
        assert tree.height == 1
        assert tree.search(MBR([0], [1])) == []
        assert tree.nearest([0.5], k=3) == []


class TestInsertSearch:
    def test_single_point(self):
        tree = RTree()
        tree.insert_point([0.5, 0.5], "a")
        assert tree.search(MBR([0, 0], [1, 1])) == ["a"]
        assert tree.search(MBR([0.6, 0.6], [1, 1])) == []

    def test_dimension_mismatch_rejected(self):
        tree = RTree()
        tree.insert_point([0.5, 0.5], "a")
        with pytest.raises(IndexError_):
            tree.insert_point([0.5, 0.5, 0.5], "b")

    def test_splits_keep_everything_findable(self, rng):
        tree = RTree(max_entries=4)
        points = random_points(rng, 100)
        for index, point in enumerate(points):
            tree.insert_point(point, index)
        assert len(tree) == 100
        assert tree.height > 1
        found = tree.search(MBR([0, 0, 0], [1, 1, 1]))
        assert sorted(found) == list(range(100))
        tree.check_invariants()

    def test_duplicate_points_allowed(self):
        tree = RTree()
        for index in range(10):
            tree.insert_point([0.5, 0.5], index)
        assert sorted(tree.search(MBR([0.5, 0.5], [0.5, 0.5]))) == list(range(10))

    def test_items_iterates_all(self, rng):
        tree = RTree(max_entries=4)
        for index, point in enumerate(random_points(rng, 30)):
            tree.insert_point(point, index)
        assert sorted(payload for _, payload in tree.items()) == list(range(30))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 60))
    @settings(max_examples=25, deadline=None)
    def test_range_search_matches_linear_oracle(self, seed, count):
        rng = np.random.default_rng(seed)
        tree = RTree(max_entries=5)
        oracle = LinearIndex()
        for index, point in enumerate(random_points(rng, count)):
            tree.insert_point(point, index)
            oracle.insert_point(point, index)
        for _ in range(5):
            lows = rng.uniform(0, 1, size=3)
            highs = np.minimum(lows + rng.uniform(0, 0.8, size=3), 1.0)
            box = MBR(lows, highs)
            assert sorted(tree.search(box)) == sorted(oracle.search(box))
        tree.check_invariants()


class TestNearest:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 50), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_knn_matches_linear_oracle(self, seed, count, k):
        rng = np.random.default_rng(seed)
        tree = RTree(max_entries=5)
        oracle = LinearIndex()
        for index, point in enumerate(random_points(rng, count)):
            tree.insert_point(point, index)
            oracle.insert_point(point, index)
        query = rng.uniform(0, 1, size=3)
        tree_result = tree.nearest(query, k=k)
        oracle_result = oracle.nearest(query, k=k)
        assert [round(d, 9) for d, _ in tree_result] == [
            round(d, 9) for d, _ in oracle_result
        ]

    def test_k_validation(self):
        tree = RTree()
        with pytest.raises(IndexError_):
            tree.nearest([0.5], k=0)

    def test_nearest_distances_ascending(self, rng):
        tree = RTree(max_entries=4)
        for index, point in enumerate(random_points(rng, 40)):
            tree.insert_point(point, index)
        distances = [d for d, _ in tree.nearest([0.5, 0.5, 0.5], k=10)]
        assert distances == sorted(distances)


class TestLinearIndex:
    def test_nearest_k_validation(self):
        with pytest.raises(IndexError_):
            LinearIndex().nearest([0.0], k=-1)

    def test_items(self):
        index = LinearIndex()
        index.insert_point([0.1], "a")
        assert [payload for _, payload in index.items()] == ["a"]


class TestBulkLoad:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 150))
    @settings(max_examples=20, deadline=None)
    def test_bulk_load_matches_incremental(self, seed, count):
        rng = np.random.default_rng(seed)
        points = random_points(rng, count) if count else np.zeros((0, 3))
        packed = RTree.bulk_load(points, list(range(count)), max_entries=6)
        incremental = RTree(max_entries=6)
        for index in range(count):
            incremental.insert_point(points[index], index)
        assert len(packed) == count
        for _ in range(4):
            lows = rng.uniform(0, 1, size=3)
            highs = np.minimum(lows + rng.uniform(0, 0.8, size=3), 1.0)
            box = MBR(lows, highs)
            assert sorted(packed.search(box)) == sorted(incremental.search(box))

    def test_bulk_load_balanced_and_shallower(self, rng):
        points = random_points(rng, 300)
        packed = RTree.bulk_load(points, list(range(300)), max_entries=8)
        incremental = RTree(max_entries=8)
        for index, point in enumerate(points):
            incremental.insert_point(point, index)
        # Packed trees are at least as shallow as incrementally built ones.
        assert packed.height <= incremental.height
        # Balanced, and every non-root node holds [M // 2, M] entries:
        # STR cuts each level into nodes whose sizes differ by at most one.
        packed.check_invariants()

    @pytest.mark.parametrize("max_entries", [4, 6, 8])
    @pytest.mark.parametrize("shape", ["points", "boxes"])
    def test_packed_tree_passes_invariants_at_every_size(self, max_entries, shape):
        rng = np.random.default_rng(max_entries)
        for count in range(301):
            lows = random_points(rng, count, dims=2)
            if shape == "points":
                tree = RTree.bulk_load(lows, list(range(count)), max_entries)
            else:
                highs = lows + rng.uniform(0.0, 0.3, size=lows.shape)
                tree = RTree.bulk_load_boxes(
                    lows, highs, list(range(count)), max_entries
                )
            tree.check_invariants()
            assert len(tree) == count
            assert sorted(tree.search(MBR([0, 0], [2, 2]))) == list(range(count))

    def test_bulk_load_supports_further_inserts(self, rng):
        points = random_points(rng, 60)
        tree = RTree.bulk_load(points, list(range(60)), max_entries=6)
        tree.insert_point([0.5, 0.5, 0.5], "extra")
        assert "extra" in tree.search(MBR.point([0.5, 0.5, 0.5]))
        assert len(tree) == 61
        tree.check_invariants()

    def test_bulk_load_validation(self):
        with pytest.raises(IndexError_):
            RTree.bulk_load(np.zeros((3, 2)), ["a"])  # payload mismatch
        with pytest.raises(IndexError_):
            RTree.bulk_load(np.zeros(5), ["a"] * 5)  # not (n, d)

    def test_bulk_load_boxes_validation(self):
        lows = np.zeros((3, 2))
        with pytest.raises(IndexError_, match="payloads"):
            RTree.bulk_load_boxes(lows, lows + 1, ["a"])
        with pytest.raises(IndexError_, match="corner arrays"):
            RTree.bulk_load_boxes(lows, np.ones((3, 3)), ["a"] * 3)
        with pytest.raises(IndexError_, match="lower bound exceeds"):
            RTree.bulk_load_boxes(lows, lows - 1, ["a"] * 3)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 150))
    @settings(max_examples=20, deadline=None)
    def test_bulk_load_boxes_matches_incremental(self, seed, count):
        rng = np.random.default_rng(seed)
        lows = random_points(rng, count)
        highs = lows + rng.uniform(0.0, 0.2, size=lows.shape)
        packed = RTree.bulk_load_boxes(lows, highs, list(range(count)), 5)
        incremental = RTree(max_entries=5)
        for index in range(count):
            incremental.insert(MBR(lows[index], highs[index]), index)
        for _ in range(4):
            axis, low = int(rng.integers(3)), float(rng.uniform(0.0, 1.0))
            slab = MBR.slab(3, axis, low, low + 0.1)
            assert sorted(packed.search(slab)) == sorted(incremental.search(slab))

    def test_bulk_load_empty(self):
        tree = RTree.bulk_load(np.zeros((0, 4)), [])
        assert len(tree) == 0
        assert tree.search(MBR([0] * 4, [1] * 4)) == []

    def test_bulk_load_knn_matches_linear(self, rng):
        points = random_points(rng, 80)
        tree = RTree.bulk_load(points, list(range(80)))
        oracle = LinearIndex()
        for index, point in enumerate(points):
            oracle.insert_point(point, index)
        query = rng.uniform(0, 1, size=3)
        assert [round(d, 9) for d, _ in tree.nearest(query, 5)] == [
            round(d, 9) for d, _ in oracle.nearest(query, 5)
        ]
