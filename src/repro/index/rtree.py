"""A Guttman R-tree over histogram space (the conventional access path).

§3.1: "to reduce the query processing time, the histograms can be
organized in multidimensional indexes such as the R-tree [13] and its
numerous variants."  §4 models BWM on the same pruning idea: "quickly
identifying sections of the multidimensional space that cannot contain
any histograms of images that satisfy the given query."

This is a from-scratch R-tree built one of two ways, with one node
structure and one search:

* incrementally — :meth:`RTree.insert` with Guttman's quadratic split;
* packed — :meth:`RTree.bulk_load_boxes` builds a whole snapshot with
  Sort-Tile-Recursive (STR) packing, vectorized over ``(n, d)`` corner
  arrays; :meth:`RTree.bulk_load` is the same load for points.  A packed
  tree keeps accepting inserts.

Nothing deletes: the index builders rebuild from a snapshot after a
write, and A4 inserts and searches.

Entries are ``(MBR, payload)`` pairs; point data uses degenerate boxes.
``search(box)`` returns payloads whose MBRs intersect the query box — a
single-bin range query is an :meth:`repro.index.mbr.MBR.slab` — and
``nearest(point, k)`` is best-first kNN with the MINDIST bound.  The
linear scan in :mod:`repro.index.linear` shares the interface for the A4
bench.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IndexError_
from repro.index.mbr import MBR


class _Node:
    """An internal or leaf R-tree node."""

    __slots__ = ("leaf", "entries", "parent")

    def __init__(self, leaf: bool) -> None:
        self.leaf = leaf
        #: Leaf entries are ``(MBR, payload)``; internal are ``(MBR, _Node)``.
        self.entries: List[Tuple[MBR, object]] = []
        self.parent: Optional["_Node"] = None

    def mbr(self) -> Optional[MBR]:
        return MBR.union_all(box for box, _ in self.entries)


class RTree:
    """R-tree with quadratic split, built by insertion or STR packing.

    Parameters
    ----------
    max_entries:
        Node capacity ``M`` (>= 4); nodes split when they exceed it.
    min_entries:
        Underflow threshold ``m``; defaults to ``max_entries // 2``.
    """

    def __init__(self, max_entries: int = 8, min_entries: Optional[int] = None) -> None:
        if max_entries < 4:
            raise IndexError_("max_entries must be at least 4")
        self._max = max_entries
        self._min = min_entries if min_entries is not None else max_entries // 2
        if not 1 <= self._min <= self._max // 2:
            raise IndexError_(
                f"min_entries must be in [1, {self._max // 2}], got {self._min}"
            )
        self._root = _Node(leaf=True)
        self._size = 0
        self._dimensions: Optional[int] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Tree height (1 for a lone leaf root)."""
        node, levels = self._root, 1
        while not node.leaf:
            node = node.entries[0][1]  # type: ignore[assignment]
            levels += 1
        return levels

    def insert(self, box: MBR, payload: object) -> None:
        """Insert one ``(box, payload)`` entry."""
        if self._dimensions is None:
            self._dimensions = box.dimensions
        elif box.dimensions != self._dimensions:
            raise IndexError_(
                f"dimension mismatch: tree is {self._dimensions}-d, box is "
                f"{box.dimensions}-d"
            )
        leaf = self._choose_leaf(self._root, box)
        leaf.entries.append((box, payload))
        self._size += 1
        self._handle_overflow(leaf)

    def insert_point(self, coords: Sequence[float], payload: object) -> None:
        """Insert a point datum (degenerate box)."""
        self.insert(MBR.point(coords), payload)

    @classmethod
    def bulk_load(
        cls,
        points,
        payloads: Sequence[object],
        max_entries: int = 8,
    ) -> "RTree":
        """Pack point data: :meth:`bulk_load_boxes` with ``lo == hi``."""
        matrix = np.asarray(points, dtype=np.float64)
        if matrix.ndim != 2:
            raise IndexError_(f"expected (n, d) points, got shape {matrix.shape}")
        return cls.bulk_load_boxes(matrix, matrix, payloads, max_entries)

    @classmethod
    def bulk_load_boxes(
        cls,
        lo,
        hi,
        payloads: Sequence[object],
        max_entries: int = 8,
    ) -> "RTree":
        """Build a packed tree over boxes with Sort-Tile-Recursive (STR).

        Box ``i`` spans ``[lo[i], hi[i]]``.  Each level orders its
        entries by box centre on the first axis (stable), tiles them into
        ``~sqrt(P)`` slabs of consecutive nodes, orders each slab on the
        second axis, and cuts the ``P = ceil(n / M)`` nodes so their sizes
        differ by at most one — every non-root node holds at least
        ``M // 2`` entries, so the result passes :meth:`check_invariants`.
        A node's box is the min/max over its children's rows.  The tree
        answers queries exactly as one built by :meth:`insert`, with
        near-full nodes and often one level fewer.
        """
        lows = np.asarray(lo, dtype=np.float64)
        highs = np.asarray(hi, dtype=np.float64)
        if lows.ndim != 2 or lows.shape != highs.shape:
            raise IndexError_(
                f"expected two (n, d) corner arrays, got shapes {lows.shape} "
                f"and {highs.shape}"
            )
        if lows.shape[0] != len(payloads):
            raise IndexError_(f"{lows.shape[0]} boxes but {len(payloads)} payloads")
        if (lows > highs).any():
            raise IndexError_("MBR lower bound exceeds upper bound")
        tree = cls(max_entries=max_entries)
        if lows.shape[0] == 0:
            return tree
        tree._dimensions = int(lows.shape[1])
        nodes, lows, highs = tree._pack_level(lows, highs, list(payloads), leaf=True)
        while len(nodes) > 1:
            nodes, lows, highs = tree._pack_level(lows, highs, nodes, leaf=False)
        tree._root = nodes[0]
        tree._size = len(payloads)
        return tree

    def _pack_level(
        self, lows: np.ndarray, highs: np.ndarray, items: List, leaf: bool
    ) -> Tuple[List["_Node"], np.ndarray, np.ndarray]:
        """Pack one STR level; returns its nodes and their boxes' corners."""
        count, dimensions = lows.shape
        node_count = -(-count // self._max)
        slab_count = math.ceil(math.sqrt(node_count))
        sizes = np.full(node_count, count // node_count)
        sizes[: count % node_count] += 1
        nodes_per_slab = np.full(slab_count, node_count // slab_count)
        nodes_per_slab[: node_count % slab_count] += 1
        slab_of_entry = np.repeat(
            np.repeat(np.arange(slab_count), nodes_per_slab), sizes
        )
        centres = (lows + highs) / 2.0
        by_first = np.argsort(centres[:, 0], kind="stable")
        order = by_first[
            np.lexsort((centres[by_first, 1 % dimensions], slab_of_entry))
        ]
        lows, highs = lows[order], highs[order]
        boxes = [MBR.trusted(low, high) for low, high in zip(lows, highs)]
        ordered = [items[index] for index in order.tolist()]
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        nodes: List[_Node] = []
        for start, size in zip(starts.tolist(), sizes.tolist()):
            node = _Node(leaf=leaf)
            node.entries = list(
                zip(boxes[start:start + size], ordered[start:start + size])
            )
            if not leaf:
                for child in ordered[start:start + size]:
                    child.parent = node
            nodes.append(node)
        return (
            nodes,
            np.minimum.reduceat(lows, starts, axis=0),
            np.maximum.reduceat(highs, starts, axis=0),
        )

    def search(self, box: MBR) -> List[object]:
        """Payloads of all entries whose MBR intersects ``box``."""
        results: List[object] = []
        if self._size:
            self._search_node(self._root, box, results)
        return results

    def nearest(self, coords: Sequence[float], k: int = 1) -> List[Tuple[float, object]]:
        """The ``k`` nearest point/box payloads by Euclidean MINDIST.

        Returns ``(distance, payload)`` pairs in ascending distance,
        using best-first traversal so only promising subtrees are opened.
        """
        if k <= 0:
            raise IndexError_("k must be positive")
        if not self._size:
            return []
        counter = itertools.count()
        heap: List[Tuple[float, int, bool, object]] = [
            (0.0, next(counter), False, self._root)
        ]
        results: List[Tuple[float, object]] = []
        while heap and len(results) < k:
            distance, _, is_entry, item = heapq.heappop(heap)
            if is_entry:
                results.append((distance, item))
                continue
            node: _Node = item  # type: ignore[assignment]
            for box, child in node.entries:
                child_distance = box.min_distance_to_point(coords)
                heapq.heappush(
                    heap, (child_distance, next(counter), node.leaf, child)
                )
        return results

    def items(self) -> Iterator[Tuple[MBR, object]]:
        """Iterate every stored ``(box, payload)`` entry."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.leaf:
                yield from node.entries
            else:
                stack.extend(child for _, child in node.entries)  # type: ignore[misc]

    def check_invariants(self) -> None:
        """Validate structure (tests): MBM containment, fanout, balance."""
        depths = set()
        self._check_node(self._root, 0, depths, is_root=True)
        if len(depths) > 1:
            raise IndexError_(f"leaves at multiple depths: {sorted(depths)}")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _choose_leaf(self, node: _Node, box: MBR) -> _Node:
        while not node.leaf:
            best = min(
                node.entries,
                key=lambda entry: (
                    entry[0].enlargement(box),
                    entry[0].margin_volume(),
                ),
            )
            node = best[1]  # type: ignore[assignment]
        return node

    def _handle_overflow(self, node: _Node) -> None:
        while len(node.entries) > self._max:
            sibling = self._split(node)
            parent = node.parent
            if parent is None:
                new_root = _Node(leaf=False)
                new_root.entries = [
                    (node.mbr(), node),  # type: ignore[list-item]
                    (sibling.mbr(), sibling),  # type: ignore[list-item]
                ]
                node.parent = new_root
                sibling.parent = new_root
                self._root = new_root
                return
            self._replace_child_box(parent, node)
            parent.entries.append((sibling.mbr(), sibling))  # type: ignore[arg-type]
            sibling.parent = parent
            node = parent
        self._refresh_ancestor_boxes(node)

    def _split(self, node: _Node) -> _Node:
        """Guttman's quadratic split; ``node`` keeps one group, returns the other."""
        entries = node.entries
        seed_a, seed_b = self._pick_seeds(entries)
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        box_a = entries[seed_a][0]
        box_b = entries[seed_b][0]
        remaining = [
            entry for index, entry in enumerate(entries) if index not in (seed_a, seed_b)
        ]

        while remaining:
            # Force assignment when one group must take everything left.
            if len(group_a) + len(remaining) == self._min:
                group_a.extend(remaining)
                remaining = []
                break
            if len(group_b) + len(remaining) == self._min:
                group_b.extend(remaining)
                remaining = []
                break
            # Pick the entry with the greatest preference difference.
            best_index, best_diff, prefer_a = 0, -1.0, True
            for index, (box, _) in enumerate(remaining):
                d_a = box_a.enlargement(box)
                d_b = box_b.enlargement(box)
                diff = abs(d_a - d_b)
                if diff > best_diff:
                    best_index, best_diff, prefer_a = index, diff, d_a < d_b
            box, payload = remaining.pop(best_index)
            if prefer_a:
                group_a.append((box, payload))
                box_a = box_a.union(box)
            else:
                group_b.append((box, payload))
                box_b = box_b.union(box)

        node.entries = group_a
        sibling = _Node(leaf=node.leaf)
        sibling.entries = group_b
        if not node.leaf:
            for _, child in group_b:
                child.parent = sibling  # type: ignore[union-attr]
        return sibling

    @staticmethod
    def _pick_seeds(entries: List[Tuple[MBR, object]]) -> Tuple[int, int]:
        """The pair wasting the most volume if grouped together."""
        worst_pair = (0, 1)
        worst_waste = -float("inf")
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                combined = entries[i][0].union(entries[j][0])
                waste = (
                    combined.margin_volume()
                    - entries[i][0].margin_volume()
                    - entries[j][0].margin_volume()
                )
                if waste > worst_waste:
                    worst_pair, worst_waste = (i, j), waste
        return worst_pair

    def _replace_child_box(self, parent: _Node, child: _Node) -> None:
        for index, (_, node) in enumerate(parent.entries):
            if node is child:
                parent.entries[index] = (child.mbr(), child)  # type: ignore[assignment]
                return
        raise IndexError_("corrupt tree: child missing from parent")

    def _refresh_ancestor_boxes(self, node: _Node) -> None:
        while node.parent is not None:
            self._replace_child_box(node.parent, node)
            node = node.parent

    def _search_node(self, node: _Node, box: MBR, results: List[object]) -> None:
        for entry_box, item in node.entries:
            if entry_box.intersects(box):
                if node.leaf:
                    results.append(item)
                else:
                    self._search_node(item, box, results)  # type: ignore[arg-type]

    def _check_node(
        self, node: _Node, depth: int, depths: set, is_root: bool
    ) -> None:
        if not is_root and not self._min <= len(node.entries) <= self._max:
            raise IndexError_(
                f"node fanout {len(node.entries)} outside [{self._min}, {self._max}]"
            )
        if len(node.entries) > self._max:
            raise IndexError_(f"node overflow: {len(node.entries)}")
        if node.leaf:
            depths.add(depth)
            return
        for box, child in node.entries:
            child_box = child.mbr()  # type: ignore[union-attr]
            if child_box is None or not (
                (box.lo <= child_box.lo).all() and (child_box.hi <= box.hi).all()
            ):
                raise IndexError_("parent MBR does not contain child MBR")
            if child.parent is not node:  # type: ignore[union-attr]
                raise IndexError_("broken parent pointer")
            self._check_node(child, depth + 1, depths, is_root=False)  # type: ignore[arg-type]
