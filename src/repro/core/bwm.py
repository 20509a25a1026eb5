"""BWM — the Bound-Widening Method (paper §4, the contribution).

Two pieces, mirroring the paper exactly:

* :class:`BWMStructure` — the proposed data structure: a **Main
  component** clustering bound-widening-only edited images under their
  referenced base image (``<B_id, E_list>`` tuples), and an
  **Unclassified component** listing edited images that contain at least
  one non-bound-widening operation.  Maintained incrementally by the
  Figure 1 insertion algorithm.

* :class:`BWMProcessor` — the Figure 2 query algorithm: walk the Main
  component; when a cluster's base histogram satisfies the query, emit
  the base and the entire cluster *without applying any rules*; otherwise
  fall back to per-image BOUNDS.  Unclassified images always get the full
  BOUNDS walk.

The result set is provably identical to RBM's (§4's two-condition
argument; property-tested in ``tests/core/test_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Tuple, Union

from repro.core.bounds import BoundsEngine
from repro.core.classify import sequence_is_bound_widening
from repro.core.query import CatalogView, QueryResult, QueryStats, RangeQuery
from repro.editing.sequence import EditSequence
from repro.errors import DuplicateObjectError, UnknownObjectError


class OrderedIdSet:
    """Insertion-ordered id collection with O(1) ``append`` and ``remove``.

    Cluster membership used to live in plain lists, making every
    ``remove_edited`` an O(n) scan.  A dict's keys give the same
    insertion order with constant-time deletion, while this wrapper keeps
    the list-shaped API (``append``/``remove``/iteration/equality with
    lists) the structure's callers and tests already use.
    """

    __slots__ = ("_ids",)

    def __init__(self, ids: Iterable[str] = ()) -> None:
        self._ids: Dict[str, None] = dict.fromkeys(ids)

    def append(self, image_id: str) -> None:
        """Add an id at the end (re-adding an existing id is an error)."""
        if image_id in self._ids:
            raise DuplicateObjectError(f"id {image_id!r} already present")
        self._ids[image_id] = None

    def remove(self, image_id: str) -> None:
        """Delete an id in O(1); ValueError if absent (list semantics)."""
        try:
            del self._ids[image_id]
        except KeyError:
            raise ValueError(f"{image_id!r} not in set") from None

    def pop(self, index: int = -1) -> str:
        """Remove and return the id at ``index`` (list semantics, O(n))."""
        value = list(self._ids)[index]
        del self._ids[value]
        return value

    def __getitem__(self, index: Union[int, slice]) -> Union[str, List[str]]:
        """Positional access (list semantics, O(n); slices return lists)."""
        return list(self._ids)[index]

    def clear(self) -> None:
        self._ids.clear()

    def __contains__(self, image_id: object) -> bool:
        return image_id in self._ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, OrderedIdSet):
            return list(self._ids) == list(other._ids)
        if isinstance(other, (list, tuple)):
            return list(self._ids) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"OrderedIdSet({list(self._ids)!r})"


@dataclass
class BWMStructure:
    """The Main + Unclassified components of §4.1.

    ``main`` maps each binary image id to the (insertion-ordered) set of
    its bound-widening-only edited images; ``unclassified`` holds every
    other edited image.  The paper keeps base identifiers sorted to ease
    lookup; a dict gives the same O(1) cluster location directly, and
    :class:`OrderedIdSet` members make removal O(1) as well.

    ``version`` counts the maintenance calls below, so a reader that
    keeps a flattened copy of the clusters between queries
    (:class:`repro.core.batch.BatchBWMProcessor`) knows when to rebuild
    it.
    """

    main: Dict[str, OrderedIdSet] = field(default_factory=dict)
    unclassified: OrderedIdSet = field(default_factory=OrderedIdSet)
    _edited_location: Dict[str, str] = field(default_factory=dict)
    version: int = field(default=0, compare=False, repr=False)

    # ------------------------------------------------------------------
    # Maintenance (Figure 1)
    # ------------------------------------------------------------------
    def insert_binary(self, image_id: str) -> None:
        """Register a binary image as a (initially empty) Main cluster."""
        if image_id in self.main:
            raise DuplicateObjectError(f"binary image {image_id!r} already present")
        self.main[image_id] = OrderedIdSet()
        self.version += 1

    def insert_edited(self, image_id: str, sequence: EditSequence) -> bool:
        """Figure 1: classify and file one edited image.

        Returns ``True`` when the image landed in the Main component
        (all rules bound-widening), ``False`` for Unclassified.

        A sequence whose base is not a Main-component binary image (a
        *chained* edit referencing another edited image — an extension
        beyond the paper, which assumes binary bases) goes to
        Unclassified even when all its rules widen: the Figure 2 shortcut
        needs the base's *exact* histogram, which edited bases lack.
        """
        if image_id in self._edited_location:
            raise DuplicateObjectError(f"edited image {image_id!r} already present")
        self.version += 1
        if sequence_is_bound_widening(sequence) and sequence.base_id in self.main:
            self.main[sequence.base_id].append(image_id)
            self._edited_location[image_id] = sequence.base_id
            return True
        self.unclassified.append(image_id)
        self._edited_location[image_id] = ""
        return False

    def remove_edited(self, image_id: str) -> None:
        """Remove an edited image from whichever component holds it."""
        location = self._edited_location.pop(image_id, None)
        if location is None:
            raise UnknownObjectError(f"edited image {image_id!r} not present")
        self.version += 1
        if location:
            self.main[location].remove(image_id)
        else:
            self.unclassified.remove(image_id)

    def remove_binary(self, image_id: str) -> None:
        """Remove a binary image; its cluster must already be empty."""
        cluster = self.main.get(image_id)
        if cluster is None:
            raise UnknownObjectError(f"binary image {image_id!r} not present")
        if cluster:
            raise DuplicateObjectError(
                f"cluster of {image_id!r} still holds {len(cluster)} edited images"
            )
        del self.main[image_id]
        self.version += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def clusters(self) -> Iterator[Tuple[str, OrderedIdSet]]:
        """Iterate ``(B_id, E_list)`` tuples of the Main component."""
        return iter(self.main.items())

    def location_of(self, image_id: str) -> str:
        """``"main"`` or ``"unclassified"`` for an edited image."""
        location = self._edited_location.get(image_id)
        if location is None:
            raise UnknownObjectError(f"edited image {image_id!r} not present")
        return "main" if location else "unclassified"

    @property
    def main_edited_count(self) -> int:
        """Edited images filed under Main clusters."""
        return len(self._edited_location) - len(self.unclassified)

    @property
    def unclassified_count(self) -> int:
        """Edited images in the Unclassified component."""
        return len(self.unclassified)

    def __len__(self) -> int:
        return len(self.main) + self.main_edited_count + self.unclassified_count


class BWMProcessor:
    """The Figure 2 range-query algorithm over a :class:`BWMStructure`."""

    #: Identifier used by reports and the method registry.
    name = "bwm"

    def __init__(
        self,
        structure: BWMStructure,
        view: CatalogView,
        engine: BoundsEngine,
    ) -> None:
        self._structure = structure
        self._view = view
        self._engine = engine

    def process(self, query: RangeQuery) -> QueryResult:
        """Execute ``query``, returning matches and work counters."""
        stats = QueryStats()
        matches = set()

        # Step 4: walk the Main component cluster by cluster.
        for base_id, cluster in self._structure.clusters():
            histogram = self._view.histogram_of(base_id)
            stats.histograms_checked += 1
            if query.matches_histogram(histogram):
                # Step 4.2: the base satisfies, so every bound-widening
                # edited image derived from it must overlap the range —
                # no rules applied.
                matches.add(base_id)
                matches.update(cluster)
                stats.clusters_short_circuited += 1
                stats.edited_accepted_without_rules += len(cluster)
            else:
                # Step 4.3: fall back to BOUNDS for each cluster member.
                for edited_id in cluster:
                    if self._check_bounds(edited_id, query, stats):
                        matches.add(edited_id)

        # Step 5: Unclassified images always get the full BOUNDS walk.
        for edited_id in self._structure.unclassified:
            if self._check_bounds(edited_id, query, stats):
                matches.add(edited_id)

        return QueryResult(frozenset(matches), stats)

    def _check_bounds(
        self, edited_id: str, query: RangeQuery, stats: QueryStats
    ) -> bool:
        rules_before = self._engine.rules_applied
        bounds = self._engine.bounds(edited_id, query.bin_index)
        stats.bounds_computed += 1
        stats.rules_applied += self._engine.rules_applied - rules_before
        return bounds.overlaps(query.pct_min, query.pct_max)
