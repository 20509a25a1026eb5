"""Additional query processors: ground truth and similarity search.

* :class:`InstantiateProcessor` — the naive method both papers argue
  against: materialize every edited image, extract its histogram, check
  exactly.  It is the ground truth for accuracy tests (RBM/BWM may return
  supersets — "this approach may increase the number of false positives
  ... it will decrease the number of false negatives", §2) and the cost
  ceiling for benchmarks.

* :class:`SimilaritySearch` — kNN over the augmented database (§6 future
  work, experiment A5) with three strategies: binary-only via the
  multidimensional index, exhaustive instantiation, and bounds-based
  pruning that refines only edited images whose BOUNDS intervals
  cannot be excluded.  On a memoizing engine a refinement instantiates
  an image once per invalidation: its exact histogram is kept in the
  image's memo row.  The exhaustive strategy never reads it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.color.histogram import ColorHistogram
from repro.color.similarity import histogram_intersection, l1_distance
from repro.core.bounds import BoundsEngine
from repro.core.query import QueryResult, QueryStats, RangeQuery
from repro.db.catalog import Catalog
from repro.db.records import EditedImageRecord
from repro.errors import HistogramError, QueryError
from repro.images.raster import Image

#: Instantiates an edited image id into a raster.
Instantiator = Callable[[str], Image]

#: ``(score, image_id)``; tuples order by score, ties by id.
Scored = Tuple[float, str]

#: ``(bound, image_id, position)`` of an edited image: ordered like
#: :data:`Scored` (ids are unique), ``position`` its index in the query's
#: edited ids.
Candidate = Tuple[float, str, int]


def _row_scores(q: np.ndarray, stored: np.ndarray, intersection: bool) -> np.ndarray:
    """``l1_distance`` — or the negated ``histogram_intersection`` — of
    ``q`` against each row of ``stored``, normalized histograms: the
    row-wise forms of the scalar functions, yielding the identical
    doubles.  Overwrites ``stored``, which callers pass as scratch."""
    if intersection:
        return -np.minimum(q, stored, out=stored).sum(axis=1)
    return np.abs(np.subtract(q, stored, out=stored), out=stored).sum(axis=1)


class _MaxItem:
    """Inverts tuple ordering so :mod:`heapq` acts as a max-heap.

    ``(distance, image_id)`` tuples cannot be negated wholesale (the id
    is a string), so the k-best sets below wrap entries in this instead.
    """

    __slots__ = ("item",)

    def __init__(self, item: Tuple[float, str]) -> None:
        self.item = item

    def __lt__(self, other: "_MaxItem") -> bool:
        return other.item < self.item


class _KBest:
    """The k smallest ``(score, image_id)`` tuples seen so far.

    Replaces the re-sort-per-insertion pattern: each push is O(log k)
    against a max-heap whose root is the current k-th best, which is also
    the pruning threshold.
    """

    __slots__ = ("_k", "_heap")

    def __init__(self, k: int) -> None:
        self._k = k
        self._heap: List[_MaxItem] = []

    def push(self, item: Tuple[float, str]) -> None:
        if len(self._heap) < self._k:
            heapq.heappush(self._heap, _MaxItem(item))
        elif item < self._heap[0].item:
            heapq.heapreplace(self._heap, _MaxItem(item))

    @property
    def threshold(self) -> float:
        """The k-th best score, or ``+inf`` while fewer than k are held."""
        if len(self._heap) < self._k:
            return float("inf")
        return self._heap[0].item[0]

    def sorted_items(self) -> List[Tuple[float, str]]:
        """Held entries ascending by ``(score, image_id)``."""
        return sorted(entry.item for entry in self._heap)


class _Refinement:
    """The refine step of one query: exact scores of its edited candidates.

    On a memoizing engine a candidate whose memo row holds its exact
    histogram is scored from there — all such candidates together, in
    one row-wise pass (:func:`_row_scores`).  Any other candidate is
    instantiated and scored by the scalar function, and :meth:`store`
    hands its counts to the memo under the epoch read before the query
    read its bounds.  Off the memo (``rows is None``) every candidate is
    instantiated and nothing is kept.  ``ids``, ``bound`` and ``rows``
    are aligned: each candidate's id, bound score and memo row.
    """

    def __init__(
        self,
        engine: BoundsEngine,
        exact_histogram: Callable[[str], ColorHistogram],
        query: ColorHistogram,
        intersection: bool,
        ids: List[str],
        bound: np.ndarray,
        rows: Optional[np.ndarray],
        epoch: int,
    ) -> None:
        self._engine = engine
        self._exact_histogram = exact_histogram
        self._query = query
        self._intersection = intersection
        self._ids = ids
        self._bound = bound
        self._rows = rows
        self._epoch = epoch
        self._known: Dict[int, float] = {}
        self._fresh: List[Tuple[int, np.ndarray]] = []

    def read_memo(self, limit: float) -> None:
        """Score the memoized candidates whose bound does not exceed
        ``limit`` — no refinement reaches past it."""
        if self._rows is None:
            return
        wanted = np.flatnonzero(self._bound <= limit)
        found, counts = self._engine.exact_of_rows(self._rows[wanted], self._epoch)
        if len(found):
            stored = counts / counts.sum(axis=1, keepdims=True).astype(np.float64)
            scores = _row_scores(self._query.fractions(), stored, self._intersection)
            self._known = dict(zip(wanted[found].tolist(), scores.tolist()))

    def score(self, position: int) -> float:
        """The exact score of the candidate at ``position``."""
        known = self._known.get(position)
        if known is not None:
            return known
        histogram = self._exact_histogram(self._ids[position])
        if self._rows is not None:
            self._fresh.append((position, histogram.counts))
        if self._intersection:
            return -histogram_intersection(self._query, histogram)
        return l1_distance(self._query, histogram)

    def store(self) -> None:
        """Memoize what this query instantiated."""
        if self._rows is not None and self._fresh:
            positions, counts = zip(*self._fresh)
            self._engine.store_exact(
                self._rows[list(positions)], np.stack(counts), self._epoch
            )


class InstantiateProcessor:
    """Ground-truth range-query processor (materializes edited images)."""

    #: Identifier used by reports and the method registry.
    name = "instantiate"

    def __init__(self, catalog: Catalog, instantiate: Instantiator) -> None:
        self._catalog = catalog
        self._instantiate = instantiate

    def process(self, query: RangeQuery) -> QueryResult:
        """Execute ``query`` exactly, instantiating every edited image."""
        stats = QueryStats()
        matches = set()
        quantizer = None

        for image_id in self._catalog.binary_ids():
            histogram = self._catalog.histogram_of(image_id)
            quantizer = histogram.quantizer
            stats.histograms_checked += 1
            if query.matches_histogram(histogram):
                matches.add(image_id)

        for image_id in self._catalog.edited_ids():
            if quantizer is None:
                raise QueryError("cannot instantiate-query a database with no binary images")
            image = self._instantiate(image_id)
            histogram = ColorHistogram.of_image(image, quantizer)
            stats.histograms_checked += 1
            if query.matches_histogram(histogram):
                matches.add(image_id)

        return QueryResult(frozenset(matches), stats)


def and_merge(
    catalog: Catalog, results: Sequence[QueryResult], expand_to_bases: bool = False
) -> QueryResult:
    """AND-combine per-constraint results, with their work counters summed.

    Intersecting conservative result sets keeps the no-false-negative
    guarantee (see :class:`repro.core.query.ConjunctiveQuery`).  A batch
    pass hands every one of its results the same stats object; each
    distinct object is counted once.  ``expand_to_bases`` applies the §2
    connection: a matching edited image brings its base image along even
    if the base's own features do not match.
    """
    matches = set(results[0].matches)
    for result in results[1:]:
        matches &= result.matches
    stats = QueryStats()
    for each in {id(result.stats): result.stats for result in results}.values():
        stats.merge(each)
    if expand_to_bases:
        for image_id in tuple(matches):
            record = catalog.record(image_id)
            if isinstance(record, EditedImageRecord):
                matches.add(record.base_id)
    return QueryResult(frozenset(matches), stats)


@dataclass
class KNNStats:
    """Work counters for one kNN execution.

    ``edited_instantiated`` counts the edited images *refined* to an
    exact score: instantiated, or read from the memo's exact row.  It so
    reads the same whether the memo is cold, warm or off.
    """

    candidates_considered: int = 0
    edited_pruned: int = 0
    edited_instantiated: int = 0


@dataclass(frozen=True)
class KNNResult:
    """Ranked ``(distance, image_id)`` pairs plus work counters."""

    neighbors: Tuple[Tuple[float, str], ...]
    stats: KNNStats = field(default_factory=KNNStats)

    def ids(self) -> Tuple[str, ...]:
        """Neighbor ids in ascending distance order."""
        return tuple(image_id for _, image_id in self.neighbors)


class SimilaritySearch:
    """kNN by L1 distance over normalized histograms."""

    def __init__(
        self,
        catalog: Catalog,
        engine: BoundsEngine,
        instantiate: Instantiator,
    ) -> None:
        self._catalog = catalog
        self._engine = engine
        self._instantiate = instantiate

    # ------------------------------------------------------------------
    def knn_binary(self, query: ColorHistogram, k: int) -> KNNResult:
        """kNN over binary images only (the conventional CBIR path)."""
        self._validate_k(k)
        stats = KNNStats()
        heap: List[Tuple[float, str]] = []
        for image_id in self._catalog.binary_ids():
            stats.candidates_considered += 1
            distance = l1_distance(query, self._catalog.histogram_of(image_id))
            heap.append((distance, image_id))
        return KNNResult(tuple(sorted(heap)[:k]), stats)

    def knn_exact(self, query: ColorHistogram, k: int) -> KNNResult:
        """Exhaustive kNN over the full augmented database."""
        self._validate_k(k)
        stats = KNNStats()
        scored: List[Tuple[float, str]] = []
        for image_id in self._catalog.binary_ids():
            stats.candidates_considered += 1
            scored.append(
                (l1_distance(query, self._catalog.histogram_of(image_id)), image_id)
            )
        for image_id in self._catalog.edited_ids():
            stats.candidates_considered += 1
            stats.edited_instantiated += 1
            histogram = self._exact_histogram(image_id, query)
            scored.append((l1_distance(query, histogram), image_id))
        return KNNResult(tuple(sorted(scored)[:k]), stats)

    def knn_bounded(self, query: ColorHistogram, k: int) -> KNNResult:
        """kNN refining only edited images the bounds cannot exclude.

        Strategy (the A5 extension):

        1. rank all binary images exactly (cheap — histograms stored);
        2. per edited image, compute every bin's BOUNDS interval in one
           vectorized sequence walk and an L1 *lower bound* on its
           distance to the query;
        3. process edited images in ascending lower-bound order,
           refining one at a time (its exact histogram from the memo, or
           instantiated); stop as soon as the next lower bound exceeds
           the current k-th best distance — no remaining image can
           improve the result.
        """
        neighbors, stats = self._k_best(query, k, intersection=False)
        return KNNResult(tuple(neighbors), stats)

    def range_search(
        self, query: ColorHistogram, epsilon: float
    ) -> KNNResult:
        """All images within L1 distance ``epsilon`` of ``query``.

        The similarity-range companion to kNN: binary images are checked
        exactly; an edited image is refined only when its per-bin
        BOUNDS intervals admit a distance at or below ``epsilon`` (its
        L1 lower bound does not exceed the threshold).  Returns matches
        ascending by distance.  ``epsilon`` may be ``inf``, not NaN: no
        distance compares true against NaN, so every image would be
        refined and none returned.
        """
        if math.isnan(epsilon) or epsilon < 0:
            raise QueryError(f"epsilon must be non-negative, got {epsilon}")
        binary, edited, refinement = self._rank(query, intersection=False)
        stats = KNNStats(candidates_considered=len(binary) + len(edited))
        matches = [item for item in binary if item[0] <= epsilon]
        refinement.read_memo(epsilon)
        for bound, image_id, position in edited:
            if bound > epsilon:
                stats.edited_pruned += 1
                continue
            stats.edited_instantiated += 1
            distance = refinement.score(position)
            if distance <= epsilon:
                matches.append((distance, image_id))
        refinement.store()
        return KNNResult(tuple(sorted(matches)), stats)

    def knn_intersection(self, query: ColorHistogram, k: int) -> KNNResult:
        """kNN ranked by histogram *intersection* (paper eq. 1), pruned.

        Ranking by the Swain-Ballard intersection instead of L1 distance
        (the two orders coincide for equal-total normalized histograms,
        but intersection is the paper's primary similarity).  Pruning
        mirrors :meth:`knn_bounded` with the sign flipped: an edited
        image whose intersection *upper bound* (from per-bin fraction
        upper bounds) is below the current k-th best similarity cannot
        enter the result.
        """
        neighbors, stats = self._k_best(query, k, intersection=True)
        return KNNResult(
            tuple((-negative, image_id) for negative, image_id in neighbors), stats
        )

    # ------------------------------------------------------------------
    def _k_best(
        self, query: ColorHistogram, k: int, intersection: bool
    ) -> Tuple[List[Scored], KNNStats]:
        """Filter-and-refine over :meth:`_rank`'s smaller-is-better scores."""
        self._validate_k(k)
        binary, edited, refinement = self._rank(query, intersection)
        stats = KNNStats(candidates_considered=len(binary) + len(edited))
        best = _KBest(k)
        for item in binary:
            best.push(item)
        refinement.read_memo(best.threshold)  # the threshold only falls
        heapq.heapify(edited)
        while edited:
            bound, image_id, position = heapq.heappop(edited)
            if bound > best.threshold:
                stats.edited_pruned += 1 + len(edited)
                break
            stats.edited_instantiated += 1
            best.push((refinement.score(position), image_id))
        refinement.store()
        return best.sorted_items(), stats

    def _rank(
        self, query: ColorHistogram, intersection: bool
    ) -> Tuple[List[Scored], List[Candidate], _Refinement]:
        """Score every stored image against ``query`` without instantiating.

        Returns lists in catalog order — binary images scored exactly,
        edited images by the best score their BOUNDS intervals admit —
        and the refine step that scores edited images exactly.  Scores
        are L1 distances and their lower bounds, or — so that smaller is
        better either way — *negated* intersections and their negated
        upper bounds.  Each is the row-wise form of the scalar function
        of the same name in :mod:`repro.color.similarity` and yields the
        identical doubles.
        """
        q = query.fractions()
        binary_ids = list(self._catalog.binary_ids())
        edited_ids = list(self._catalog.edited_ids())
        exact = bound = np.empty(0)
        rows: Optional[np.ndarray] = None
        # Read before the bounds: exact rows are kept only if no
        # invalidation came between this and their instantiation.
        epoch = self._engine.memo_epoch
        if binary_ids:
            histograms = [self._catalog.histogram_of(i) for i in binary_ids]
            for histogram in histograms:
                query.require_compatible(histogram)
            stored = np.stack([h.counts for h in histograms]) / np.array(
                [[h.total] for h in histograms], dtype=np.float64
            )
            exact = _row_scores(q, stored, intersection)
        if edited_ids:
            # The divisions make the (edited, bins) scratch matrices the
            # steps below overwrite in place; the intervals themselves
            # are read where they live (memo rows, or the sweep's state).
            bounds = self._engine.bounds_all_bins_batch(edited_ids)
            if self._engine.cache_enabled:
                rows = bounds.rows
            totals = bounds.totals.astype(np.float64)[:, None]
            upper = bounds.hi / totals
            if intersection:
                np.clip(upper, 0.0, None, out=upper)
                bound = -np.minimum(q, upper, out=upper).sum(axis=1)
            else:
                lower = bounds.lo / totals
                if (lower > upper + 1e-12).any():
                    raise HistogramError("lower bound exceeds upper bound")
                np.clip(np.subtract(lower, q, out=lower), 0.0, None, out=lower)
                np.clip(np.subtract(q, upper, out=upper), 0.0, None, out=upper)
                lower += upper
                bound = lower.sum(axis=1)
        refinement = _Refinement(
            self._engine,
            lambda image_id: self._exact_histogram(image_id, query),
            query,
            intersection,
            edited_ids,
            bound,
            rows,
            epoch,
        )
        return (
            list(zip(exact.tolist(), binary_ids)),
            list(zip(bound.tolist(), edited_ids, range(len(edited_ids)))),
            refinement,
        )

    def _exact_histogram(self, image_id: str, query: ColorHistogram) -> ColorHistogram:
        """Instantiate ``image_id`` and extract its histogram: the ground
        truth, which never reads the memo's exact column."""
        return ColorHistogram.of_image(self._instantiate(image_id), query.quantizer)

    @staticmethod
    def _validate_k(k: int) -> None:
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
