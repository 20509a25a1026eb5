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

import math
import operator
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.color.histogram import ColorHistogram
from repro.color.similarity import histogram_intersection, l1_distance
from repro.core.bounds import BoundsEngine, BoundsMatrix
from repro.core.optable import stack_rows
from repro.core.query import QueryResult, QueryStats, RangeQuery
from repro.db.catalog import Catalog
from repro.db.records import EditedImageRecord
from repro.errors import HistogramError, QueryError
from repro.images.raster import Image

#: Instantiates an edited image id into a raster.
Instantiator = Callable[[str], Image]

#: ``(score, image_id)``; tuples order by score, ties by id.
Scored = Tuple[float, str]

#: Rows per step of the bound pass: its two (rows x bins) float scratch
#: blocks stay cache-resident, where whole-matrix temporaries do not.
_BLOCK_ROWS = 256


def validate_k(k: int) -> int:
    """``k`` as a positive ``int``.  A ``bool``, or anything without
    ``__index__`` (``2.5``, ``inf``), is a :class:`QueryError`."""
    try:
        if isinstance(k, bool):
            raise TypeError
        k = operator.index(k)
    except TypeError:
        raise QueryError(f"k must be an integer, got {k!r}") from None
    if k <= 0:
        raise QueryError(f"k must be positive, got {k}")
    return k


def _row_scores(q: np.ndarray, stored: np.ndarray, intersection: bool) -> np.ndarray:
    """``l1_distance`` — or the negated ``histogram_intersection`` — of
    ``q`` against each row of ``stored``, normalized histograms: the
    row-wise forms of the scalar functions, yielding the identical
    doubles.  Overwrites ``stored``, which callers pass as scratch."""
    if intersection:
        return -np.minimum(q, stored, out=stored).sum(axis=1)
    return np.abs(np.subtract(q, stored, out=stored), out=stored).sum(axis=1)


def _bound_scores(
    q: np.ndarray, bounds: BoundsMatrix, intersection: bool
) -> np.ndarray:
    """The best score each row's BOUNDS intervals admit: the smallest L1
    distance — or the negated largest intersection — from ``q`` to any
    histogram inside the intervals.  A stored histogram's row has ``lo``
    equal to ``hi``, and there it is the exact score (:func:`_row_scores`).

    Reads :data:`_BLOCK_ROWS` rows at a time into reused scratch; no
    whole ``lo`` / ``hi`` matrix is gathered.
    """
    rows = bounds.rows
    scores = np.empty(len(rows))
    scratch = np.empty((2, min(len(rows), _BLOCK_ROWS), len(q)))
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = bounds.over(rows[start : start + _BLOCK_ROWS])
        totals = block.totals.astype(np.float64)[:, None]
        upper = np.divide(block.hi, totals, out=scratch[1, : len(block)])
        if intersection:
            np.clip(upper, 0.0, None, out=upper)
            np.minimum(q, upper, out=upper)
        else:
            lower = np.divide(block.lo, totals, out=scratch[0, : len(block)])
            if (lower > upper + 1e-12).any():
                raise HistogramError("lower bound exceeds upper bound")
            # Past the check, integer lo <= hi over one total divide to
            # lower <= upper, where this is clip(lower - q) + clip(q - upper)
            # bit for bit.
            np.maximum(lower, q, out=lower)
            np.subtract(lower, np.minimum(upper, q, out=upper), out=upper)
        scores[start : start + len(block)] = upper.sum(axis=1)
    return -scores if intersection else scores


class _Refinement:
    """The refine step of one query: exact scores of its edited candidates.

    ``ids``, ``bound`` and ``rows`` are aligned: each candidate's id,
    bound score and memo row.  On a memoizing engine :meth:`known`
    scores the candidates whose memo row holds their exact histogram,
    in one row-wise pass.  :meth:`score` instantiates any other one and
    scores it by the scalar function, and :meth:`store` hands the counts
    it instantiated to the memo under the epoch read before the query
    read its bounds.  Off the memo (``rows is None``) every candidate is
    instantiated and nothing is kept.
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
        self.ids = ids
        self.bound = bound
        self._rows = rows
        self._epoch = epoch
        self._fresh: List[Tuple[int, np.ndarray]] = []

    def known(self, positions: np.ndarray) -> np.ndarray:
        """Scores of the candidates at ``positions`` that the memo's exact
        column holds, from one gather; NaN for the others."""
        scores = np.full(len(positions), np.nan)
        if self._rows is not None and len(positions):
            rows = self._rows[positions]
            found, counts = self._engine.exact_of_rows(rows, self._epoch)
            if len(found):
                stored = counts / counts.sum(axis=1, keepdims=True).astype(np.float64)
                q = self._query.fractions()
                scores[found] = _row_scores(q, stored, self._intersection)
        return scores

    def score(self, position: int) -> float:
        """Instantiate the candidate at ``position``; its exact score."""
        histogram = self._exact_histogram(self.ids[position])
        if self._rows is not None:
            self._fresh.append((position, histogram.counts))
        if self._intersection:
            return -histogram_intersection(self._query, histogram)
        return l1_distance(self._query, histogram)

    def store(self) -> None:
        """Memoize what this query instantiated."""
        if self._rows is not None and self._fresh:
            positions, counts = zip(*self._fresh)
            stacked = stack_rows(counts, len(counts[0]))
            self._engine.store_exact(self._rows[list(positions)], stacked, self._epoch)


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
        k = validate_k(k)
        stats = KNNStats()
        heap: List[Tuple[float, str]] = []
        for image_id in self._catalog.binary_ids():
            stats.candidates_considered += 1
            distance = l1_distance(query, self._catalog.histogram_of(image_id))
            heap.append((distance, image_id))
        return KNNResult(tuple(sorted(heap)[:k]), stats)

    def knn_exact(self, query: ColorHistogram, k: int) -> KNNResult:
        """Exhaustive kNN over the full augmented database."""
        k = validate_k(k)
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
        3. process edited images in ascending ``(lower bound, id)``
           order, refining each (its exact histogram from the memo, or
           instantiated); stop at the first whose lower bound exceeds
           the k-th best distance so far — no later image can improve
           the result.
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
        L1 lower bound does not exceed the threshold), in catalog order.
        Returns matches ascending by distance.  ``epsilon`` may be
        ``inf``, not NaN: no distance compares true against NaN, so every
        image would be refined and none returned.
        """
        if math.isnan(epsilon) or epsilon < 0:
            raise QueryError(f"epsilon must be non-negative, got {epsilon}")
        binary_ids, exact, refinement = self._rank(query, intersection=False)
        within = np.flatnonzero(refinement.bound <= epsilon)
        scores = refinement.known(within)
        for index in np.flatnonzero(np.isnan(scores)).tolist():
            scores[index] = refinement.score(int(within[index]))
        refinement.store()
        edited = len(refinement.ids)
        stats = KNNStats(len(binary_ids) + edited, edited - len(within), len(within))
        matches = [m for m in zip(exact.tolist(), binary_ids) if m[0] <= epsilon]
        matches += [
            (score, refinement.ids[position])
            for score, position in zip(scores.tolist(), within.tolist())
            if score <= epsilon
        ]
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
        """Filter-and-refine over :meth:`_rank`'s smaller-is-better scores.

        Edited candidates go in ascending ``(bound, id)`` order.  With
        ``T(j)`` the k-th smallest of the binary scores and the first
        ``j`` refined ones (``+inf`` while fewer than k), candidate ``j``
        is refined unless ``bound[j] > T(j)``.  ``T`` never rises and the
        bounds never fall, so the refined candidates are a prefix, ended
        by the first ``j`` that is not.  A candidate's score comes from
        the memo's exact column, or it is instantiated when the rule
        reaches it.
        """
        k = validate_k(k)
        binary_ids, exact, refinement = self._rank(query, intersection)
        ids, scored = refinement.ids, exact.tolist()
        best = sorted(scored)[:k]  # the k smallest scores folded in so far
        # T only falls: a candidate whose bound exceeds T(0) is never reached.
        limit = best[-1] if len(best) == k else math.inf
        reachable = np.flatnonzero(refinement.bound <= limit)
        by_id = np.array([ids[p] for p in reachable.tolist()], dtype=str)
        order = reachable[np.lexsort((by_id, refinement.bound[reachable]))]
        bound, positions = refinement.bound[order].tolist(), order.tolist()
        scores = refinement.known(order).tolist()  # NaN where the memo has none
        stop = 0  # candidates [0, stop) are refined
        for j, lowest in enumerate(bound):
            if bisect_left(best, lowest) >= k:  # bound[j] > T(j)
                break
            if math.isnan(scores[j]):  # reached: instantiate it
                scores[j] = refinement.score(positions[j])
            insort(best, scores[j])
            del best[k:]
            stop = j + 1
        refinement.store()
        limit = best[-1] if len(best) == k else math.inf
        near = np.flatnonzero(exact <= limit).tolist()
        kept = [(scored[i], binary_ids[i]) for i in near]
        refined = zip(scores[:stop], positions[:stop])
        kept += [(score, ids[p]) for score, p in refined if score <= limit]
        edited = len(ids)
        return sorted(kept)[:k], KNNStats(len(binary_ids) + edited, edited - stop, stop)

    def _rank(
        self, query: ColorHistogram, intersection: bool
    ) -> Tuple[List[str], np.ndarray, _Refinement]:
        """Score every stored image against ``query`` without instantiating.

        Returns the binary ids, their exact scores, and the refine step
        of the edited images holding each one's bound: the best score its
        BOUNDS intervals admit, in catalog order.  Scores are L1
        distances and their lower bounds, or — so that smaller is better
        either way — *negated* intersections and their negated upper
        bounds, all from :func:`_bound_scores`.
        """
        q, engine = query.fractions(), self._engine
        binary_ids = list(self._catalog.binary_ids())
        edited_ids = list(self._catalog.edited_ids())
        histograms = [self._catalog.histogram_of(i) for i in binary_ids]
        for histogram in histograms:
            query.require_compatible(histogram)
        # Read before the bounds: exact rows are kept only if no
        # invalidation came between this and their instantiation.
        epoch = engine.memo_epoch
        bases = BoundsMatrix.of_histograms(histograms, len(q))
        bounds = engine.bounds_all_bins_batch(edited_ids)
        refinement = _Refinement(
            engine,
            lambda image_id: self._exact_histogram(image_id, query),
            query,
            intersection,
            edited_ids,
            _bound_scores(q, bounds, intersection),
            bounds.rows if engine.cache_enabled else None,
            epoch,
        )
        return binary_ids, _bound_scores(q, bases, intersection), refinement

    def _exact_histogram(self, image_id: str, query: ColorHistogram) -> ColorHistogram:
        """Instantiate ``image_id`` and extract its histogram: the ground
        truth, which never reads the memo's exact column."""
        return ColorHistogram.of_image(self._instantiate(image_id), query.quantizer)
