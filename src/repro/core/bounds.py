"""The BOUNDS algorithm: interval of possible bin fractions for an image.

§3.2: "A system could access the value of the histogram bin for the
referenced base image given in the storage format of E, and then use the
above rules to determine how the associated editing operations modify that
value. ... The range [BOUND_min/imagesize, BOUND_max/imagesize] represents
the bounds on the percentage of pixels in image E that map to bin HB."

:class:`BoundsEngine` walks an edit sequence with the Table 1 rules,
resolving Merge targets through a pluggable store.  Targets that are
themselves edited images are handled by recursing (with cycle detection
and a depth limit) — an extension beyond the paper, which assumed binary
targets.

Table 1 is encoded twice, each copy with its own job:

* :meth:`BoundsEngine.bounds` — the paper's per-``(image, bin)`` scalar
  walk over :mod:`repro.core.rules`; the measured RBM/BWM path and the
  correctness oracle every all-bins result is tested against.
* :meth:`BoundsEngine.bounds_all_bins_batch` — the columnar op-table
  sweep of :mod:`repro.core.optable` yielding full interval matrices for
  many images at once; the similarity, batch, and index-building hot
  paths use it, and :meth:`BoundsEngine.bounds_all_bins` is its one-id
  convenience form.

When ``cache_enabled``, results memoize per image with *dependency-aware*
invalidation: the engine records, while walking, which image each walk
consulted (base chain + Merge targets), and :meth:`invalidate` drops only
the entries reachable from a changed image through the reverse dependency
graph instead of flushing everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    Union,
    overload,
)

import numpy as np

from repro.color.histogram import ColorHistogram
from repro.color.quantization import UniformQuantizer
from repro.core.optable import (
    BatchRuleContext,
    BatchRuleState,
    OpTableManager,
    apply_rule_batched,
    stack_rows,
)
from repro.core.rules import RuleContext, RuleState, apply_rule
from repro.editing.sequence import EditSequence
from repro.errors import ReproError, RuleError, UnknownObjectError
from repro.images.geometry import Rect
from repro.images.raster import ColorTuple

#: ``(lo, hi, height, width)``: read-only int64 count vectors over every
#: bin plus the exact image dimensions — the all-bins BOUNDS result.
AllBinsBounds = Tuple[np.ndarray, np.ndarray, int, int]


class BoundsMatrix(Sequence[AllBinsBounds]):
    """All-bins BOUNDS of many images: rows for id consumers, columns
    for array consumers.

    As a sequence it is what :meth:`BoundsEngine.bounds_all_bins_batch`
    always returned — element ``i`` is the :data:`AllBinsBounds` of
    ``image_ids[i]``; indexing, slicing and iteration yield those
    tuples, whose vectors are read-only.  ``lo`` / ``hi`` are the same
    intervals as ``(images x bins)`` int64 matrices with ``heights`` /
    ``widths`` columns aligned to them, so a query compares one column
    instead of unpacking every row.

    A result that came straight out of one sweep holds the matrices and
    cuts row views on demand; one assembled per image (memo hits, binary
    images) holds the rows and stacks them the first time a column is
    asked for, so callers that only walk rows never pay for a matrix.
    """

    __slots__ = ("_rows", "_columns", "_bins")

    def __init__(
        self,
        bins: int,
        rows: Optional[List[AllBinsBounds]] = None,
        columns: Optional[
            Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ] = None,
    ) -> None:
        if (rows is None) == (columns is None):
            raise RuleError("a BoundsMatrix is built from rows or from columns")
        if columns is not None:
            for column in columns:
                column.setflags(write=False)
        self._bins = bins
        self._rows = rows
        self._columns = columns

    def _stacked(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if self._columns is None:
            rows = self._rows or []
            columns = (
                stack_rows([row[0] for row in rows], self._bins),
                stack_rows([row[1] for row in rows], self._bins),
                np.array([row[2] for row in rows], dtype=np.int64),
                np.array([row[3] for row in rows], dtype=np.int64),
            )
            for column in columns:
                column.setflags(write=False)
            self._columns = columns
        return self._columns

    @property
    def lo(self) -> np.ndarray:
        """``BOUND_min`` counts, ``(images x bins)``, read-only."""
        return self._stacked()[0]

    @property
    def hi(self) -> np.ndarray:
        """``BOUND_max`` counts, ``(images x bins)``, read-only."""
        return self._stacked()[1]

    @property
    def heights(self) -> np.ndarray:
        """Exact image heights, one per row."""
        return self._stacked()[2]

    @property
    def widths(self) -> np.ndarray:
        """Exact image widths, one per row."""
        return self._stacked()[3]

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return int(self._stacked()[0].shape[0])

    def __iter__(self) -> Iterator[AllBinsBounds]:
        if self._rows is not None:
            return iter(self._rows)
        lo, hi, heights, widths = self._stacked()
        return iter(zip(lo, hi, heights.tolist(), widths.tolist()))

    @overload
    def __getitem__(self, index: int) -> AllBinsBounds: ...

    @overload
    def __getitem__(self, index: slice) -> List[AllBinsBounds]: ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[AllBinsBounds, List[AllBinsBounds]]:
        if self._rows is not None:
            return self._rows[index]
        if isinstance(index, slice):
            return list(self)[index]
        lo, hi, heights, widths = self._stacked()
        return (lo[index], hi[index], int(heights[index]), int(widths[index]))


class BoundsStore(Protocol):
    """What the bounds engine needs from the database catalog.

    ``lookup_for_bounds(image_id)`` returns either a
    ``(histogram, height, width)`` triple for a binary image or the
    :class:`EditSequence` of an edited image.  The MMDBMS catalog in
    :mod:`repro.db.catalog` implements this protocol.
    """

    def lookup_for_bounds(
        self, image_id: str
    ) -> Union[Tuple[ColorHistogram, int, int], EditSequence]:
        """``(histogram, h, w)`` for binary images, sequence for edited."""
        ...


@dataclass(frozen=True)
class PixelBounds:
    """Result of the BOUNDS algorithm for one (image, bin) pair."""

    lo: int
    hi: int
    height: int
    width: int

    @property
    def total(self) -> int:
        """Pixel count of the (possibly hypothetical) edited image."""
        return self.height * self.width

    @property
    def fraction_lo(self) -> float:
        """``BOUND_min / imagesize``."""
        return self.lo / self.total

    @property
    def fraction_hi(self) -> float:
        """``BOUND_max / imagesize``."""
        return self.hi / self.total

    def overlaps(self, pct_min: float, pct_max: float) -> bool:
        """True when the bounds interval intersects ``[pct_min, pct_max]``.

        This is the §3.2 pruning test: an image whose interval misses the
        query range *cannot* satisfy the query; overlap means "maybe".
        """
        if pct_min > pct_max:
            raise RuleError(f"empty query range [{pct_min}, {pct_max}]")
        return self.fraction_lo <= pct_max and self.fraction_hi >= pct_min

    def contains_fraction(self, fraction: float, tol: float = 1e-12) -> bool:
        """True when ``fraction`` lies within the bounds (soundness check)."""
        return self.fraction_lo - tol <= fraction <= self.fraction_hi + tol

    @staticmethod
    def exact(count: int, height: int, width: int) -> "PixelBounds":
        """Degenerate bounds for a binary image's exact histogram value."""
        return PixelBounds(count, count, height, width)


class BoundsEngine:
    """Applies the Table 1 rules to edit sequences, resolving targets.

    Parameters
    ----------
    store:
        A :class:`BoundsStore` (typically the MMDBMS catalog).
    quantizer:
        The histogram quantizer shared by the whole database.
    fill_color:
        Must match the :class:`repro.editing.executor.EditExecutor` fill
        used to instantiate images, or soundness is lost.
    max_depth:
        Limit on Merge-target recursion through chains of edited images.
    cache_enabled:
        Memoize results per image with dependency-aware invalidation.
        Off by default so the performance evaluation measures the
        algorithms, not the cache.
    """

    def __init__(
        self,
        store: BoundsStore,
        quantizer: UniformQuantizer,
        fill_color: ColorTuple = (0, 0, 0),
        max_depth: int = 8,
        cache_enabled: bool = False,
    ) -> None:
        if max_depth < 1:
            raise RuleError("max_depth must be at least 1")
        self._store = store
        self._quantizer = quantizer
        self._fill_color = fill_color
        self._max_depth = max_depth
        #: Count of rule applications since construction; the performance
        #: evaluation reports this as the work metric alongside wall time.
        #: A swept rule covering every bin counts once, matching the
        #: scalar walk's per-bin count for single-bin workloads.
        self.rules_applied = 0
        self.cache_enabled = cache_enabled
        #: (image_id, bin) -> PixelBounds scalar memo.
        self._cache: Dict[Tuple[str, int], PixelBounds] = {}
        #: image_id -> cached scalar bins (so invalidation avoids scans).
        self._cached_bins: Dict[str, Set[int]] = {}
        #: image_id -> all-bins (lo, hi, height, width) memo.
        self._vec_cache: Dict[str, AllBinsBounds] = {}
        #: Reverse dependency edges observed while walking: referenced
        #: image id -> ids of edited images whose walk consulted it.
        self._dependents: Dict[str, Set[str]] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        #: Memo entries dropped by invalidation (targeted or whole-cache).
        self.cache_invalidated_entries = 0
        #: Number of :meth:`invalidate` / :meth:`invalidate_cache` calls.
        self.cache_invalidation_calls = 0
        #: Callbacks fired after every invalidation; the serving layer
        #: (result cache, planner, index manager) subscribes here so one
        #: catalog mutation propagates to every derived structure.
        self._invalidation_listeners: List[Callable[[Optional[str]], None]] = []
        #: Columnar op table driving the all-bins sweep.  Built and
        #: subscribed to the invalidation feed here, not on first use, so
        #: concurrent first sweeps cannot each create (and leak) one; it
        #: compiles rows lazily, so an engine that never sweeps pays only
        #: for an empty table.
        self._optable = OpTableManager(store, quantizer)
        self.add_invalidation_listener(self._optable.on_invalidation)

    @property
    def quantizer(self) -> UniformQuantizer:
        """The quantizer whose bins the bounds refer to."""
        return self._quantizer

    # ------------------------------------------------------------------
    # Scalar walk (the paper's per-bin BOUNDS; correctness oracle)
    # ------------------------------------------------------------------
    def bounds(self, image_id: str, bin_index: int) -> PixelBounds:
        """BOUNDS for a stored image (exact for binary, interval for edited)."""
        if not self.cache_enabled:
            return self._bounds_inner(
                image_id, bin_index, frozenset(), self._max_depth
            )
        key = (image_id, bin_index)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        vec = self._vec_cache.get(image_id)
        if vec is not None:
            self.cache_hits += 1
            lo, hi, height, width = vec
            self._quantizer.validate_bin(bin_index)
            # Promoted to the scalar memo, so the next read of this bin
            # is the dict hit above, not another column read.
            result = PixelBounds(int(lo[bin_index]), int(hi[bin_index]), height, width)
        else:
            self.cache_misses += 1
            result = self._bounds_inner(
                image_id, bin_index, frozenset(), self._max_depth
            )
        self._cache[key] = result
        self._cached_bins.setdefault(image_id, set()).add(bin_index)
        return result

    def sequence_bounds(
        self, sequence: EditSequence, bin_index: int
    ) -> PixelBounds:
        """BOUNDS for an ad-hoc sequence whose base/targets are in the store."""
        return self._sequence_bounds_inner(
            sequence, bin_index, frozenset(), self._max_depth
        )

    def fraction_bounds(self, image_id: str, bin_index: int) -> Tuple[float, float]:
        """Convenience: ``(BOUND_min/size, BOUND_max/size)``."""
        result = self.bounds(image_id, bin_index)
        return (result.fraction_lo, result.fraction_hi)

    # ------------------------------------------------------------------
    # All bins of one image (one-id form of the columnar sweep)
    # ------------------------------------------------------------------
    def bounds_all_bins(self, image_id: str) -> AllBinsBounds:
        """The full BOUNDS matrix of a stored image.

        Returns read-only int64 vectors ``(lo, hi)`` of length
        ``quantizer.bin_count`` plus the exact dimensions.  Bin ``b`` of
        the vectors equals :meth:`bounds`\\ ``(image_id, b)`` exactly
        (property-tested).  This is :meth:`bounds_all_bins_batch` for a
        single id — same sweep, same memo cache, same errors — so loops
        over many images should pass them to the batch form in one call.
        """
        return self.bounds_all_bins_batch((image_id,))[0]

    def walk_states(
        self, image_id: str
    ) -> Tuple[EditSequence, List[AllBinsBounds]]:
        """Per-operation interval states of an edited image's sequence.

        Diagnostic companion to :meth:`bounds_all_bins` for the
        observability layer (:mod:`repro.obs.attribution`): returns the
        image's outer edit sequence plus ``len(operations) + 1`` all-bins
        states — ``states[0]`` is the base image's interval matrix and
        ``states[i]`` the matrix after ``operations[i - 1]`` — so a
        caller can attribute *which* operation widened a bin's bounds
        past a query range.

        Base images and Merge targets resolve through the normal
        (possibly memoized) :meth:`bounds_all_bins` path — that part is
        real, memoizable work and counts toward :attr:`rules_applied` —
        but the replay of the outer sequence itself is never cached and
        adds nothing to the work metric: it is an explain-path replay,
        not query processing, and must not skew the §5 numbers.
        """
        record = self._store.lookup_for_bounds(image_id)
        if not isinstance(record, EditSequence):
            raise RuleError(
                f"walk_states needs an edited image; {image_id!r} is binary"
            )
        base = self.bounds_all_bins(record.base_id)
        state = BatchRuleState.stack([(*base, Rect(0, 0, base[2], base[3]))])
        row = np.zeros(1, dtype=np.int64)
        ctx = BatchRuleContext(
            quantizer=self._quantizer,
            fill_color=self._fill_color,
            resolve_target=self.bounds_all_bins,
        )
        states: List[AllBinsBounds] = [state.row_state(0)[:4]]
        for op in record.operations:
            errors = apply_rule_batched(state, row, op, ctx)
            if errors:
                raise errors[0]
            states.append(state.row_state(0)[:4])
        return record, states

    def fraction_bounds_all_bins(
        self, image_id: str
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-bin fraction intervals ``(lo/size, hi/size)`` as float64 vectors.

        The division matches :attr:`PixelBounds.fraction_lo` /
        ``fraction_hi`` bit for bit, so pruning decisions built on these
        vectors are identical to the scalar path's.
        """
        return self.fraction_bounds_all_bins_batch((image_id,))[0]

    def seed_bounds(self, image_id: str, bounds: AllBinsBounds) -> None:
        """Install a precomputed all-bins matrix into the memo cache.

        The shard compactor (:mod:`repro.shard.compactor`) materializes
        hot sequences in the background and commits the result here, so
        the next query serves the matrix as a cache hit instead of
        re-walking the rules.  The caller is responsible for ``bounds``
        being exactly what :meth:`bounds_all_bins` would compute —
        parity is property-tested, and results are unchanged either way
        because the memo cache is transparent.

        Dependency edges register along the image's whole reference
        closure — each node's *direct* references only, matching what a
        real walk records (the DB005 verifier checks every edge against
        the dependent's own sequence) — so a targeted
        :meth:`invalidate` anywhere upstream still drops the seeded
        entry transitively.
        """
        if not self.cache_enabled:
            raise RuleError(
                "seed_bounds requires cache_enabled (there is no memo "
                "cache to seed)"
            )
        lo_in, hi_in, height, width = bounds
        expected = (self._quantizer.bin_count,)
        lo = np.array(lo_in, dtype=np.int64)
        hi = np.array(hi_in, dtype=np.int64)
        if lo.shape != expected or hi.shape != expected:
            raise RuleError(
                f"seeded bounds for {image_id!r} have shapes "
                f"{lo.shape}/{hi.shape}, expected {expected}"
            )
        lo.setflags(write=False)
        hi.setflags(write=False)
        stack: List[str] = [image_id]
        seen: Set[str] = {image_id}
        while stack:
            current = stack.pop()
            record = self._store.lookup_for_bounds(current)
            if not isinstance(record, EditSequence):
                continue
            self._register_dependencies(current, record)
            for referenced in record.referenced_ids():
                if referenced not in seen:
                    seen.add(referenced)
                    stack.append(referenced)
        self._vec_cache[image_id] = (lo, hi, int(height), int(width))

    def has_cached_bounds(self, image_id: str) -> bool:
        """Whether an all-bins matrix for ``image_id`` is currently memoized.

        Lets cache-adjacent book-keeping (the shard compactor's
        materialization ledger) observe invalidation fallout without
        reaching into the private memo dict.
        """
        return image_id in self._vec_cache

    # ------------------------------------------------------------------
    # Columnar sweep (all images x all bins)
    # ------------------------------------------------------------------
    @property
    def optable_manager(self) -> OpTableManager:
        """The columnar op-table manager, subscribed to the change feed."""
        return self._optable

    def bounds_all_bins_batch(self, image_ids: Sequence[str]) -> BoundsMatrix:
        """All-bins BOUNDS for many images in one structure-of-arrays sweep.

        Bin ``b`` of element ``i`` equals :meth:`bounds`\\
        ``(image_ids[i], b)`` exactly, and the first (in input order)
        failing id raises the error — type and message — the scalar walk
        raises for it.  Edited images are computed together by
        :func:`repro.core.optable.sweep_table`: one masked, vectorized
        Table-1 rule application per op rank across the whole batch
        instead of a Python walk per image and bin.  Shared references
        (chained bases, Merge targets) are computed once per sweep, so
        :attr:`rules_applied` grows by at most the summed sequence
        lengths of the images swept.  With the memo cache on, requested
        ids are served from and seeded into the vector cache, and
        dependency edges register for everything swept so a targeted
        :meth:`invalidate` drops exactly the affected entries.

        The :class:`BoundsMatrix` returned reads as the list of
        :data:`AllBinsBounds` tuples and exposes the same intervals as
        matrices; when every requested id was swept it *is* the sweep's
        output block, with no per-image unpacking in between.
        """
        results: Dict[str, AllBinsBounds] = {}
        errors: Dict[str, ReproError] = {}
        edited: List[str] = []
        for image_id in dict.fromkeys(image_ids):
            if self.cache_enabled:
                cached = self._vec_cache.get(image_id)
                if cached is not None:
                    self.cache_hits += 1
                    results[image_id] = cached
                    continue
            try:
                record = self._store.lookup_for_bounds(image_id)
            except ReproError as exc:
                errors[image_id] = exc
                continue
            if isinstance(record, tuple):
                histogram, height, width = record
                result = (histogram.counts, histogram.counts, height, width)
                if self.cache_enabled:
                    self.cache_misses += 1
                    self._vec_cache[image_id] = result
                results[image_id] = result
            elif isinstance(record, EditSequence):
                edited.append(image_id)
            else:
                errors[image_id] = UnknownObjectError(
                    f"unexpected store record for {image_id!r}"
                )
        bins = self._quantizer.bin_count
        block: Optional[BoundsMatrix] = None
        if edited:
            manager = self.optable_manager
            outcome = manager.compute(
                edited, fill_color=self._fill_color, max_depth=self._max_depth
            )
            self.rules_applied += outcome.ops_applied
            if self.cache_enabled:
                self.cache_misses += len(edited)
                table = manager.table
                for swept_id in outcome.swept_ids:
                    for referenced in table.refs_of(swept_id):
                        self._dependents.setdefault(referenced, set()).add(
                            swept_id
                        )
            if not outcome.failures and len(edited) == len(image_ids):
                # Every requested id swept cleanly: the answer is the
                # sweep's own block, and only a memo wants per-id rows.
                rows = outcome.rows
                block = BoundsMatrix(
                    bins,
                    columns=(
                        outcome.lo[rows],
                        outcome.hi[rows],
                        outcome.heights[rows],
                        outcome.widths[rows],
                    ),
                )
            if block is None or self.cache_enabled:
                for position, image_id in enumerate(edited):
                    failure = outcome.failures.get(image_id)
                    if failure is not None:
                        errors[image_id] = failure
                        continue
                    result = outcome.view(position)
                    # Only requested ids are memoized, not swept references.
                    if self.cache_enabled:
                        self._vec_cache[image_id] = result
                    results[image_id] = result
        if errors:
            raise next(errors[i] for i in image_ids if i in errors)
        if block is not None:
            return block
        return BoundsMatrix(
            bins, rows=[results[image_id] for image_id in image_ids]
        )

    def fraction_bounds_all_bins_batch(
        self, image_ids: Sequence[str]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Batched :meth:`fraction_bounds_all_bins`: same division, one sweep."""
        bounds = self.bounds_all_bins_batch(image_ids)
        totals = (bounds.heights * bounds.widths).astype(np.float64)[:, None]
        return list(zip(bounds.lo / totals, bounds.hi / totals))

    # ------------------------------------------------------------------
    # Cache maintenance
    # ------------------------------------------------------------------
    def add_invalidation_listener(
        self, callback: Callable[[Optional[str]], None]
    ) -> None:
        """Subscribe ``callback(image_id)`` to invalidation events.

        The callback fires after every :meth:`invalidate` (with the
        changed image's id) and :meth:`invalidate_cache` (with ``None``),
        regardless of whether the memo cache is enabled — it is the
        database's change-notification channel, not a cache detail.
        Callbacks must not mutate the engine or the catalog.
        """
        self._invalidation_listeners.append(callback)

    def remove_invalidation_listener(
        self, callback: Callable[[Optional[str]], None]
    ) -> None:
        """Unsubscribe a previously added listener (no-op if absent)."""
        try:
            self._invalidation_listeners.remove(callback)
        except ValueError:
            pass

    def _notify_invalidation(self, image_id: Optional[str]) -> None:
        for callback in list(self._invalidation_listeners):
            callback(image_id)

    def invalidate(self, image_id: str) -> int:
        """Drop memo entries affected by a change to ``image_id``.

        Walks the reverse dependency graph recorded during cached walks:
        the changed image itself, every edited image whose walk consulted
        it (as base or Merge target), and so on transitively through
        chained edits.  Entries for unrelated images survive.  Returns
        the number of memo entries dropped.
        """
        self.cache_invalidation_calls += 1
        dropped = 0
        stack: List[str] = [image_id]
        seen: Set[str] = {image_id}
        while stack:
            current = stack.pop()
            dropped += self._drop_entries(current)
            for dependent in self._dependents.pop(current, ()):
                if dependent not in seen:
                    seen.add(dependent)
                    stack.append(dependent)
        # Scrub the invalidated ids out of the surviving reverse edges:
        # their walks are gone, so an edge pointing at them would keep a
        # deleted/changed image alive in the graph (stale edges the
        # static verifier's DB005 check would flag).
        for referenced in list(self._dependents):
            dependents = self._dependents[referenced]
            dependents -= seen
            if not dependents:
                del self._dependents[referenced]
        self.cache_invalidated_entries += dropped
        self._notify_invalidation(image_id)
        return dropped

    def invalidate_cache(self) -> None:
        """Drop every memoized interval (the coarse, always-safe flush).

        :meth:`invalidate` is the precise per-image form; this remains
        for bulk rebuilds (e.g. integrity repair) where everything may
        have moved.
        """
        self.cache_invalidation_calls += 1
        self.cache_invalidated_entries += len(self._cache) + len(self._vec_cache)
        self._cache.clear()
        self._cached_bins.clear()
        self._vec_cache.clear()
        self._dependents.clear()
        self._notify_invalidation(None)

    def dependency_edges(self) -> List[Tuple[str, str]]:
        """Snapshot of the learned reverse-dependency graph.

        Returns sorted ``(referenced_id, dependent_id)`` pairs: the walk
        for ``dependent_id`` consulted ``referenced_id``, so invalidating
        the former must drop the latter.  Exposed for the static catalog
        verifier (``repro analyze-db``), which cross-checks these edges
        against the stored sequences.
        """
        return sorted(
            (referenced, dependent)
            for referenced, dependents in self._dependents.items()
            for dependent in dependents
        )

    def cache_stats(self) -> Dict[str, int]:
        """Hit/miss/invalidation counters plus current memo sizes."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "invalidation_calls": self.cache_invalidation_calls,
            "invalidated_entries": self.cache_invalidated_entries,
            "scalar_entries": len(self._cache),
            "vector_entries": len(self._vec_cache),
        }

    def _drop_entries(self, image_id: str) -> int:
        """Remove every memo entry for one image; returns the count."""
        dropped = 0
        if self._vec_cache.pop(image_id, None) is not None:
            dropped += 1
        for bin_index in self._cached_bins.pop(image_id, ()):
            if self._cache.pop((image_id, bin_index), None) is not None:
                dropped += 1
        return dropped

    def _register_dependencies(self, image_id: str, sequence: EditSequence) -> None:
        """Record reverse edges from every referenced image to ``image_id``."""
        for referenced in sequence.referenced_ids():
            self._dependents.setdefault(referenced, set()).add(image_id)

    # ------------------------------------------------------------------
    # Scalar internals
    # ------------------------------------------------------------------
    def _bounds_inner(
        self,
        image_id: str,
        bin_index: int,
        visiting: FrozenSet[str],
        depth: int,
    ) -> PixelBounds:
        if image_id in visiting:
            raise RuleError(f"cyclic Merge reference through {image_id!r}")
        if depth <= 0:
            raise RuleError(
                f"Merge recursion deeper than {self._max_depth} at {image_id!r}"
            )
        record = self._store.lookup_for_bounds(image_id)
        if isinstance(record, tuple):
            histogram, height, width = record
            self._quantizer.validate_bin(bin_index)
            return PixelBounds.exact(histogram.count(bin_index), height, width)
        if isinstance(record, EditSequence):
            if self.cache_enabled:
                self._register_dependencies(image_id, record)
            return self._sequence_bounds_inner(
                record, bin_index, visiting | {image_id}, depth
            )
        raise UnknownObjectError(f"unexpected store record for {image_id!r}")

    def _sequence_bounds_inner(
        self,
        sequence: EditSequence,
        bin_index: int,
        visiting: FrozenSet[str],
        depth: int,
    ) -> PixelBounds:
        base = self._bounds_inner(sequence.base_id, bin_index, visiting, depth - 1)
        # A base that is itself an edited image (chained sequences) starts
        # the walk from its interval rather than an exact count; for binary
        # bases lo == hi and this matches initial_state exactly.
        state = RuleState(
            lo=base.lo,
            hi=base.hi,
            height=base.height,
            width=base.width,
            dr=Rect(0, 0, base.height, base.width),
        )

        def resolve(target_id: str, target_bin: int) -> Tuple[int, int, int, int]:
            inner = self._bounds_inner(
                target_id, target_bin, visiting, depth - 1
            )
            return (inner.lo, inner.hi, inner.height, inner.width)

        ctx = RuleContext(
            quantizer=self._quantizer,
            bin_index=self._quantizer.validate_bin(bin_index),
            fill_color=self._fill_color,
            resolve_target=resolve,
        )
        for op in sequence.operations:
            state = apply_rule(state, op, ctx)
            self.rules_applied += 1
        state.validate()
        return PixelBounds(state.lo, state.hi, state.height, state.width)
