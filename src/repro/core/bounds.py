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

With the memo on (:meth:`BoundsEngine.enable_memo`), results memoize
per image as rows of one pair of ``(rows x bins)`` count matrices with
*dependency-aware* invalidation:
the engine records, while walking, which image each walk consulted (base
chain + Merge targets), and :meth:`invalidate` dirties only the rows
reachable from a changed image through the reverse dependency graph
instead of flushing everything.  A bound so has two shapes: a memo row,
read by column (:meth:`BoundsEngine.bounds_of_rows`), and the public
return types :class:`PixelBounds` / :data:`AllBinsBounds` cut from it.
An edited image's row can also hold its *exact* histogram, stored by the
kNN refinement that instantiated it (:meth:`BoundsEngine.store_exact`):
that histogram depends on the same base chain and Merge targets as the
walk, so the same invalidation drops it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
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

#: Counts of the memo's exact column: half the bytes of int64, and no
#: bin of an image under 2**31 pixels overflows it (larger images are
#: never stored, only refined).
EXACT_DTYPE = np.int32


class BoundsMatrix(Sequence[AllBinsBounds]):
    """All-bins BOUNDS of many images: rows for id consumers, columns
    for array consumers.

    As a sequence it is what :meth:`BoundsEngine.bounds_all_bins_batch`
    always returned — element ``i`` is the :data:`AllBinsBounds` of
    ``image_ids[i]``; indexing, slicing and iteration yield those
    tuples, whose vectors are read-only.  ``lo`` / ``hi`` are the same
    intervals as ``(images x bins)`` int64 matrices with ``heights`` /
    ``widths`` columns aligned to them.

    Underneath it is a row selection over storage it does not own — the
    engine's memo, or the state matrices of one sweep — with ``rows[i]``
    the storage row of element ``i``.  :meth:`column` gathers one bin of
    the selected rows (``lo[:, bin][rows]``, never ``lo[rows]``), which is
    all a range query reads; a whole matrix is gathered the first time
    it, or a row of it, is asked for.  A memo-backed matrix reads live
    rows: consume it before the next catalog mutation.
    """

    __slots__ = ("_storage", "_rows", "_block")

    def __init__(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        heights: np.ndarray,
        widths: np.ndarray,
        rows: np.ndarray,
    ) -> None:
        self._storage = (lo, hi, heights, widths)
        self._rows = rows
        self._block: List[Optional[np.ndarray]] = [None, None, None, None]

    @staticmethod
    def of_histograms(
        histograms: Sequence[ColorHistogram], bins: int
    ) -> "BoundsMatrix":
        """Stored histograms' exact counts, stacked once (``lo`` is ``hi``).
        A histogram knows its pixel total, not its shape: total x 1."""
        counts = stack_rows([each.counts for each in histograms], bins)
        totals = np.array([each.total for each in histograms], dtype=np.int64)
        return BoundsMatrix(
            counts, counts, totals, np.ones_like(totals), np.arange(len(totals))
        )

    @property
    def rows(self) -> np.ndarray:
        """Storage row of each element: its memo row when memo-backed."""
        return self._rows

    def over(self, rows: np.ndarray) -> "BoundsMatrix":
        """The same storage — one memo generation, or one sweep's
        state — selected at other ``rows``."""
        return BoundsMatrix(*self._storage, rows)

    def column(self, bin_index: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(BOUND_min, BOUND_max)`` counts of one bin, one per image."""
        lo, hi, _, _ = self._storage
        # A 1-D gather from the column view is twice as fast as
        # ``lo[rows, bin_index]``.
        return lo[:, bin_index][self._rows], hi[:, bin_index][self._rows]

    @property
    def totals(self) -> np.ndarray:
        """Pixel counts ``height * width``, one per image."""
        _, _, heights, widths = self._storage
        return heights[self._rows] * widths[self._rows]

    def _gathered(self, which: int) -> np.ndarray:
        block = self._block[which]
        if block is None:
            block = self._block[which] = self._storage[which][self._rows]
            block.setflags(write=False)
        return block

    @property
    def lo(self) -> np.ndarray:
        """``BOUND_min`` counts, ``(images x bins)``, read-only."""
        return self._gathered(0)

    @property
    def hi(self) -> np.ndarray:
        """``BOUND_max`` counts, ``(images x bins)``, read-only."""
        return self._gathered(1)

    @property
    def heights(self) -> np.ndarray:
        """Exact image heights, one per row."""
        return self._gathered(2)

    @property
    def widths(self) -> np.ndarray:
        """Exact image widths, one per row."""
        return self._gathered(3)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[AllBinsBounds]:
        return iter(
            zip(self.lo, self.hi, self.heights.tolist(), self.widths.tolist())
        )

    @overload
    def __getitem__(self, index: int) -> AllBinsBounds: ...

    @overload
    def __getitem__(self, index: slice) -> List[AllBinsBounds]: ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[AllBinsBounds, List[AllBinsBounds]]:
        if isinstance(index, slice):
            return list(self)[index]
        height, width = int(self.heights[index]), int(self.widths[index])
        return (self.lo[index], self.hi[index], height, width)


class _MemoArrays:
    """One generation of the memo's storage.  Growth swaps a new
    generation in whole, never resizing in place, so a reader keeps
    reading consistent rows of the one it took."""

    __slots__ = ("lo", "hi", "heights", "widths", "valid", "exact", "exact_valid")

    def __init__(self, capacity: int, bins: int) -> None:
        self.lo = np.zeros((capacity, bins), dtype=np.int64)
        self.hi = np.zeros((capacity, bins), dtype=np.int64)
        self.heights = np.zeros(capacity, dtype=np.int64)
        self.widths = np.zeros(capacity, dtype=np.int64)
        self.valid = np.zeros(capacity, dtype=bool)
        #: The exact column: refined histogram counts of edited rows,
        #: allocated by the first refinement stored, so an engine that
        #: only serves range queries carries none.  ``exact_valid``
        #: implies ``valid``: every clear of one clears the other.
        self.exact: Optional[np.ndarray] = None
        self.exact_valid: Optional[np.ndarray] = None

    def with_exact(self) -> Tuple[np.ndarray, np.ndarray]:
        """The exact column, allocated on first use."""
        if self.exact is None or self.exact_valid is None:
            # np.zeros, not zeros_like: untouched pages cost no memory.
            self.exact = np.zeros(self.lo.shape, dtype=EXACT_DTYPE)
            self.exact_valid = np.zeros(len(self.valid), dtype=bool)
        return self.exact, self.exact_valid

    def dirty(self, rows: Union[int, np.ndarray]) -> None:
        """Clear ``rows`` in ``valid`` and in the exact column."""
        self.valid[rows] = False
        if self.exact_valid is not None:
            self.exact_valid[rows] = False

    def grown(self, capacity: int) -> "_MemoArrays":
        """A larger generation holding this one's rows."""
        bigger = _MemoArrays(capacity, self.lo.shape[1])
        if self.exact is not None:
            bigger.with_exact()
        for name in self.__slots__:
            mine = getattr(self, name)
            if mine is not None:
                getattr(bigger, name)[: len(self.valid)] = mine
        return bigger


class _ThreadHits(threading.local):
    """Memo hits counted on the current thread."""

    hits = 0


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
        Construct with the memo already on (:meth:`enable_memo`).  Off
        by default so the performance evaluation measures the
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
        self._memo_on = False
        #: The memo: image id -> row of :attr:`_memo`, whose ``valid``
        #: mask says which rows hold a current result.  Rows are handed
        #: out on first read, filled by a sweep, dirtied by
        #: :meth:`invalidate` and recycled through ``_free_rows`` (their
        #: ``_row_ids`` entry blank) once their image leaves the store.
        self._memo = _MemoArrays(0, quantizer.bin_count)
        self._row_of: Dict[str, int] = {}
        self._row_ids: List[str] = []
        self._free_rows: List[int] = []
        #: Guards row allocation, fills and releases; reads of valid
        #: rows take no lock.
        self._memo_lock = threading.Lock()
        #: Bumped by every invalidation (and failed fill): a result
        #: computed from memo rows before it moved may be stale, which
        #: is what guards the exact column (:meth:`store_exact`).
        self.memo_epoch = 0
        #: Bumped only when a memo row changes owner — a release (its
        #: image left the store, or a fill failed) or
        #: :meth:`invalidate_cache`: whoever keeps memo rows between
        #: calls re-asks for them when this moved.  An in-place change
        #: dirties rows but keeps every owner.
        self.owner_epoch = 0
        #: Reverse dependency edges observed while walking: referenced
        #: image id -> ids of edited images whose walk consulted it.
        self._dependents: Dict[str, Set[str]] = {}
        #: The same edges by dependent: image id -> the ids it was
        #: registered under in ``_dependents``, so :meth:`invalidate`
        #: scrubs the edges of the ids it dropped and no others.
        self._references: Dict[str, Tuple[str, ...]] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self._thread_hits = _ThreadHits()
        #: Exact-column rows read by refinements (:meth:`exact_of_rows`)
        #: and written by them (:meth:`store_exact`).
        self.exact_hits = 0
        self.exact_fills = 0
        #: Memo entries dropped by invalidation (targeted or whole-cache).
        self.cache_invalidated_entries = 0
        #: Number of :meth:`invalidate` / :meth:`invalidate_cache` calls.
        self.cache_invalidation_calls = 0
        #: Callbacks fired after every invalidation; the serving layer
        #: (result cache, index manager) subscribes here so one
        #: catalog mutation propagates to every derived structure.
        self._invalidation_listeners: List[Callable[[Optional[str]], None]] = []
        #: Columnar op table driving the all-bins sweep.  Built and
        #: subscribed to the invalidation feed here, not on first use, so
        #: concurrent first sweeps cannot each create (and leak) one; it
        #: compiles rows lazily, so an engine that never sweeps pays only
        #: for an empty table.
        self._optable = OpTableManager(store, quantizer)
        self.add_invalidation_listener(self._optable.on_invalidation)
        if cache_enabled:
            self.enable_memo()

    @property
    def cache_enabled(self) -> bool:
        """Whether results memoize between calls (see :meth:`enable_memo`)."""
        return self._memo_on

    def enable_memo(self) -> None:
        """Keep results between calls from now on: idempotent, one-way.

        The one place the memo is turned on — ``cache_enabled=True``,
        ``MultimediaDatabase(bounds_cache=True)`` and the long-lived
        front ends (``QueryService``, ``ShardedCatalog``) all come
        through here.  Off, every call computes from the store and
        nothing survives it, so there is nothing to carry over; on,
        reads go through memo rows, fills record the dependency edges
        :meth:`invalidate` follows, and the column-compare processors
        keep their layouts.  There is no way back: holders of memo rows
        rely on them staying addressable.
        """
        self._memo_on = True

    @property
    def quantizer(self) -> UniformQuantizer:
        """The quantizer whose bins the bounds refer to."""
        return self._quantizer

    # ------------------------------------------------------------------
    # Scalar walk (the paper's per-bin BOUNDS; correctness oracle)
    # ------------------------------------------------------------------
    def bounds(self, image_id: str, bin_index: int) -> PixelBounds:
        """BOUNDS for a stored image (exact for binary, interval for edited).

        With the memo on, an element read of the image's row (filled
        first, every bin at once, by a one-id sweep when dirty).
        """
        if not self._memo_on:
            walk = _ScalarWalk(self, bin_index)
            return PixelBounds(*walk.image(image_id, bin_index))
        matrix = self.bounds_all_bins_batch((image_id,))
        self._quantizer.validate_bin(bin_index)
        (lo,), (hi,) = matrix.column(bin_index)
        return PixelBounds(
            int(lo), int(hi), int(matrix.heights[0]), int(matrix.widths[0])
        )

    def sequence_bounds(
        self, sequence: EditSequence, bin_index: int
    ) -> PixelBounds:
        """BOUNDS for an ad-hoc sequence whose base/targets are in the store."""
        return PixelBounds(*_ScalarWalk(self, bin_index).sequence(sequence))

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

    def has_cached_bounds(self, image_id: str) -> bool:
        """Whether an all-bins matrix for ``image_id`` is currently memoized.

        Lets cache-adjacent book-keeping (the shard compactor's
        materialization ledger) observe invalidation fallout without
        reaching into the private memo.
        """
        row = self._row_of.get(image_id)
        return row is not None and bool(self._memo.valid[row])

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
        lengths of the images swept.

        With the memo cache on this is :meth:`bounds_of_rows` over the
        ids' memo rows: only dirty rows are swept, and dependency edges
        register for everything swept so a targeted :meth:`invalidate`
        dirties exactly the affected rows.  With it off the result
        selects from this call's own sweep state and nothing survives.
        """
        if self._memo_on:
            return self.bounds_of_rows(self.memo_rows(image_ids))
        return self._sweep(image_ids)

    def _sweep(self, image_ids: Sequence[str]) -> BoundsMatrix:
        """Compute ``image_ids`` from the store, reading no memo row."""
        results: Dict[str, AllBinsBounds] = {}
        errors: Dict[str, ReproError] = {}
        edited: List[str] = []
        for image_id in dict.fromkeys(image_ids):
            try:
                record = self._store.lookup_for_bounds(image_id)
            except ReproError as exc:
                errors[image_id] = exc
                continue
            if isinstance(record, tuple):
                histogram, height, width = record
                results[image_id] = (histogram.counts, histogram.counts, height, width)
            elif isinstance(record, EditSequence):
                edited.append(image_id)
            else:
                errors[image_id] = UnknownObjectError(
                    f"unexpected store record for {image_id!r}"
                )
        if edited:
            manager = self.optable_manager
            outcome = manager.compute(
                edited, fill_color=self._fill_color, max_depth=self._max_depth
            )
            self.rules_applied += outcome.ops_applied
            if self._memo_on:
                table = manager.table
                for swept_id in outcome.swept_ids:
                    self._register_dependencies(swept_id, table.refs_of(swept_id))
            if not outcome.failures and len(edited) == len(image_ids):
                # Every requested id swept cleanly: the answer is a row
                # selection over the sweep's own state.
                state = (outcome.lo, outcome.hi, outcome.heights, outcome.widths)
                return BoundsMatrix(*state, outcome.rows)
            for position, image_id in enumerate(edited):
                failure = outcome.failures.get(image_id)
                if failure is not None:
                    errors[image_id] = failure
                else:
                    results[image_id] = outcome.view(position)
        if errors:
            raise next(errors[i] for i in image_ids if i in errors)
        found = [results[image_id] for image_id in image_ids]
        return BoundsMatrix(
            stack_rows([each[0] for each in found], self._quantizer.bin_count),
            stack_rows([each[1] for each in found], self._quantizer.bin_count),
            np.array([each[2] for each in found], dtype=np.int64),
            np.array([each[3] for each in found], dtype=np.int64),
            np.arange(len(found)),
        )

    # ------------------------------------------------------------------
    # The memo: rows, fills
    # ------------------------------------------------------------------
    def memo_rows(self, image_ids: Sequence[str]) -> np.ndarray:
        """The memo rows of ``image_ids``, one per id, in order.

        An id without a row is given a dirty one — nothing is computed
        here, so rows are allocated on first read and ingest pays
        nothing.  A row stays its image's until the image leaves the
        store (:meth:`invalidate` then releases it) or a fill of it
        fails; holders re-ask when :attr:`owner_epoch` moved.
        """
        if not self._memo_on:
            raise RuleError("memo_rows requires cache_enabled")
        row_of = self._row_of
        try:
            return np.array([row_of[i] for i in image_ids], dtype=np.int64)
        except KeyError:
            with self._memo_lock:
                rows = [
                    row_of[i] if i in row_of else self._allocate(i)
                    for i in image_ids
                ]
            return np.array(rows, dtype=np.int64)

    def bounds_of_rows(self, rows: np.ndarray) -> BoundsMatrix:
        """All-bins BOUNDS of the images at memo ``rows`` (as handed out
        by :meth:`memo_rows`), dirty rows filled first by one sweep.

        The cached read path: a valid row counts a ``cache_hits``, a
        filled one a ``cache_misses``, and the result selects ``rows``
        of the memo itself — nothing is copied until a consumer gathers.
        """
        memo = self._memo
        valid = memo.valid[rows]
        hits = int(np.count_nonzero(valid))
        self.cache_hits += hits
        self._thread_hits.hits += hits
        if hits != len(rows):
            self.cache_misses += len(rows) - hits
            memo = self._fill(rows[~valid])
        return BoundsMatrix(memo.lo, memo.hi, memo.heights, memo.widths, rows)

    @property
    def thread_cache_hits(self) -> int:
        """The ``cache_hits`` counted by :meth:`bounds_of_rows` calls on
        the calling thread: what one caller's own reads found valid,
        whatever other threads read meanwhile."""
        return self._thread_hits.hits

    def _fill(self, rows: np.ndarray) -> _MemoArrays:
        """Sweep the still-dirty ones of ``rows`` into the memo; returns
        the generation that now holds them."""
        with self._memo_lock:
            memo = self._memo
            # Another reader may have filled some since the caller looked.
            dirty = np.unique(rows[~memo.valid[rows]])
            if len(dirty):
                try:
                    swept = self._sweep([self._row_ids[r] for r in dirty.tolist()])
                except ReproError:
                    # Nothing was written; hand the rows back, so an id
                    # the store does not know cannot pin one for ever.
                    for row in dirty.tolist():
                        self._release(row)
                    self.memo_epoch += 1
                    self.owner_epoch += 1
                    raise
                memo.dirty(dirty)  # a refilled row starts with no exact row
                memo.lo[dirty], memo.hi[dirty] = swept.lo, swept.hi
                memo.heights[dirty], memo.widths[dirty] = swept.heights, swept.widths
                memo.valid[dirty] = True  # last: whoever sees it reads whole rows
            return memo

    def _allocate(self, image_id: str) -> int:
        """A dirty row for ``image_id`` (lock held)."""
        if self._free_rows:
            row = self._free_rows.pop()
            self._row_ids[row] = image_id
        else:
            row = len(self._row_ids)
            self._row_ids.append(image_id)
            if row >= len(self._memo.valid):
                self._memo = self._memo.grown(max(64, 2 * row))
        self._row_of[image_id] = row
        return row

    def _release(self, row: int) -> None:
        """Return an image's ``row`` to the free list (lock held); the
        caller bumps :attr:`owner_epoch`."""
        del self._row_of[self._row_ids[row]]
        self._row_ids[row] = ""
        self._memo.dirty(row)
        self._free_rows.append(row)

    # ------------------------------------------------------------------
    # The exact column: refined histograms of edited rows
    # ------------------------------------------------------------------
    def exact_of_rows(
        self, rows: np.ndarray, epoch: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The memoized exact histograms among memo ``rows``.

        Returns ``(positions, counts)``: the indexes into ``rows`` whose
        row holds its image's exact histogram, and those histograms'
        counts as a ``(len(positions) x bins)`` matrix, gathered under
        the memo lock.  Nothing is returned once :attr:`memo_epoch` has
        moved past ``epoch`` (read before ``rows`` were), as the rows
        may hold other images by then.
        """
        with self._memo_lock:
            memo = self._memo
            if self.memo_epoch != epoch or memo.exact_valid is None:
                positions = np.empty(0, dtype=np.int64)
                bins = self._quantizer.bin_count
                return positions, np.empty((0, bins), dtype=EXACT_DTYPE)
            positions = np.flatnonzero(memo.exact_valid[rows])
            counts = memo.exact[rows[positions]]  # type: ignore[index]
            self.exact_hits += len(positions)
        return positions, counts

    def store_exact(self, rows: np.ndarray, counts: np.ndarray, epoch: int) -> int:
        """Memoize refined histograms: ``counts[i]`` at memo ``rows[i]``.

        The guard of a fill: written under the memo lock, only while
        :attr:`memo_epoch` still equals ``epoch`` — read before the
        histograms were computed — and only into rows whose bounds are
        valid, so an invalidation that raced the instantiation wins.
        A stored row is then dropped with its bounds row, by the same
        dependency edges: an image's exact histogram depends on exactly
        what its Table 1 walk consulted.  Returns the rows written.
        """
        if not self._memo_on:
            raise RuleError("store_exact requires cache_enabled")
        with self._memo_lock:
            if self.memo_epoch != epoch:
                return 0
            memo = self._memo
            fits = counts.sum(axis=1) <= np.iinfo(EXACT_DTYPE).max
            keep = memo.valid[rows] & fits
            exact, exact_valid = memo.with_exact()
            exact[rows[keep]] = counts[keep]
            exact_valid[rows[keep]] = True
            written = int(np.count_nonzero(keep))
            self.exact_fills += written
        return written

    def fraction_bounds_all_bins_batch(
        self, image_ids: Sequence[str]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-bin fraction intervals ``(lo/size, hi/size)`` of each image,
        as float64 vectors, from one sweep.

        The division matches :attr:`PixelBounds.fraction_lo` /
        ``fraction_hi`` bit for bit, so pruning decisions built on these
        vectors are identical to the scalar path's.
        """
        bounds = self.bounds_all_bins_batch(image_ids)
        totals = bounds.totals.astype(np.float64)[:, None]
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
        """Dirty the memo rows affected by a change to ``image_id``.

        Walks the reverse dependency graph recorded during cached walks:
        the changed image itself, every edited image whose walk consulted
        it (as base or Merge target), and so on transitively through
        chained edits.  Rows of unrelated images stay valid; the changed
        image and its dependents keep their (now dirty) rows for the
        next fill.  The changed image's own row is released only when
        the store no longer holds the image, so an in-place change moves
        :attr:`memo_epoch` but not :attr:`owner_epoch`.  Returns the
        number of valid rows dirtied.
        """
        self.cache_invalidation_calls += 1
        dropped = 0
        stack: List[str] = [image_id]
        seen: Set[str] = {image_id}
        with self._memo_lock:
            memo = self._memo
            while stack:
                current = stack.pop()
                row = self._row_of.get(current)
                if row is not None and memo.valid[row]:
                    memo.dirty(row)
                    dropped += 1
                for dependent in self._dependents.pop(current, ()):
                    if dependent not in seen:
                        seen.add(dependent)
                        stack.append(dependent)
            # Scrub the invalidated ids out of the surviving reverse
            # edges: their walks are gone, so an edge pointing at them
            # would keep a deleted/changed image alive in the graph (a
            # stale edge that breaks the dependency_edges contract).
            for dependent in seen:
                for referenced in self._references.pop(dependent, ()):
                    dependents = self._dependents.get(referenced)
                    if dependents is not None:
                        dependents.discard(dependent)
                        if not dependents:
                            del self._dependents[referenced]
            own = self._row_of.get(image_id)
            if own is not None and not self._stored(image_id):
                self._release(own)
                self.owner_epoch += 1
            self.memo_epoch += 1
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
        with self._memo_lock:
            self.cache_invalidated_entries += int(
                np.count_nonzero(self._memo.valid)
            )
            self._memo = _MemoArrays(0, self._quantizer.bin_count)
            self._row_of.clear()
            self._row_ids.clear()
            self._free_rows.clear()
            self.memo_epoch += 1
            self.owner_epoch += 1
        self._dependents.clear()
        self._references.clear()
        self._notify_invalidation(None)

    def dependency_edges(self) -> List[Tuple[str, str]]:
        """Snapshot of the learned reverse-dependency graph.

        Returns sorted ``(referenced_id, dependent_id)`` pairs: the walk
        for ``dependent_id`` consulted ``referenced_id``, so invalidating
        the former must drop the latter.  Every edge holds against the
        live catalog: ``dependent_id`` is a stored edited image, its
        sequence references ``referenced_id``, and ``referenced_id`` is
        stored — an edge outside that would let targeted invalidation
        keep stale entries alive (the memo fuzz test in
        ``tests/core/test_bounds_cache.py`` asserts it after every
        mutation).
        """
        return sorted(
            (referenced, dependent)
            for referenced, dependents in self._dependents.items()
            for dependent in dependents
        )

    def cache_stats(self) -> Dict[str, int]:
        """Hit/miss/invalidation counters plus the memo's valid-row count,
        and the exact column's rows read (``exact_hits``) and written
        (``exact_fills``) by kNN refinements."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "invalidation_calls": self.cache_invalidation_calls,
            "invalidated_entries": self.cache_invalidated_entries,
            "vector_entries": int(np.count_nonzero(self._memo.valid)),
            "exact_hits": self.exact_hits,
            "exact_fills": self.exact_fills,
        }

    def _register_dependencies(self, image_id: str, refs: Tuple[str, ...]) -> None:
        """Record reverse edges from every image of ``refs`` to ``image_id``."""
        for referenced in refs:
            self._dependents.setdefault(referenced, set()).add(image_id)
        known = self._references.get(image_id)
        if known != refs:
            # Another set of references before an invalidation dropped
            # the first: keep both, so the scrub finds every edge.
            self._references[image_id] = (
                refs if known is None else tuple(dict.fromkeys(known + refs))
            )

    def _stored(self, image_id: str) -> bool:
        """Whether the store still holds ``image_id``."""
        try:
            self._store.lookup_for_bounds(image_id)
        except ReproError:
            return False
        return True


class _ScalarWalk:
    """One scalar BOUNDS call: Table 1 over a sequence for one bin.

    The walk covers the sequence, its edited bases and its Merge targets.
    One :class:`RuleContext`, whose resolver is :meth:`image`, serves
    all of them.  The cycle check and the depth limit read ``visiting``
    and ``depth``, which always describe the current recursion path:
    entering an edited image adds it and spends one level, leaving gives
    both back.  The path order is base first, then targets in op order,
    which the sweep replays to raise the same errors.
    """

    __slots__ = ("_engine", "_visiting", "_depth", "_ctx")

    def __init__(self, engine: BoundsEngine, bin_index: int) -> None:
        self._engine = engine
        self._visiting: Set[str] = set()
        self._depth = engine._max_depth
        # The bin is validated where the walk first needs it, at a binary
        # leaf: every rule runs after its sequence's base walk got there.
        self._ctx = RuleContext(
            quantizer=engine._quantizer,
            bin_index=bin_index,
            fill_color=engine._fill_color,
            resolve_target=self.image,
        )

    def image(self, image_id: str, bin_index: int) -> Tuple[int, int, int, int]:
        """``(lo, hi, height, width)`` of a stored image in ``bin_index``.

        Exact for a binary image, walked for an edited one.  The rules
        and the walk always pass the walk's own bin.
        """
        engine = self._engine
        if image_id in self._visiting:
            raise RuleError(f"cyclic Merge reference through {image_id!r}")
        if self._depth <= 0:
            raise RuleError(
                f"Merge recursion deeper than {engine._max_depth} at {image_id!r}"
            )
        record = engine._store.lookup_for_bounds(image_id)
        if isinstance(record, tuple):
            histogram, height, width = record
            engine._quantizer.validate_bin(bin_index)
            count = histogram.count(bin_index)
            return (count, count, height, width)
        if isinstance(record, EditSequence):
            if engine._memo_on:
                engine._register_dependencies(image_id, record.referenced_ids())
            self._visiting.add(image_id)
            result = self.sequence(record)
            self._visiting.discard(image_id)
            return result
        raise UnknownObjectError(f"unexpected store record for {image_id!r}")

    def sequence(self, sequence: EditSequence) -> Tuple[int, int, int, int]:
        """Walk ``sequence``'s rules from its base's bounds."""
        self._depth -= 1
        # A base that is itself an edited image (chained sequences) starts
        # the walk from its interval rather than an exact count; for binary
        # bases lo == hi and this matches initial_state exactly.
        ctx = self._ctx
        lo, hi, height, width = self.image(sequence.base_id, ctx.bin_index)
        state = RuleState(lo, hi, height, width, Rect(0, 0, height, width))
        engine = self._engine
        for op in sequence.operations:
            state = apply_rule(state, op, ctx)
            engine.rules_applied += 1
        self._depth += 1
        state.validate()
        return (state.lo, state.hi, state.height, state.width)
