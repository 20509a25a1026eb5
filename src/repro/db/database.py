"""`MultimediaDatabase` — the MMDBMS facade tying every subsystem together.

One object owns the catalog, the histogram quantizer, the edit executor,
the bounds engine and the BWM structure (maintained incrementally on
every insert, per Figure 1).  Everything the examples and benchmarks do
goes through this API.

The conventional §3.1 access method over binary-image histograms is not
kept here: it is a front-end structure, built from ``database.catalog``
by :mod:`repro.index.builders` for whoever searches it (``QueryService``
does, for its ``INDEX_ASSISTED`` strategy).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.color.histogram import ColorHistogram
from repro.color.quantization import UniformQuantizer
from repro.core.batch import BatchBWMProcessor, BatchRBMProcessor
from repro.core.bounds import BoundsEngine, PixelBounds
from repro.core.bwm import BWMProcessor, BWMStructure
from repro.core.query import ConjunctiveQuery, QueryResult, RangeQuery
from repro.core.rbm import RBMProcessor
from repro.db.augmentation import augment_image
from repro.db.catalog import Catalog
from repro.db.processors import (
    InstantiateProcessor,
    KNNResult,
    SimilaritySearch,
    and_merge,
)
from repro.db.records import BinaryImageRecord, EditedImageRecord
from repro.db.storage import StorageReport, measure_storage
from repro.editing.executor import EditExecutor
from repro.editing.sequence import EditSequence
from repro.errors import QueryError
from repro.images.raster import ColorTuple, Image, validate_color
from repro.querylang.parser import parse_constraints

#: Supported range-query processing methods.
RANGE_METHODS = ("bwm", "rbm", "instantiate")

#: Supported kNN strategies.
KNN_METHODS = ("binary", "exact", "bounded", "intersection")


class MultimediaDatabase:
    """An augmented MMDBMS storing rasters and edit sequences.

    Parameters
    ----------
    quantizer:
        Histogram quantizer shared by all features; defaults to the
        paper-scale RGB quantizer with 4 divisions per channel (64 bins).
    fill_color:
        Fill used by Mutate/Merge semantics (executor *and* rules).
    bounds_cache:
        Memoize BOUNDS intervals per image with dependency-aware
        invalidation: a catalog change drops only entries reachable from
        the changed image through base/Merge references.  Off by
        default — nothing survives a call — so benchmarks measure the
        algorithms themselves; a bare database stays that way, while the
        long-lived front ends (``QueryService``, ``ShardedCatalog``)
        turn the memo of the database they serve on, for good
        (:meth:`repro.core.bounds.BoundsEngine.enable_memo`).
    """

    def __init__(
        self,
        quantizer: Optional[UniformQuantizer] = None,
        fill_color: Sequence[int] = (0, 0, 0),
        bounds_cache: bool = False,
    ) -> None:
        self.quantizer = quantizer if quantizer is not None else UniformQuantizer(4, "rgb")
        self.fill_color: ColorTuple = validate_color(fill_color)
        self.catalog = Catalog()
        self.executor = EditExecutor(resolve=self._raster, fill_color=self.fill_color)
        self.engine = BoundsEngine(
            self.catalog,
            self.quantizer,
            fill_color=self.fill_color,
            cache_enabled=bounds_cache,
        )
        self.bwm_structure = BWMStructure()
        #: The paper's processors, one image at a time — and the test
        #: oracle for the column-compare ones below.
        self._scalar = {
            "bwm": BWMProcessor(self.bwm_structure, self.catalog, self.engine),
            "rbm": RBMProcessor(self.catalog, self.engine),
            "instantiate": InstantiateProcessor(self.catalog, self.instantiate),
        }
        #: The column-compare processors: every batch, and — on a
        #: memoizing engine, where they read memo rows through a layout
        #: they keep between calls — single queries too.
        self._batch = {
            "bwm": BatchBWMProcessor(self.bwm_structure, self.catalog, self.engine),
            "rbm": BatchRBMProcessor(self.bwm_structure, self.catalog, self.engine),
        }
        self._similarity = SimilaritySearch(
            self.catalog, self.engine, self.instantiate
        )
        #: Called on entry to every mutator; raises to refuse the write
        #: before anything changes.  ``None`` on a standalone database;
        #: a ``ShardedCatalog`` installs one so that only its router
        #: writes a shard.
        self._write_guard: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert_image(self, image: Image, image_id: Optional[str] = None) -> str:
        """Store a binary image: extract features, open a BWM cluster.

        Exception-safe: if opening the cluster fails the catalog insert
        is rolled back, so the catalog and the BWM structure never
        diverge on a failed insert.
        """
        if self._write_guard is not None:
            self._write_guard()
        assigned = image_id if image_id is not None else self.catalog.allocate_id("img")
        histogram = ColorHistogram.of_image(image, self.quantizer)
        self.catalog.add_binary(BinaryImageRecord(assigned, image.copy(), histogram))
        try:
            self.bwm_structure.insert_binary(assigned)
        except BaseException:
            self.catalog.remove_binary(assigned)
            raise
        # A fresh id has no cached entries to drop, but the invalidation
        # still fires the engine's listeners so serving-layer structures
        # (result cache, statistics, indexes) learn the catalog changed.
        self.engine.invalidate(assigned)
        return assigned

    def insert_edited(
        self, sequence: EditSequence, image_id: Optional[str] = None
    ) -> str:
        """Store an edited image as its sequence; file it per Figure 1.

        Exception-safe: if the BWM filing fails the catalog insert is
        rolled back.
        """
        if self._write_guard is not None:
            self._write_guard()
        assigned = image_id if image_id is not None else self.catalog.allocate_id("edit")
        self.catalog.add_edited(EditedImageRecord(assigned, sequence))
        try:
            self.bwm_structure.insert_edited(assigned, sequence)
        except BaseException:
            self.catalog.remove_edited(assigned)
            raise
        self.engine.invalidate(assigned)
        return assigned

    def delete_edited(self, image_id: str) -> None:
        """Remove an edited image from the catalog and BWM structure.

        Fails (leaving everything intact) while other edited images use
        it as their base or as a Merge target — delete those first.
        """
        if self._write_guard is not None:
            self._write_guard()
        record = self.catalog.remove_edited(image_id)
        try:
            self.bwm_structure.remove_edited(image_id)
        except BaseException:
            self.catalog.add_edited(record)
            raise
        self.engine.invalidate(image_id)

    def delete_image(self, image_id: str) -> None:
        """Remove a binary image.

        Fails (leaving everything intact) while derived images or Merge
        targets still reference it — delete those first.  Exception-safe:
        a failure in the BWM removal restores the catalog record.
        """
        if self._write_guard is not None:
            self._write_guard()
        record = self.catalog.remove_binary(image_id)
        try:
            self.bwm_structure.remove_binary(image_id)
        except BaseException:
            self.catalog.add_binary(record)
            raise
        self.engine.invalidate(image_id)

    def update_image(self, image_id: str, image: Image) -> None:
        """Replace a binary image's raster in place.

        Features are re-extracted and cached bounds are invalidated;
        derived edit sequences keep referencing the id and now
        instantiate against the new raster (the §2 links are by
        identity, not content).  Exception-safe: the new histogram and
        raster copy exist before the record is touched.
        """
        if self._write_guard is not None:
            self._write_guard()
        record = self.catalog.binary_record(image_id)
        histogram = ColorHistogram.of_image(image, self.quantizer)
        record.image, record.histogram = image.copy(), histogram
        self.engine.invalidate(image_id)

    def augment(
        self,
        base_id: str,
        rng: np.random.Generator,
        variants: int,
        palette: Sequence[ColorTuple],
        bound_widening_fraction: float = 0.8,
        merge_target_pool: Sequence[str] = (),
    ) -> List[str]:
        """§2 augmentation: insert ``variants`` edited versions of a base."""
        return augment_image(
            self,
            base_id,
            rng,
            variants,
            palette,
            bound_widening_fraction=bound_widening_fraction,
            merge_target_pool=merge_target_pool,
        )

    # ------------------------------------------------------------------
    # Object access
    # ------------------------------------------------------------------
    def instantiate(self, image_id: str) -> Image:
        """Materialize any stored image (copy for binary, executed for edited)."""
        record = self.catalog.record(image_id)
        if isinstance(record, BinaryImageRecord):
            return record.image.copy()
        return self._raster(image_id)

    def _raster(self, image_id: str) -> Image:
        """A binary image's stored raster itself, or a fresh instantiation.

        The executor copies its base and only reads Merge targets, so the
        stored raster is handed to it as is.
        """
        record = self.catalog.record(image_id)
        if isinstance(record, BinaryImageRecord):
            return record.image
        base = self._raster(record.sequence.base_id)
        return self.executor.instantiate(base, record.sequence)

    def exact_histogram(self, image_id: str) -> ColorHistogram:
        """Exact histogram (instantiates edited images — expensive)."""
        record = self.catalog.record(image_id)
        if isinstance(record, BinaryImageRecord):
            return record.histogram
        return ColorHistogram.of_image(self.instantiate(image_id), self.quantizer)

    def bounds(self, image_id: str, bin_index: int) -> PixelBounds:
        """BOUNDS interval for any stored image and bin."""
        return self.engine.bounds(image_id, bin_index)

    def edited_versions_of(self, base_id: str) -> Tuple[str, ...]:
        """The §2 derivation links from a base image."""
        return self.catalog.derived_from(base_id)

    def base_of(self, edited_id: str) -> str:
        """The referenced base image of an edited image."""
        return self.catalog.edited_record(edited_id).base_id

    # ------------------------------------------------------------------
    # Range queries
    # ------------------------------------------------------------------
    def range_query(
        self,
        query: RangeQuery,
        method: str = "bwm",
        expand_to_bases: bool = False,
    ) -> QueryResult:
        """Process a color range query with the chosen method.

        ``expand_to_bases`` applies the §2 connection: when an edited
        image matches, its base image joins the result even if the base's
        own features do not match.
        """
        processor = self._scalar.get(method)
        if processor is None:
            raise QueryError(f"unknown method {method!r}; expected one of {RANGE_METHODS}")
        self.quantizer.validate_bin(query.bin_index)
        if self.engine.cache_enabled and method in self._batch:
            # Same matches and counters as the scalar processor, read
            # from the memo by column instead of one object per image.
            result = self._batch[method].process_batch([query])[0]
        else:
            result = processor.process(query)
        if not expand_to_bases:
            return result
        return and_merge(self.catalog, [result], expand_to_bases=True)

    def range_query_batch(
        self, queries: Sequence[RangeQuery], method: str = "bwm"
    ) -> List[QueryResult]:
        """Process many range queries in one catalog pass.

        Results (in query order) are identical to per-query processing;
        BOUNDS walks are shared across queries on the same bin, so a
        front-end submitting a burst of queries pays each edited image's
        rules at most once per distinct bin.
        """
        for query in queries:
            self.quantizer.validate_bin(query.bin_index)
        processor = self._batch.get(method)
        if processor is None:
            raise QueryError(
                f"batch processing supports 'bwm' and 'rbm', not {method!r}"
            )
        return processor.process_batch(queries)

    def conjunctive_query(
        self,
        query: ConjunctiveQuery,
        method: str = "bwm",
        expand_to_bases: bool = False,
    ) -> QueryResult:
        """Process a conjunction of range constraints (AND semantics).

        Conservative composition: the per-constraint conservative result
        sets are intersected (:func:`repro.db.processors.and_merge`),
        which preserves the no-false-negative guarantee, and the
        reported work is the sum over the constraints.
        """
        if method in ("bwm", "rbm"):
            results = self.range_query_batch(list(query.constraints), method=method)
        else:
            results = [
                self.range_query(constraint, method=method)
                for constraint in query.constraints
            ]
        return and_merge(self.catalog, results, expand_to_bases)

    def text_query(
        self,
        text: str,
        method: str = "bwm",
        expand_to_bases: bool = False,
    ) -> QueryResult:
        """Process a natural-language query like the paper's example
        "Retrieve all images that are at least 25% blue".

        Conjunctions are supported: "at least 20% red and at most 10%
        blue" intersects the constraints (no false negatives preserved).
        """
        constraints = parse_constraints(text, self.quantizer)
        if len(constraints) == 1:
            return self.range_query(
                constraints[0], method=method, expand_to_bases=expand_to_bases
            )
        return self.conjunctive_query(
            ConjunctiveQuery(constraints),
            method=method,
            expand_to_bases=expand_to_bases,
        )

    # ------------------------------------------------------------------
    # Similarity queries (A5 extension)
    # ------------------------------------------------------------------
    def knn(
        self,
        query: Union[Image, ColorHistogram],
        k: int,
        method: str = "bounded",
    ) -> KNNResult:
        """k nearest neighbors by L1 histogram distance."""
        histogram = (
            ColorHistogram.of_image(query, self.quantizer)
            if isinstance(query, Image)
            else query
        )
        if histogram.quantizer != self.quantizer:
            raise QueryError("query histogram uses a different quantizer")
        strategy = {
            "binary": self._similarity.knn_binary,
            "exact": self._similarity.knn_exact,
            "bounded": self._similarity.knn_bounded,
            "intersection": self._similarity.knn_intersection,
        }.get(method)
        if strategy is None:
            raise QueryError(f"unknown method {method!r}; expected one of {KNN_METHODS}")
        return strategy(histogram, k)

    def similarity_range(
        self,
        query: Union[Image, ColorHistogram],
        epsilon: float,
    ) -> KNNResult:
        """All images within L1 distance ``epsilon`` of the query.

        Edited images are instantiated only when their BOUNDS intervals
        cannot exclude them (same pruning idea as the bounded kNN).
        """
        histogram = (
            ColorHistogram.of_image(query, self.quantizer)
            if isinstance(query, Image)
            else query
        )
        if histogram.quantizer != self.quantizer:
            raise QueryError("query histogram uses a different quantizer")
        return self._similarity.range_search(histogram, epsilon)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def explain(self, query: RangeQuery) -> "QueryExplanation":
        """Dry-run EXPLAIN of how BWM would process ``query`` (no rules run)."""
        from repro.db.statistics import DatabaseStatistics

        statistics = DatabaseStatistics(self)
        return statistics.explain(query)

    def verify_integrity(self, recompute_histograms: bool = True):
        """Cross-check catalog/BWM/histogram consistency.

        Returns one coded :class:`~repro.db.integrity.IntegrityProblem`
        per defect (empty when healthy).
        """
        from repro.db.integrity import verify_integrity

        return verify_integrity(self, recompute_histograms=recompute_histograms)

    def repair(self, recompute_histograms: bool = True):
        """Fix every reparable integrity problem; returns a RepairReport.

        See :func:`repro.db.integrity.repair` for the action classes.
        """
        from repro.db.integrity import repair

        return repair(self, recompute_histograms=recompute_histograms)

    def storage_report(self, include_instantiated: bool = False) -> StorageReport:
        """Byte-level storage accounting (A3)."""
        instantiate = self.instantiate if include_instantiated else None
        return measure_storage(self.catalog, instantiate)

    def structure_summary(self) -> Dict[str, int]:
        """Counts describing the BWM structure (Table 2's bottom rows)."""
        return {
            "binary_images": self.catalog.binary_count,
            "edited_images": self.catalog.edited_count,
            "main_clusters": len(self.bwm_structure.main),
            "main_edited": self.bwm_structure.main_edited_count,
            "unclassified": self.bwm_structure.unclassified_count,
        }

    def __len__(self) -> int:
        return len(self.catalog)

    def ids(self) -> Iterable[str]:
        """Every stored image id (binary first, then edited)."""
        yield from self.catalog.binary_ids()
        yield from self.catalog.edited_ids()
