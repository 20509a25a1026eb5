"""Database statistics and query explanation.

A production MMDBMS fronts its query processor with two things this
module provides over the reproduction's machinery:

* **Selectivity statistics** — per-bin summaries of the binary images'
  histogram fractions (min/max/mean and a small equi-width histogram of
  fractions), maintained from the catalog on demand.  They estimate how
  many binary images a range query will match without touching the data.
* **EXPLAIN** — a dry-run of the BWM Figure 2 algorithm for one query:
  how many clusters would short-circuit, how many edited images would
  need full BOUNDS walks, and the rule-application count both methods
  would pay.  The estimate uses only base histograms plus the stored
  operation counts, so explaining is far cheaper than executing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.query import RangeQuery
from repro.errors import QueryError

#: Buckets of the per-bin fraction distribution summary.
_BUCKETS = 10


@dataclass(frozen=True)
class BinStatistics:
    """Distribution of one bin's fraction across binary images."""

    bin_index: int
    minimum: float
    maximum: float
    mean: float
    bucket_counts: np.ndarray  # equi-width over [0, 1]

    def estimate_selectivity(self, pct_min: float, pct_max: float) -> float:
        """Estimated fraction of binary images with fraction in range.

        Uses the bucket histogram with uniform-within-bucket assumption —
        the textbook equi-width estimator.
        """
        if pct_min > pct_max:
            raise QueryError(f"empty range [{pct_min}, {pct_max}]")
        total = float(self.bucket_counts.sum())
        if total == 0:
            return 0.0
        width = 1.0 / _BUCKETS
        covered = 0.0
        for bucket, count in enumerate(self.bucket_counts):
            lo = bucket * width
            hi = lo + width
            overlap = max(0.0, min(hi, pct_max) - max(lo, pct_min))
            if hi > 1.0 - 1e-12 and pct_max >= 1.0:
                overlap = max(overlap, hi - max(lo, pct_min))
            covered += count * min(1.0, overlap / width)
        return covered / total


@dataclass(frozen=True)
class QueryExplanation:
    """Dry-run summary of how BWM would process one query."""

    query: RangeQuery
    binary_images: int
    estimated_binary_matches: int
    clusters_short_circuited: int
    edited_accepted_without_rules: int
    edited_needing_bounds: int
    rules_rbm_would_apply: int
    rules_bwm_would_apply: int

    @property
    def rules_saved(self) -> int:
        """Rule applications BWM avoids versus RBM."""
        return self.rules_rbm_would_apply - self.rules_bwm_would_apply

    def describe(self) -> str:
        """Human-readable EXPLAIN output."""
        lines = [
            f"EXPLAIN {self.query!r}",
            f"  binary images: {self.binary_images} "
            f"(~{self.estimated_binary_matches} match)",
            f"  Main clusters short-circuited: {self.clusters_short_circuited} "
            f"({self.edited_accepted_without_rules} edited accepted rule-free)",
            f"  edited images needing BOUNDS: {self.edited_needing_bounds}",
            f"  rule applications: RBM {self.rules_rbm_would_apply}, "
            f"BWM {self.rules_bwm_would_apply} "
            f"(saves {self.rules_saved})",
        ]
        return "\n".join(lines)


class DatabaseStatistics:
    """Statistics collector over one database's catalog."""

    def __init__(self, database: "MultimediaDatabase") -> None:  # noqa: F821
        self._database = database
        self._bin_stats: Dict[int, BinStatistics] = {}
        self._version = -1

    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Recompute all per-bin statistics from the catalog.

        Whole-matrix: each bin is a contiguous row, so its min / max /
        mean reduce exactly as its column alone would, and one offset
        ``bincount`` counts every bin's buckets at once.
        """
        catalog = self._database.catalog
        histograms = [
            catalog.histogram_of(image_id) for image_id in catalog.binary_ids()
        ]
        self._bin_stats.clear()
        if not histograms:
            return
        # bins x images; the same division ColorHistogram.fractions does.
        rows = np.stack([h.counts for h in histograms], axis=1) / np.array(
            [float(h.total) for h in histograms]
        )
        bins = rows.shape[0]
        buckets = np.clip((rows * _BUCKETS).astype(np.int64), 0, _BUCKETS - 1)
        buckets += np.arange(0, bins * _BUCKETS, _BUCKETS)[:, None]
        counts = np.bincount(
            buckets.ravel(), minlength=bins * _BUCKETS
        ).reshape(bins, _BUCKETS)
        summaries = zip(
            rows.min(axis=1).tolist(),
            rows.max(axis=1).tolist(),
            rows.mean(axis=1).tolist(),
        )
        for bin_index, (minimum, maximum, mean) in enumerate(summaries):
            self._bin_stats[bin_index] = BinStatistics(
                bin_index=bin_index,
                minimum=minimum,
                maximum=maximum,
                mean=mean,
                bucket_counts=counts[bin_index],
            )

    def bin_statistics(self, bin_index: int) -> BinStatistics:
        """Statistics for one bin (refreshing lazily on first use)."""
        self._database.quantizer.validate_bin(bin_index)
        if not self._bin_stats:
            self.refresh()
        if bin_index not in self._bin_stats:
            raise QueryError("statistics unavailable: no binary images stored")
        return self._bin_stats[bin_index]

    # ------------------------------------------------------------------
    def explain(self, query: RangeQuery) -> QueryExplanation:
        """Dry-run the Figure 2 algorithm for ``query`` (no BOUNDS walks)."""
        database = self._database
        database.quantizer.validate_bin(query.bin_index)
        catalog = database.catalog
        structure = database.bwm_structure

        op_count = {
            edited_id: len(catalog.sequence_of(edited_id))
            for edited_id in catalog.edited_ids()
        }
        rules_rbm = sum(op_count.values())

        short_circuited = 0
        accepted_free = 0
        needing_bounds = 0
        rules_bwm = 0
        binary_matches = 0
        for base_id, cluster in structure.clusters():
            histogram = catalog.histogram_of(base_id)
            if query.matches_histogram(histogram):
                binary_matches += 1
                short_circuited += 1
                accepted_free += len(cluster)
            else:
                needing_bounds += len(cluster)
                rules_bwm += sum(op_count[edited_id] for edited_id in cluster)
        needing_bounds += len(structure.unclassified)
        rules_bwm += sum(
            op_count[edited_id] for edited_id in structure.unclassified
        )

        stats = self.bin_statistics(query.bin_index) if catalog.binary_count else None
        estimated = (
            int(round(stats.estimate_selectivity(query.pct_min, query.pct_max)
                      * catalog.binary_count))
            if stats is not None
            else 0
        )
        return QueryExplanation(
            query=query,
            binary_images=catalog.binary_count,
            estimated_binary_matches=estimated,
            clusters_short_circuited=short_circuited,
            edited_accepted_without_rules=accepted_free,
            edited_needing_bounds=needing_bounds,
            rules_rbm_would_apply=rules_rbm,
            rules_bwm_would_apply=rules_bwm,
        )
