"""Histogram similarity and distance functions.

Section 3.1 lists the two families the evaluation builds on:

* **Histogram Intersection** (Swain & Ballard [22]) — equation (1):
  ``sum_i min(x_i, y_i)`` over normalized histograms; a similarity in
  ``[0, 1]`` with 1 meaning identical distributions.
* **L_p distances** [15] — equation (2): ``(sum_i |x_i - y_i|^p)^(1/p)``.

The kNN extension (experiment A5) ranks with row-wise forms of these and
prunes with their bounds over BOUNDS intervals; both live in
:mod:`repro.db.processors`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.color.histogram import ColorHistogram
from repro.errors import HistogramError


def histogram_intersection(a: ColorHistogram, b: ColorHistogram) -> float:
    """Swain-Ballard histogram intersection over normalized histograms.

    Returns a similarity in ``[0, 1]``; 1 iff the normalized histograms
    are identical.
    """
    a.require_compatible(b)
    return float(np.minimum(a.fractions(), b.fractions()).sum())


def intersection_distance(a: ColorHistogram, b: ColorHistogram) -> float:
    """``1 - intersection``: a metric-compatible dissimilarity in [0, 1]."""
    return 1.0 - histogram_intersection(a, b)


def lp_distance(a: ColorHistogram, b: ColorHistogram, p: float = 2.0) -> float:
    """Minkowski L_p distance between normalized histograms.

    ``p = 1`` is the city-block distance, ``p = 2`` Euclidean; any
    ``p >= 1`` is accepted.
    """
    if p < 1:
        raise HistogramError(f"L_p distance requires p >= 1, got {p}")
    a.require_compatible(b)
    diff = np.abs(a.fractions() - b.fractions())
    if p == 1:
        return float(diff.sum())
    if p == 2:
        return float(np.sqrt((diff * diff).sum()))
    return float((diff ** p).sum() ** (1.0 / p))


def l1_distance(a: ColorHistogram, b: ColorHistogram) -> float:
    """City-block distance; equals ``2 * (1 - intersection)`` when totals match."""
    return lp_distance(a, b, p=1.0)


def l2_distance(a: ColorHistogram, b: ColorHistogram) -> float:
    """Euclidean distance between normalized histograms."""
    return lp_distance(a, b, p=2.0)


def bin_similarity_matrix(quantizer, sigma: float = 1.0) -> np.ndarray:
    """The QBIC-style bin-similarity matrix ``A`` for a quantizer.

    ``A_ij = exp(-d_ij / (sigma * d_max))`` where ``d_ij`` is the
    Euclidean distance between bin cell centers — perceptually close
    bins count as partial matches.  Symmetric positive with unit
    diagonal.
    """
    if sigma <= 0:
        raise HistogramError(f"sigma must be positive, got {sigma}")
    cells = np.array(
        [quantizer.cell_of(b) for b in range(quantizer.bin_count)],
        dtype=np.float64,
    )
    deltas = cells[:, None, :] - cells[None, :, :]
    distances = np.sqrt((deltas ** 2).sum(axis=2))
    d_max = distances.max() if distances.max() > 0 else 1.0
    return np.exp(-distances / (sigma * d_max))


def quadratic_form_distance(
    a: ColorHistogram,
    b: ColorHistogram,
    similarity_matrix: Optional[np.ndarray] = None,
) -> float:
    """QBIC quadratic-form distance ``sqrt((x-y)^T A (x-y))``.

    Unlike the bin-wise L_p family, cross-bin terms let perceptually
    similar colors partially match — a near-miss recolor scores closer
    than a complementary-color swap.  ``similarity_matrix`` defaults to
    :func:`bin_similarity_matrix` of the shared quantizer.
    """
    a.require_compatible(b)
    matrix = (
        similarity_matrix
        if similarity_matrix is not None
        else bin_similarity_matrix(a.quantizer)
    )
    if matrix.shape != (a.quantizer.bin_count, a.quantizer.bin_count):
        raise HistogramError(
            f"similarity matrix shape {matrix.shape} does not match "
            f"{a.quantizer.bin_count} bins"
        )
    diff = a.fractions() - b.fractions()
    value = float(diff @ matrix @ diff)
    return float(np.sqrt(max(0.0, value)))

