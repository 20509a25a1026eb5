"""Reference implementations the tests check the product against.

Each is the plain scalar form of a computation the package does in bulk;
a test compares the two on the same input.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import HistogramError


def l1_lower_bound(
    query_fractions: np.ndarray,
    lower: Sequence[float],
    upper: Sequence[float],
) -> float:
    """Smallest possible L1 distance from ``query_fractions`` to any
    histogram whose per-bin fractions lie within ``[lower_i, upper_i]``.

    The scalar form of the kNN pruning bound that
    ``repro.db.processors`` computes row-wise over a BOUNDS matrix.  It
    treats bins independently, which is valid (relaxation can only shrink
    the distance) though not tight.
    """
    q = np.asarray(query_fractions, dtype=np.float64)
    lo = np.asarray(lower, dtype=np.float64)
    hi = np.asarray(upper, dtype=np.float64)
    if not (q.shape == lo.shape == hi.shape):
        raise HistogramError("query/lower/upper must have matching shapes")
    if (lo > hi + 1e-12).any():
        raise HistogramError("lower bound exceeds upper bound")
    below = np.clip(lo - q, 0.0, None)
    above = np.clip(q - hi, 0.0, None)
    return float((below + above).sum())


def intersection_upper_bound(
    query_fractions: np.ndarray,
    upper: Sequence[float],
) -> float:
    """Largest possible histogram intersection with the query given
    per-bin fraction upper bounds: the scalar form of the similarity
    ranking's pruning bound."""
    q = np.asarray(query_fractions, dtype=np.float64)
    hi = np.asarray(upper, dtype=np.float64)
    if q.shape != hi.shape:
        raise HistogramError("query/upper must have matching shapes")
    return float(np.minimum(q, np.clip(hi, 0.0, None)).sum())
