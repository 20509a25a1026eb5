"""Color-feature substrate: spaces, quantization, histograms, similarity.

The similarity functions are the paper's equations (1)–(2) plus the QBIC
quadratic form; the interval bounds that prune kNN candidates are
computed row-wise in :mod:`repro.db.processors`.
"""

from repro.color.histogram import ColorHistogram
from repro.color.names import (
    FLAG_PALETTE,
    HELMET_PALETTE,
    NAMED_COLORS,
    color_by_name,
    is_known_color,
)
from repro.color.quantization import BinIndex, UniformQuantizer
from repro.color.similarity import (
    bin_similarity_matrix,
    histogram_intersection,
    intersection_distance,
    l1_distance,
    l2_distance,
    lp_distance,
    quadratic_form_distance,
)
from repro.color.spaces import (
    COLOR_SPACES,
    convert_pixels,
    hsv_to_rgb,
    rgb_to_hsv,
    rgb_to_luv,
    validate_space,
)

__all__ = [
    "BinIndex",
    "COLOR_SPACES",
    "ColorHistogram",
    "FLAG_PALETTE",
    "HELMET_PALETTE",
    "NAMED_COLORS",
    "UniformQuantizer",
    "bin_similarity_matrix",
    "color_by_name",
    "convert_pixels",
    "histogram_intersection",
    "hsv_to_rgb",
    "intersection_distance",
    "is_known_color",
    "l1_distance",
    "l2_distance",
    "lp_distance",
    "quadratic_form_distance",
    "rgb_to_hsv",
    "rgb_to_luv",
    "validate_space",
]
