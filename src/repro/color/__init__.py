"""Color-feature substrate: spaces, quantization, histograms, similarity."""

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
    chi_square_distance,
    histogram_intersection,
    intersection_distance,
    intersection_upper_bound,
    l1_distance,
    l1_lower_bound,
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
    "chi_square_distance",
    "color_by_name",
    "convert_pixels",
    "histogram_intersection",
    "hsv_to_rgb",
    "intersection_distance",
    "intersection_upper_bound",
    "is_known_color",
    "l1_distance",
    "l1_lower_bound",
    "l2_distance",
    "lp_distance",
    "quadratic_form_distance",
    "rgb_to_hsv",
    "rgb_to_luv",
    "validate_space",
]
