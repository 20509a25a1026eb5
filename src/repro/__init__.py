"""repro — reproduction of Brown & Gruenwald, ICDE 2006.

"Speeding up Color-Based Retrieval in Multimedia Database Management
Systems that Store Images as Sequences of Editing Operations."

The package reimplements the paper's whole stack from scratch: the
five-operation image editing algebra and its instantiation engine, color
histogram features, the Table 1 rule system bounding histogram bins of
never-instantiated edited images (RBM), and the paper's contribution —
the Bound-Widening Method (BWM) data structure and query algorithm —
plus the MMDBMS, index, workload, and benchmarking substrates the
evaluation needs.

Quick start::

    import numpy as np
    from repro import MultimediaDatabase, RangeQuery
    from repro.workloads import make_flag

    rng = np.random.default_rng(0)
    db = MultimediaDatabase()
    base = db.insert_image(make_flag(rng))
    db.augment(base, rng, variants=4, palette=[(200, 16, 46), (0, 40, 104)])
    result = db.text_query("retrieve all images that are at least 25% blue")
    print(result.sorted_ids())
"""

import logging as _logging

# Standard library etiquette: a library never configures logging for the
# application.  The NullHandler stops the root logger's last-resort
# handler from spraying our warnings (salvage, repair, load shedding)
# onto stderr; applications opt in with a real handler —
# the CLI's ``-v/--verbose`` flag does exactly that.
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

from repro.analysis import (
    AnalysisReport,
    Finding,
    lint_paths,
)
from repro.color import ColorHistogram, UniformQuantizer
from repro.core import (
    BWMProcessor,
    BWMStructure,
    BoundsEngine,
    PixelBounds,
    QueryResult,
    RBMProcessor,
    RangeQuery,
    is_bound_widening,
    sequence_is_bound_widening,
)
from repro.db import MultimediaDatabase, load_database, save_database
from repro.editing import (
    Combine,
    Define,
    EditExecutor,
    EditSequence,
    Merge,
    Modify,
    Mutate,
)
from repro.errors import ReproError
from repro.images import AffineMatrix, Image, Rect, read_ppm, write_ppm
from repro.obs import set_tracing, tracing, tracing_enabled
from repro.service import (
    AnalyzedQuery,
    CostBasedPlanner,
    ExplainedPlan,
    PlanActuals,
    QueryService,
    Strategy,
)

__version__ = "1.0.0"

__all__ = [
    "AffineMatrix",
    "AnalysisReport",
    "AnalyzedQuery",
    "BWMProcessor",
    "BWMStructure",
    "BoundsEngine",
    "ColorHistogram",
    "Combine",
    "CostBasedPlanner",
    "Define",
    "EditExecutor",
    "EditSequence",
    "ExplainedPlan",
    "Finding",
    "Image",
    "Merge",
    "Modify",
    "MultimediaDatabase",
    "Mutate",
    "PixelBounds",
    "PlanActuals",
    "QueryResult",
    "QueryService",
    "RBMProcessor",
    "RangeQuery",
    "Rect",
    "ReproError",
    "Strategy",
    "UniformQuantizer",
    "__version__",
    "is_bound_widening",
    "lint_paths",
    "load_database",
    "read_ppm",
    "save_database",
    "sequence_is_bound_widening",
    "set_tracing",
    "tracing",
    "tracing_enabled",
    "write_ppm",
]
