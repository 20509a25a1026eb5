"""The MMDBMS: catalog, storage, facade, similarity search, persistence."""

from repro.db.augmentation import (
    augment_image,
    augment_with_distortions,
    plan_distortion_sequences,
    plan_variant_sequences,
)
from repro.db.catalog import Catalog
from repro.db.integrity import (
    IntegrityProblem,
    RepairReport,
    repair,
    require_integrity,
    verify_integrity,
)
from repro.db.database import KNN_METHODS, RANGE_METHODS, MultimediaDatabase
from repro.db.persistence import (
    QuarantineEntry,
    SalvageReport,
    has_committed_state,
    load_database,
    save_database,
)
from repro.db.versioning import (
    CURRENT_VERSION,
    SUPPORTED_VERSIONS,
    RecordPointer,
)
from repro.db.processors import (
    InstantiateProcessor,
    KNNResult,
    KNNStats,
    SimilaritySearch,
)
from repro.db.records import (
    BINARY_FORMAT,
    EDITED_FORMAT,
    BinaryImageRecord,
    EditedImageRecord,
    ImageRecord,
)
from repro.db.statistics import BinStatistics, DatabaseStatistics, QueryExplanation
from repro.db.storage import StorageReport, measure_storage

__all__ = [
    "BINARY_FORMAT",
    "BinaryImageRecord",
    "BinStatistics",
    "CURRENT_VERSION",
    "Catalog",
    "DatabaseStatistics",
    "EDITED_FORMAT",
    "EditedImageRecord",
    "ImageRecord",
    "InstantiateProcessor",
    "IntegrityProblem",
    "KNNResult",
    "KNNStats",
    "KNN_METHODS",
    "MultimediaDatabase",
    "QuarantineEntry",
    "QueryExplanation",
    "RANGE_METHODS",
    "RecordPointer",
    "RepairReport",
    "SUPPORTED_VERSIONS",
    "SalvageReport",
    "SimilaritySearch",
    "StorageReport",
    "augment_image",
    "augment_with_distortions",
    "has_committed_state",
    "load_database",
    "measure_storage",
    "plan_distortion_sequences",
    "plan_variant_sequences",
    "repair",
    "require_integrity",
    "save_database",
    "verify_integrity",
]
