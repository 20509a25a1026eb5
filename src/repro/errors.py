"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers embedding the MMDBMS can catch one base class.  The subclasses map
onto the subsystems described in DESIGN.md.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ImageError(ReproError):
    """Raised for invalid raster images (bad shape, dtype, or bounds)."""


class CodecError(ReproError):
    """Raised when encoding or decoding an image file format fails."""


class GeometryError(ReproError):
    """Raised for invalid rectangles or regions."""


class ColorError(ReproError):
    """Raised for invalid colors, color spaces, or quantizer parameters."""


class HistogramError(ReproError):
    """Raised for invalid histograms or incompatible histogram pairs."""


class OperationError(ReproError):
    """Raised for invalid editing operations or parameters."""


class SequenceError(ReproError):
    """Raised when an edit sequence is malformed or cannot be parsed."""


class ExecutionError(ReproError):
    """Raised when instantiating an edit sequence fails."""


class RuleError(ReproError):
    """Raised when a Table 1 rule cannot be applied."""


class IndexError_(ReproError):
    """Raised for R-tree misuse.

    The trailing underscore avoids shadowing the builtin ``IndexError``
    while keeping the subsystem naming convention.
    """


class DatabaseError(ReproError):
    """Raised for catalog/storage level failures in the MMDBMS."""


class UnknownObjectError(DatabaseError):
    """Raised when an object id is not present in the catalog."""


class DuplicateObjectError(DatabaseError):
    """Raised when inserting an object id that already exists."""


class QueryError(ReproError):
    """Raised for malformed queries (range, kNN, or text)."""


class ParseError(QueryError):
    """Raised when the text query language parser rejects its input."""


class WorkloadError(ReproError):
    """Raised when a synthetic dataset or workload cannot be built."""


class PersistenceError(DatabaseError):
    """Raised when saving or loading a database directory fails."""


class CorruptionError(PersistenceError):
    """Raised when a stored file is damaged (checksum mismatch, torn
    write, or unparseable content).  The message names the offending
    file so operators can locate it."""


class SalvageError(PersistenceError):
    """Raised when salvage loading cannot recover anything at all (the
    manifest itself is unusable, so not even a partial database can be
    reconstructed)."""


class ShardError(DatabaseError):
    """Raised by the sharded catalog tier (:mod:`repro.shard`) — bad
    shard counts, mutations against a closed catalog, or a shard layout
    on disk that disagrees with its manifest."""


class CrossShardReferenceError(ShardError):
    """Raised when an edit sequence's references (base image plus Merge
    targets) do not all resolve to the same shard.  Dependency chains
    must stay shard-local so BOUNDS walks and BWM clusters never cross a
    shard boundary; the message names the offending ids and shards."""


class ServiceError(ReproError):
    """Raised by the concurrent query service (:mod:`repro.service`)."""


class ServiceOverloadedError(ServiceError):
    """Raised when admission control sheds a query because the service's
    bounded queue is full.  Callers should back off and retry; the
    message reports the in-flight count and capacity at shed time."""


class ServiceShutdownError(ServiceError):
    """Raised when a query is submitted to a service that has begun (or
    finished) shutting down.  In-flight queries at shutdown still drain
    to completion; only new admissions are refused."""


class QueryTimeoutError(ServiceError):
    """Raised when a query misses its deadline — either it was still
    queued when the deadline passed, or the caller stopped waiting."""


class LockTimeoutError(ServiceError):
    """Raised when a bounded :meth:`ReadWriteLock.read_locked` /
    ``write_locked`` acquisition does not obtain the lock within its
    ``timeout``.  The attempt is abandoned cleanly: a timed-out writer
    withdraws its waiting claim and wakes blocked readers, so the lock
    is left exactly as if the attempt had never been made."""


class ObservabilityError(ReproError):
    """Raised by the tracing / attribution / export layer
    (:mod:`repro.obs`) — malformed spans, empty exports, or metric
    names that cannot be rendered in Prometheus exposition format."""
