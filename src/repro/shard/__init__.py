"""Sharded catalog tier: WAL-driven ingestion, scatter-gather, compaction.

ROADMAP item 2.  The single in-process :class:`~repro.db.database.
MultimediaDatabase` behind one RW lock is the scale bottleneck; this
package splits the catalog into N shards hashed by base-image cluster
(so Merge/BWM dependency chains never straddle shards), makes every
mutation durable through a write-ahead log *before* it is applied
(:mod:`repro.shard.wal` — the PR 6 journal style; the record kinds and
their appliers are one table, :mod:`repro.shard.records`), fans queries
out across shards
merging k-best results (:class:`ShardedCatalog`), and runs a
cost-aware background :class:`Compactor` that fills the memo rows of
hot/long edit sequences ahead of the reads that would walk them.
"""

from repro.shard.compactor import (
    CompactionPolicy,
    CompactionReport,
    Compactor,
)
from repro.shard.sharded import (
    SHARD_MANIFEST_NAME,
    ShardedCatalog,
    hash_shard,
    shard_dirname,
)
from repro.shard.wal import WAL_NAME, ShardWAL, wal_record_kinds

__all__ = [
    "CompactionPolicy",
    "CompactionReport",
    "Compactor",
    "SHARD_MANIFEST_NAME",
    "ShardWAL",
    "ShardedCatalog",
    "WAL_NAME",
    "hash_shard",
    "shard_dirname",
    "wal_record_kinds",
]
