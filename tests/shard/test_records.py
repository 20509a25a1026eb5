"""The record-kind table: live apply = replay.

Every WAL record kind is encoded once (:mod:`repro.shard.records`); the
live commit and the replayer share its appliers and one ``_settle``.
These tests pin what that buys: a reopened catalog is indistinguishable
from the live one it replays — all but the compactor's in-memory
ledger — for random interleavings of every kind, and for a WAL written
from the documented payloads alone, retired kinds included.
"""

from __future__ import annotations

import base64
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import repro.shard
from repro.core.query import RangeQuery
from repro.db.database import MultimediaDatabase
from repro.editing.operations import Combine, Define, Modify
from repro.editing.sequence import EditSequence
from repro.errors import DatabaseError
from repro.images.ppm import write_ppm
from repro.shard import (
    WAL_NAME,
    CompactionPolicy,
    Compactor,
    ShardedCatalog,
    wal_record_kinds,
)
from repro.shard.records import RECORD_KINDS, RETIRED_KINDS

from tests.shard.conftest import random_image, random_sequence

EAGER = CompactionPolicy(min_ops=1, max_per_cycle=32, min_score=0.0,
                         require_demand=False)

RED, WHITE, BLUE = (255, 0, 0), (255, 255, 255), (0, 0, 255)


def _ops(count):
    """``count`` cheap ops (the compactor scores by sequence length)."""
    cycle = (Define.of(1, 1, 4, 5), Combine.box(), Modify(RED, BLUE))
    return tuple(cycle[i % len(cycle)] for i in range(count))


def _assert_ledger_is_cached(catalog):
    """The ledger's invariant: ledger ⊆ valid memo rows."""
    for shard in catalog._shards:
        engine = shard.database.engine
        for image_id in shard.materialized:
            assert engine.has_cached_bounds(image_id), image_id


def test_table_is_the_whole_vocabulary():
    assert set(wal_record_kinds()) == set(RECORD_KINDS) | set(RETIRED_KINDS)
    assert not set(RECORD_KINDS) & set(RETIRED_KINDS)
    # One journal site, for the table kinds: nobody else writes the log,
    # and nothing writes a retired kind any more.
    appends = [
        path.name
        for path in sorted(Path(repro.shard.__file__).parent.glob("*.py"))
        for _ in re.finditer(r"_wal\.append\(", path.read_text("utf-8"))
    ]
    assert appends == ["sharded.py"]


def test_ledger_after_chained_compaction(rng):
    """Filling a base's row keeps its dependent's; rolling the base back
    dirties both, ledger and all."""
    catalog = ShardedCatalog(1)
    try:
        catalog.insert_image(random_image(rng), "b")
        catalog.insert_edited(EditSequence("b", _ops(2)), "x")
        catalog.insert_edited(EditSequence("x", _ops(4)), "y")
        compactor = Compactor(catalog, EAGER)
        # y (longer, scored first) is filled, then x: a fill invalidates
        # nothing, so y's row stays valid.
        assert compactor.run_once().materialized == ("y", "x")
        _assert_ledger_is_cached(catalog)
        assert sorted(catalog.materialized_images()) == ["x", "y"]
        assert compactor.run_once().materialized == ()
        # x's roll-back dirties its dependent y too.
        assert compactor.rollback("x")
        _assert_ledger_is_cached(catalog)
        assert catalog.materialized_images() == {}
        assert compactor.run_once().materialized == ("y", "x")
    finally:
        catalog.close()


# ----------------------------------------------------------------------
# Differential: random interleavings of every table kind
# ----------------------------------------------------------------------
def _random_step(rng, catalog, compactor):
    """One random mutation; rejected ones stay in the WAL, as live."""
    binary = [i for i in catalog.ids() if i.startswith("img")]
    edited = [i for i in catalog.ids() if i.startswith("edit")]
    roll = int(rng.integers(0, 8))
    try:
        if roll == 0 or not binary:
            catalog.insert_image(random_image(rng, 6, 7))
        elif roll in (1, 2):
            bases = binary + edited
            base = bases[int(rng.integers(0, len(bases)))]
            catalog.insert_edited(random_sequence(rng, base, 1, 3))
        elif roll == 3:
            target = binary[int(rng.integers(0, len(binary)))]
            catalog.update_image(target, random_image(rng, 6, 7))
        elif roll == 4 and edited:
            # Any edited id: one that others build on is refused, live
            # and again on replay.
            catalog.delete_edited(edited[int(rng.integers(0, len(edited)))])
        elif roll == 5:
            catalog.delete_image(binary[int(rng.integers(0, len(binary)))])
        elif roll == 6:
            compactor.run_once()
        else:
            warm = sorted(catalog.materialized_images())
            if warm:
                compactor.rollback(warm[int(rng.integers(0, len(warm)))])
    except DatabaseError:
        pass  # e.g. deleting an image that others still build on


def _observable(catalog, queries, probe):
    """What a reopened catalog must reproduce: everything but the
    replay-only failure count and the compactor's in-memory ledger."""
    answers = [catalog.range_query(query).matches for query in queries]
    neighbors = catalog.knn(probe, 3).neighbors if len(catalog) else ()
    shards = [
        {
            key: value
            for key, value in shard.items()
            if key not in ("replay_failures", "materialized")
        }
        for shard in catalog.status()["shards"]
    ]
    return (catalog.placement(), shards, answers, neighbors)


@pytest.mark.parametrize("shard_count", [1, 3])
def test_reopened_catalog_equals_live_one(shard_count, tmp_path):
    rng = np.random.default_rng(1606 + shard_count)
    live = ShardedCatalog(shard_count, root=tmp_path)
    try:
        compactor = Compactor(
            live,
            CompactionPolicy(min_ops=1, max_per_cycle=2, min_score=0.0,
                             require_demand=False),
        )
        for _ in range(60):
            _random_step(rng, live, compactor)
            _assert_ledger_is_cached(live)
        kinds = {entry["op"] for entry in live._wal.entries()}
        assert kinds == set(RECORD_KINDS), "the walk missed a record kind"
        queries = [
            RangeQuery(int(rng.integers(0, live.quantizer.bin_count)), 0.0, 0.5)
            for _ in range(6)
        ]
        probe = random_image(rng, 6, 7)
        expected = _observable(live, queries, probe)
    finally:
        live.close()  # no save
    reopened = ShardedCatalog.open(tmp_path)
    try:
        _assert_ledger_is_cached(reopened)
        assert _observable(reopened, queries, probe) == expected
        rejected = reopened.events.snapshot(kind="wal.replay_failed")
        assert "delete_edited" in {event.detail["op"] for event in rejected}
    finally:
        reopened.close()


# ----------------------------------------------------------------------
# Wire compatibility: a WAL built from the documented payloads
# ----------------------------------------------------------------------
def _wal_line(lsn, op, image_id, version, **payload):
    """One WAL line as docs/sharding.md specifies it, no encoder involved."""
    entry = {"lsn": lsn, "op": op, "shard": 0, "image_id": image_id,
             "version": version, **payload}
    canonical = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    entry["line_sha256"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return json.dumps(entry, sort_keys=True, separators=(",", ":"))


def test_replays_a_wal_built_from_the_documented_payloads(rng, tmp_path):
    """Table records with every retired kind between them: the retired
    ones are skipped as docs/sharding.md's table says, only ``change``
    counts as unreplayable, and the state equals the oracle's."""
    ShardedCatalog(1, root=tmp_path).close()  # manifest only
    first, second, doomed = (random_image(rng, 6, 7) for _ in range(3))
    warm = EditSequence("b", _ops(3))
    cold = EditSequence("b", (Modify(WHITE, RED),))
    oracle = MultimediaDatabase()
    oracle.insert_image(second, "b")
    oracle.insert_edited(warm, "warm")
    oracle.insert_edited(cold, "cold")
    matrices = {}
    for image_id in ("warm", "cold"):
        lo, hi, height, width = oracle.engine.bounds_all_bins(image_id)
        matrices[image_id] = {"lo": [int(v) for v in lo], "hi": [int(v) for v in hi],
                              "height": int(height), "width": int(width)}

    def ppm(image):
        return base64.b64encode(write_ppm(image)).decode("ascii")

    table = {"insert_image", "insert_edited", "update_image",
             "delete_edited", "delete_image"}
    lines = [
        _wal_line(1, "insert_image", "b", 1, ppm=ppm(first)),
        _wal_line(2, "insert_image", "doomed", 2, ppm=ppm(doomed)),
        _wal_line(3, "insert_edited", "warm", 3, sequence=warm.serialize()),
        _wal_line(4, "insert_edited", "gone", 4, sequence=cold.serialize()),
        _wal_line(5, "update_image", "b", 5, ppm=ppm(second)),
        _wal_line(6, "insert_edited", "cold", 6, sequence=cold.serialize()),
        _wal_line(7, "compact", "warm", 7, **matrices["warm"]),
        _wal_line(8, "compact", "cold", 8, **matrices["cold"]),
        _wal_line(9, "decompact", "cold", 9),
        _wal_line(10, "change", "rogue", 10),
        _wal_line(11, "delete_edited", "gone", 11),
        _wal_line(12, "delete_image", "doomed", 12),
    ]
    (tmp_path / WAL_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")
    catalog = ShardedCatalog.open(tmp_path)
    try:
        assert catalog.metrics.counter("wal.replayed") == 8
        assert catalog.metrics.counter("wal.replay_skipped") == 4
        assert catalog.metrics.counter("wal.unreplayable") == 1
        assert catalog.metrics.counter("wal.replay_failed") == 0
        assert table | set(RETIRED_KINDS) == {
            entry["op"] for entry in catalog._wal.entries()
        }
        assert catalog.placement() == {"b": 0, "warm": 0, "cold": 0}
        assert catalog.status()["shards"][0]["version"] == 12
        # The journaled matrices were derived state: nothing is warm.
        assert catalog.materialized_images() == {}
        assert catalog.health_signals()[0]["backlog"] == 2
        for image_id in ("b", "warm", "cold"):
            assert (
                catalog.exact_histogram(image_id).counts.tolist()
                == oracle.exact_histogram(image_id).counts.tolist()
            )
        for bin_index in range(0, catalog.quantizer.bin_count, 7):
            query = RangeQuery(bin_index, 0.0, 0.4)
            assert catalog.range_query(query).matches == oracle.range_query(query).matches
    finally:
        catalog.close()


def test_a_change_record_of_an_earlier_release_replays_as_a_no_op(rng, tmp_path):
    """Earlier releases journaled a direct shard-database write as a
    payload-free ``change`` record.  Nothing writes one now, but a WAL
    holding one still opens: the table records around it replay, and the
    ``change`` is counted as unreplayable."""
    ShardedCatalog(1, root=tmp_path).close()  # manifest only
    image = random_image(rng, 6, 7)
    sequence = EditSequence("b", _ops(3))
    oracle = MultimediaDatabase()
    oracle.insert_image(image, "b")
    oracle.insert_edited(sequence, "x")
    ppm = base64.b64encode(write_ppm(image)).decode("ascii")
    lines = [
        _wal_line(1, "insert_image", "b", 1, ppm=ppm),
        _wal_line(2, "change", "rogue", 2),
        _wal_line(3, "insert_edited", "x", 3, sequence=sequence.serialize()),
    ]
    (tmp_path / WAL_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")
    with ShardedCatalog.open(tmp_path) as catalog:
        assert catalog.metrics.counter("wal.replayed") == 2
        assert catalog.metrics.counter("wal.replay_skipped") == 1
        assert catalog.metrics.counter("wal.unreplayable") == 1
        assert catalog.placement() == {"b": 0, "x": 0}
        assert catalog.status()["shards"][0]["version"] == 3
        for image_id in ("b", "x"):
            assert (
                catalog.exact_histogram(image_id).counts.tolist()
                == oracle.exact_histogram(image_id).counts.tolist()
            )
        for bin_index in range(0, catalog.quantizer.bin_count, 7):
            query = RangeQuery(bin_index, 0.0, 0.4)
            assert catalog.range_query(query).matches == oracle.range_query(query).matches
