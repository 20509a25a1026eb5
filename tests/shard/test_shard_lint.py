"""DB007: shard-routing invariants, proved against seeded defects.

Per-shard checks cannot see routing damage: each shard's database can
be internally consistent while a binary image sits on the wrong hash
shard, the router's placement map has drifted from the disks, or an
edited image's dependency chain straddles shards (dangling after
routing).  Every test here seeds exactly that kind of corruption below
the database API — in a shard's catalog and BWM structure, since a shard
database's own mutators accept only the router's writes — and asserts
:meth:`ShardedCatalog.verify_integrity` names it under DB007.
"""

from __future__ import annotations

import io
import json

from repro.cli import main
from repro.color.histogram import ColorHistogram
from repro.db.records import BinaryImageRecord
from repro.shard import ShardedCatalog, hash_shard, shard_dirname

from tests.shard.conftest import build_mirrored_pair, random_image


def _run_cli(*argv):
    buffer = io.StringIO()
    code = main(list(argv), out=buffer)
    return code, buffer.getvalue()


def _routing(sharded):
    """The DB007 problems of ``sharded`` (histograms are not at issue)."""
    return [
        p
        for p in sharded.verify_integrity(recompute_histograms=False)
        if p.code == "DB007"
    ]


def _plant_binary(database, image, image_id):
    """Store a binary image in ``database``'s catalog and BWM structure
    without going through its mutators: a write the router never saw."""
    histogram = ColorHistogram.of_image(image, database.quantizer)
    database.catalog.add_binary(BinaryImageRecord(image_id, image, histogram))
    database.bwm_structure.insert_binary(image_id)


def _id_hashing_to(shard, shard_count, prefix="seed"):
    """An image id whose stable hash routes to ``shard``."""
    for attempt in range(10_000):
        candidate = f"{prefix}-{attempt}"
        if hash_shard(candidate, shard_count) == shard:
            return candidate
    raise AssertionError("no id found")  # pragma: no cover


class TestCleanCatalog:
    def test_clean_catalog_has_no_findings(self, rng):
        sharded, _, _ = build_mirrored_pair(rng, shard_count=3)
        try:
            assert len(sharded) > 0
            assert sharded.verify_integrity() == []
        finally:
            sharded.close()


class TestSeededDefects:
    def test_wrong_hash_shard_detected(self, rng):
        sharded = ShardedCatalog(3)
        try:
            rogue = _id_hashing_to(0, 3)
            # Stored on shard 2 though the id hashes to shard 0; the
            # placement map colludes so only the hash check can object.
            _plant_binary(sharded.shard_database(2), random_image(rng), rogue)
            sharded._placement[rogue] = 2
            findings = _routing(sharded)
            assert len(findings) == 1
            assert findings[0].location == rogue
            assert findings[0].message.startswith(
                "binary image stored on shard 2 but its id hashes to shard 0;"
            )
        finally:
            sharded.close()

    def test_placement_drift_detected(self, rng):
        sharded = ShardedCatalog(3)
        try:
            image_id = sharded.insert_image(random_image(rng))
            actual = sharded.shard_of(image_id)
            sharded._placement[image_id] = (actual + 1) % 3
            findings = _routing(sharded)
            drift = [f for f in findings if "placement map says" in f.message]
            assert len(drift) == 1
            assert drift[0].message == (
                f"placement map says shard {(actual + 1) % 3} but the record "
                f"actually lives on shard {actual}"
            )
        finally:
            sharded.close()

    def test_phantom_placement_detected(self, rng):
        sharded = ShardedCatalog(2)
        try:
            sharded.insert_image(random_image(rng))
            sharded._placement["ghost-1"] = 0
            findings = _routing(sharded)
            assert len(findings) == 1
            assert findings[0].location == "ghost-1"
            assert "not held by any shard" in findings[0].message
        finally:
            sharded.close()

    def test_unrouted_record_detected(self, rng):
        sharded = ShardedCatalog(3)
        try:
            stray = _id_hashing_to(1, 3, prefix="stray")
            # Correct hash shard, but inserted behind the router's back:
            # the placement map never learns it.
            _plant_binary(sharded.shard_database(1), random_image(rng), stray)
            findings = _routing(sharded)
            assert len(findings) == 1
            assert findings[0].location == stray
            assert "placement map does not know it" in findings[0].message
        finally:
            sharded.close()

    def test_dangling_reference_after_routing_detected(self, rng):
        sharded, _, base_ids = build_mirrored_pair(
            rng, shard_count=3, binary_count=4, edited_count=3
        )
        try:
            base = base_ids[0]
            home = sharded.shard_of(base)
            catalog = sharded.shard_database(home).catalog
            dependents = [
                edited_id
                for edited_id in catalog.edited_ids()
                if base in catalog.sequence_of(edited_id).referenced_ids()
            ]
            assert dependents, "corpus must give the base a dependent"
            # Simulated corruption: the base record vanishes from its
            # shard (bypassing the referential delete guard), so every
            # dependent's reference now resolves to no shard at all.
            catalog._binary.pop(base)
            catalog._children.pop(base, None)
            sharded._placement.pop(base)
            findings = _routing(sharded)
            dangling = [f for f in findings if repr(base) in f.message]
            assert {f.location for f in dangling} == set(dependents)
            assert all("resolves to no shard at all" in f.message for f in dangling)
            assert all("dangling after routing" in f.message for f in dangling)
        finally:
            sharded.close()

    def test_cross_shard_reference_detected(self, rng):
        sharded, _, base_ids = build_mirrored_pair(
            rng, shard_count=3, binary_count=4, edited_count=3
        )
        try:
            base = base_ids[0]
            home = sharded.shard_of(base)
            other = (home + 1) % 3
            # Transplant the base record to another shard wholesale: the
            # dependents stay behind, their chains now straddle shards.
            record = sharded.shard_database(home).catalog._binary.pop(base)
            sharded.shard_database(home).catalog._children.pop(base, None)
            sharded.shard_database(other).catalog.add_binary(record)
            sharded._placement[base] = other
            findings = _routing(sharded)
            straddling = [
                f
                for f in findings
                if f"{base!r} resolves to shard {other}," in f.message
            ]
            assert straddling, "cross-shard reference must be flagged"
            # The transplanted binary is also off its hash shard.
            assert any(
                f.location == base
                and f"stored on shard {other} but its id hashes to shard {home};"
                in f.message
                for f in findings
            )
        finally:
            sharded.close()


class TestPerShardProblems:
    def test_per_shard_problem_names_its_shard(self, rng):
        sharded, _, _ = build_mirrored_pair(
            rng, shard_count=3, binary_count=4, edited_count=3
        )
        try:
            home = next(
                index
                for index in range(3)
                if sharded.shard_database(index).catalog.edited_count
            )
            database = sharded.shard_database(home)
            victim = next(iter(database.catalog.edited_ids()))
            database.bwm_structure.remove_edited(victim)
            problems = sharded.verify_integrity(recompute_histograms=False)
            assert [(p.code, p.location) for p in problems] == [
                ("DB004", f"{shard_dirname(home)}/{victim}")
            ]
        finally:
            sharded.close()


class TestCLIIntegration:
    def test_analyze_db_clean_sharded_root(self, rng, tmp_path):
        sharded, _, _ = build_mirrored_pair(
            rng, shard_count=2, binary_count=4, edited_count=3, root=tmp_path
        )
        try:
            sharded.save()
        finally:
            sharded.close()
        code, output = _run_cli("check", str(tmp_path))
        assert code == 0
        assert "sharded-catalog" in output
        assert "0 errors" in output

    def test_analyze_db_flags_seeded_defect(self, rng, tmp_path):
        # A binary saved on the wrong hash shard survives save/reopen
        # (reopen rebuilds placement from disk, legitimizing everything
        # *except* the hash invariant), so check must flag it.
        root = tmp_path / "rogue"
        rogue = ShardedCatalog(2, root=root)
        try:
            victim = _id_hashing_to(0, 2, prefix="victim")
            _plant_binary(rogue.shard_database(1), random_image(rng), victim)
            rogue.save()
        finally:
            rogue.close()
        code, output = _run_cli("check", str(root), "--json")
        assert code == 2
        payload = json.loads(output)
        assert payload["ok"] is False
        assert [(f["code"], f["location"]) for f in payload["findings"]] == [
            ("DB007", victim)
        ]
