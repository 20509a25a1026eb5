"""Compactor: result-preserving materialization, work reduction,
journaling, rollback, and stale-commit protection."""

from __future__ import annotations

import time

import pytest

from repro.core.query import RangeQuery
from repro.errors import ShardError
from repro.shard import CompactionPolicy, Compactor, ShardedCatalog
from repro.shard.compactor import _Candidate

from tests.shard.conftest import build_mirrored_pair, random_image

EAGER = CompactionPolicy(min_ops=1, max_per_cycle=32, min_score=0.0,
                         require_demand=False)


def _work_units(result):
    return result.stats.histograms_checked + result.stats.rules_applied


class TestMaterialization:
    def test_results_identical_with_compaction(self, rng):
        sharded, oracle, _ = build_mirrored_pair(rng)
        try:
            compactor = Compactor(sharded, EAGER)
            report = compactor.run_once()
            assert report.materialized, "corpus must produce candidates"
            for bin_index in range(0, sharded.quantizer.bin_count, 7):
                query = RangeQuery(bin_index, 0.0, 0.4)
                for method in ("rbm", "bwm"):
                    assert (
                        sharded.range_query(query, method=method).matches
                        == oracle.range_query(query, method=method).matches
                    )
            probe = random_image(rng)
            assert (
                sharded.knn(probe, 5).neighbors == oracle.knn(probe, 5).neighbors
            )
        finally:
            sharded.close()

    def test_materialization_reduces_query_work(self, rng):
        sharded, _, _ = build_mirrored_pair(rng, edited_count=10)
        try:
            query = RangeQuery(3, 0.0, 0.3)
            cold = sharded.range_query(query, method="rbm")
            compactor = Compactor(sharded, EAGER)
            assert compactor.run_once().materialized
            # Invalidate nothing: the materialized matrices now serve the
            # walks that previously ran Table 1 rules.
            warm = sharded.range_query(query, method="rbm")
            assert warm.stats.rules_applied < cold.stats.rules_applied
            assert warm.matches == cold.matches
        finally:
            sharded.close()

    def test_rewarm_after_update_churn(self, rng):
        """Compaction re-materializes what update-invalidation dropped."""
        sharded, _, base_ids = build_mirrored_pair(rng, edited_count=10)
        try:
            compactor = Compactor(sharded, EAGER)
            assert compactor.run_once().materialized
            before = set(sharded.materialized_images())
            target = base_ids[0]
            shard = sharded._shards[sharded.shard_of(target)]
            dependents = {
                edited_id
                for edited_id in shard.database.catalog.edited_ids()
                if target
                in shard.database.catalog.sequence_of(edited_id).referenced_ids()
            } & before
            assert dependents, "corpus must give the updated base dependents"
            sharded.update_image(target, random_image(rng))
            # The update's invalidation swept the dependents' matrices,
            # and the ledger pruned with it — they are cold again.
            after_churn = set(sharded.materialized_images())
            assert not (after_churn & dependents)
            # The next cycle sees them as unmaterialized and re-warms.
            report = compactor.run_once()
            assert dependents <= set(report.materialized)
            assert dependents <= set(sharded.materialized_images())
            assert sharded.range_query(RangeQuery(1, 0.0, 0.4)).matches
        finally:
            sharded.close()


class TestJournaling:
    def test_compact_and_decompact_records(self, rng, tmp_path):
        sharded, _, _ = build_mirrored_pair(
            rng, shard_count=2, binary_count=4, edited_count=3, root=tmp_path
        )
        try:
            compactor = Compactor(sharded, EAGER)
            report = compactor.run_once()
            assert report.materialized
            ops = [entry["op"] for entry in sharded._wal.entries()]
            assert ops.count("compact") == len(report.materialized)
            victim = report.materialized[0]
            assert compactor.rollback(victim)
            assert not compactor.rollback(victim)  # already retracted
            entries = sharded._wal.entries()
            assert entries[-1]["op"] == "decompact"
            assert entries[-1]["image_id"] == victim
        finally:
            sharded.close()

    def test_materializations_replay_warm(self, rng, tmp_path):
        sharded, oracle, _ = build_mirrored_pair(
            rng, shard_count=2, binary_count=4, edited_count=4, root=tmp_path
        )
        try:
            compactor = Compactor(sharded, EAGER)
            materialized = compactor.run_once().materialized
            assert materialized
        finally:
            sharded.close()  # no save: compact records stay in the WAL
        reopened = ShardedCatalog.open(tmp_path)
        try:
            assert set(reopened.materialized_images()) == set(materialized)
            for bin_index in (0, 9, 21):
                query = RangeQuery(bin_index, 0.0, 0.4)
                assert (
                    reopened.range_query(query).matches
                    == oracle.range_query(query).matches
                )
        finally:
            reopened.close()


class TestStaleness:
    def test_stale_version_commit_skipped(self, rng, tmp_path):
        sharded, oracle, _ = build_mirrored_pair(rng, shard_count=1, root=tmp_path)
        try:
            compactor = Compactor(sharded, EAGER)
            shard = sharded._shards[0]
            edited = next(iter(shard.database.catalog.edited_ids()))
            query = RangeQuery(3, 0.0, 0.4)
            before = (
                shard.version,
                sharded.wal_depth_by_shard(),
                sharded.materialized_images(),
                sharded.range_query(query).matches,
            )
            # The read above may have filled the image's memo row itself,
            # so the memo's counters are what a seeding would move.
            memo_before = shard.database.engine.cache_stats()
            stale = _Candidate(0, edited, 1.0, shard.version - 1)
            assert not compactor._materialize(stale, shard.version - 1)
            assert edited not in shard.materialized
            # Rollback-exact: the refused commit left no trace anywhere.
            assert shard.database.engine.cache_stats() == memo_before
            assert before == (
                shard.version,
                sharded.wal_depth_by_shard(),
                sharded.materialized_images(),
                sharded.range_query(query).matches,
            )
            assert before[3] == oracle.range_query(query).matches
        finally:
            sharded.close()

    def test_cycle_accounts_for_its_own_commits(self, rng):
        sharded, _, _ = build_mirrored_pair(
            rng, shard_count=1, binary_count=6, edited_count=6
        )
        try:
            compactor = Compactor(sharded, EAGER)
            report = compactor.run_once()
            # All same-shard candidates commit in one cycle; none are
            # staled by the cycle's own version bumps.
            assert report.skipped_stale == 0
            assert len(report.materialized) == 6
        finally:
            sharded.close()


class TestLifecycle:
    def test_policy_validation(self):
        with pytest.raises(ShardError):
            CompactionPolicy(min_ops=0)
        with pytest.raises(ShardError):
            CompactionPolicy(max_per_cycle=0)
        with pytest.raises(ShardError):
            Compactor(ShardedCatalog(1), interval=0.0)

    def test_background_thread_runs_cycles(self, rng):
        sharded, _, _ = build_mirrored_pair(
            rng, shard_count=2, binary_count=4, edited_count=4
        )
        try:
            compactor = Compactor(sharded, EAGER, interval=0.01)
            compactor.start()
            compactor.start()  # idempotent
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if compactor.status()["cycles"] >= 2:
                    break
                time.sleep(0.01)
            compactor.stop()
            status = compactor.status()
            assert status["cycles"] >= 2
            assert not status["running"]
            assert status["total_materialized"] >= 1
            assert status["last_report"] is not None
        finally:
            sharded.close()

    def test_demand_gating(self, rng):
        sharded, _, _ = build_mirrored_pair(rng, shard_count=2)
        try:
            gated = Compactor(
                sharded, CompactionPolicy(min_ops=1, min_score=0.0)
            )
            # No shard has served a query yet: nothing is hot.
            assert gated.run_once().materialized == ()
            sharded.range_query(RangeQuery(0, 0.0, 0.5))
            assert gated.run_once().materialized
        finally:
            sharded.close()
