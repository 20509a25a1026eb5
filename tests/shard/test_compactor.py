"""Compactor: result-preserving warming, work reduction, nothing
journaled, rollback, deleted winners skipped, fills and scoring under the
shard's read lock, and scoring against the per-candidate reference."""

from __future__ import annotations

import threading
import time
from functools import partial

import numpy as np
import pytest

from repro.core.query import RangeQuery
from repro.db.statistics import DatabaseStatistics
from repro.editing.operations import Combine, Define, Merge
from repro.editing.sequence import EditSequence
from repro.errors import QueryError, ShardError
from repro.obs.metrics import MetricsRegistry
from repro.shard import CompactionPolicy, Compactor, ShardedCatalog
from repro.shard.compactor import COST_RULE, _Candidate

from tests.shard.conftest import build_mirrored_pair, random_image, random_sequence

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
        """A cycle and its roll-back journal nothing: a warmed row is
        derived state, so the WAL and the shard versions stay put."""
        sharded, _, _ = build_mirrored_pair(
            rng, shard_count=2, binary_count=4, edited_count=3, root=tmp_path
        )
        try:

            def durable():
                versions = [shard["version"] for shard in sharded.status()["shards"]]
                return sharded._wal.entries(), versions

            before = durable()
            compactor = Compactor(sharded, EAGER)
            report = compactor.run_once()
            assert report.materialized
            victim = report.materialized[0]
            engine = sharded.shard_database(sharded.shard_of(victim)).engine
            assert engine.has_cached_bounds(victim)
            assert compactor.rollback(victim)
            assert not compactor.rollback(victim)  # already retracted
            assert not engine.has_cached_bounds(victim)
            assert victim not in sharded.materialized_images()
            assert durable() == before
        finally:
            sharded.close()

    def test_a_reopen_after_a_cycle_starts_cold(self, rng, tmp_path):
        sharded, oracle, _ = build_mirrored_pair(
            rng, shard_count=2, binary_count=4, edited_count=4, root=tmp_path
        )
        try:
            assert Compactor(sharded, EAGER).run_once().materialized
        finally:
            sharded.close()  # no save: the WAL holds the inserts only
        reopened = ShardedCatalog.open(tmp_path)
        try:
            assert reopened.materialized_images() == {}
            assert sum(s["backlog"] for s in reopened.health_signals()) == 4
            for bin_index in (0, 9, 21):
                query = RangeQuery(bin_index, 0.0, 0.4)
                assert (
                    reopened.range_query(query).matches
                    == oracle.range_query(query).matches
                )
        finally:
            reopened.close()


class TestStaleness:
    def test_stale_version_commit_skipped(self, rng, tmp_path, monkeypatch):
        """A winner deleted between scoring and fill is skipped, counted,
        and leaves no trace."""
        sharded, oracle, _ = build_mirrored_pair(rng, shard_count=1, root=tmp_path)
        try:
            compactor = Compactor(sharded, EAGER)
            shard = sharded._shards[0]
            scored = compactor._score_candidates()
            victim = scored[1][0]
            sharded.delete_edited(victim.image_id)
            oracle.delete_edited(victim.image_id)
            query = RangeQuery(3, 0.0, 0.4)
            before = (
                shard.version,
                sharded.wal_depth_by_shard(),
                sharded.materialized_images(),
                sharded.range_query(query).matches,
            )
            memo_before = shard.database.engine.cache_stats()
            assert not compactor._materialize(victim)
            assert shard.database.engine.cache_stats() == memo_before
            assert before == (
                shard.version,
                sharded.wal_depth_by_shard(),
                sharded.materialized_images(),
                sharded.range_query(query).matches,
            )
            assert before[3] == oracle.range_query(query).matches
            # Through a cycle scored before the delete: counted, not filled.
            monkeypatch.setattr(compactor, "_score_candidates", lambda: scored)
            report = compactor.run_once()
            assert report.skipped_stale == 1
            assert victim.image_id not in report.materialized
            assert len(report.materialized) == len(scored[1]) - 1
            assert sharded.metrics.counter("compaction.skipped_stale") == 1
        finally:
            sharded.close()

    def test_cycle_accounts_for_its_own_commits(self, rng):
        sharded, _, _ = build_mirrored_pair(
            rng, shard_count=1, binary_count=6, edited_count=6
        )
        try:
            compactor = Compactor(sharded, EAGER)
            report = compactor.run_once()
            # All same-shard candidates fill in one cycle; the cycle's
            # own fills stale none of them.
            assert report.skipped_stale == 0
            assert len(report.materialized) == 6
        finally:
            sharded.close()


class TestLocking:
    """Scoring and the fill read a shard under its read lock, so a
    writer holding the shard's write lock holds both off."""

    @pytest.mark.parametrize("step", ["score", "fill"])
    def test_a_held_write_lock_holds_the_step_off(self, rng, step):
        sharded, _, _ = build_mirrored_pair(
            rng, shard_count=1, binary_count=3, edited_count=3
        )
        try:
            compactor = Compactor(sharded, EAGER)
            winner = compactor._score_candidates()[1][0]
            call = {
                "score": compactor._score_candidates,
                "fill": partial(compactor._materialize, winner),
            }[step]
            done = threading.Event()
            worker = threading.Thread(target=lambda: (call(), done.set()))
            with sharded._shards[0].lock.write_locked():
                worker.start()
                assert not done.wait(0.2), f"{step} ran under a writer"
            worker.join(5.0)
            assert done.is_set()
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


# ----------------------------------------------------------------------
# Scoring against the per-candidate reference
# ----------------------------------------------------------------------
#: Every step of the differential is checked under each of these: the
#: eager floor, the shipped default, sequence-length and score cut-offs,
#: demand gating on and off, one winner up to all of them.
POLICIES = (
    EAGER,
    CompactionPolicy(),
    CompactionPolicy(min_ops=1, max_per_cycle=3, min_score=0.0),
    CompactionPolicy(min_ops=3, max_per_cycle=1, min_score=0.0,
                     require_demand=False),
    CompactionPolicy(min_ops=1, max_per_cycle=5, min_score=2.5,
                     require_demand=False),
    CompactionPolicy(min_ops=2, max_per_cycle=2, min_score=6.0),
)


def _reference_weight(shard, record, statistics):
    try:
        histogram = shard.database.catalog.histogram_of(record.sequence.base_id)
    except Exception:  # base may be edited too; fall back to neutral
        return 1.0
    dominant = int(histogram.fractions().argmax())
    try:
        selectivity = statistics.bin_statistics(
            dominant
        ).estimate_selectivity(0.10, 1.0)
    except QueryError:
        return 1.0
    return max(0.25, float(selectivity))


def _reference_ranking(compactor):
    """Every edited image scored on its own, then one full sort."""
    policy = compactor.policy
    candidates = []
    for shard in compactor.catalog._shards:
        with shard.lock.read_locked():
            served = compactor.catalog._queries_served(shard)
            if served == 0 and policy.require_demand:
                continue
            hotness = max(1, served)
            statistics = DatabaseStatistics(shard.database)
            for image_id in shard.database.catalog.edited_ids():
                if image_id in shard.materialized:
                    continue
                record = shard.database.catalog.edited_record(image_id)
                ops = len(record.sequence)
                if ops < policy.min_ops:
                    continue
                weight = _reference_weight(shard, record, statistics)
                score = hotness * ops * COST_RULE * weight
                if score < policy.min_score:
                    continue
                candidates.append(_Candidate(shard.index, image_id, score))
    candidates.sort(key=lambda c: (-c.score, c.shard_index, c.image_id))
    return candidates


def _key(candidates):
    return [(c.shard_index, c.image_id, repr(c.score)) for c in candidates]


def _leaf_edits(sharded):
    return [
        image_id
        for shard in sharded._shards
        for image_id in shard.database.catalog.edited_ids()
        if not shard.database.catalog.referrers(image_id)
    ]


def _churn_step(sharded, rng, ties):
    """One seeded mutation, query, hotness change, cycle or rollback."""
    shards = sharded._shards
    ids = sorted(sharded.placement())
    roll = int(rng.integers(0, 7))
    if roll == 0:
        # Zero-query shards, and equal hotness across shards (ties): a
        # shard's demand is its latency histogram's count, so start a
        # fresh registry and observe each shard that many times.
        sharded.metrics = MetricsRegistry()
        for shard in shards:
            served = 3 if ties else int(rng.choice([0, 0, 1, 2, 5]))
            for _ in range(served):
                sharded.metrics.observe(shard.histograms[0], 0.0)
    elif roll == 1:
        binaries = [i for i in ids if sharded.shard_database(
            sharded.shard_of(i)).catalog.is_binary(i)]
        sharded.update_image(
            binaries[int(rng.integers(len(binaries)))], random_image(rng)
        )
    elif roll == 2:
        # Based on any image, edited ones included; any Merge targets
        # the base, so edited Merge targets occur too.
        base = ids[int(rng.integers(len(ids)))]
        sharded.insert_edited(random_sequence(rng, base, max_ops=5))
    elif roll == 3:
        leaves = _leaf_edits(sharded)
        if leaves:
            sharded.delete_edited(leaves[int(rng.integers(len(leaves)))])
    elif roll == 4:
        policy = POLICIES[int(rng.integers(len(POLICIES)))]
        compactor = Compactor(sharded, policy)
        ranking = _reference_ranking(compactor)
        chosen = ranking[: policy.max_per_cycle]
        report = compactor.run_once()
        assert report.candidates_considered == len(ranking)
        assert report.materialized == tuple(c.image_id for c in chosen)
        assert report.skipped_stale == 0
        assert repr(report.projected_saving) == repr(
            sum((c.score for c in chosen), 0.0)
        )
    elif roll == 5:
        materialized = sorted(sharded.materialized_images())
        if materialized:
            victim = materialized[int(rng.integers(len(materialized)))]
            assert Compactor(sharded).rollback(victim)
    else:
        sharded.range_query(
            RangeQuery(int(rng.integers(sharded.quantizer.bin_count)), 0.0, 0.4)
        )


class TestScoringDifferential:
    @pytest.mark.parametrize("seed", range(6))
    def test_winners_match_per_candidate_reference(self, seed):
        rng = np.random.default_rng(seed)
        ties = seed % 2 == 0
        sharded, _, _ = build_mirrored_pair(
            rng, shard_count=3, binary_count=8, edited_count=14
        )
        try:
            for step in range(14):
                _churn_step(sharded, rng, ties)
                for policy in POLICIES:
                    compactor = Compactor(sharded, policy)
                    considered, winners = compactor._score_candidates()
                    ranking = _reference_ranking(compactor)
                    assert considered == len(ranking), (step, policy)
                    assert _key(winners) == _key(
                        ranking[: policy.max_per_cycle]
                    ), (step, policy)
        finally:
            sharded.close()

    def test_equal_scores_tie_break_by_shard_then_id(self, rng):
        sharded = ShardedCatalog(3)
        try:
            image = random_image(rng)
            # Identical bases: every shard's statistics agree, so every
            # two-op edit scores the same.
            for _ in range(6):
                base = sharded.insert_image(image)
                for _ in range(2):
                    sharded.insert_edited(
                        EditSequence(base, (Define.of(1, 1, 8, 9), Combine.box()))
                    )
            policy = CompactionPolicy(min_ops=1, max_per_cycle=5,
                                      min_score=0.0, require_demand=False)
            compactor = Compactor(sharded, policy)
            considered, winners = compactor._score_candidates()
            ranking = _reference_ranking(compactor)
            assert considered == len(ranking) == 12
            assert len({c.score for c in ranking}) == 1
            assert len({c.shard_index for c in ranking}) > 1
            expected = sorted(ranking, key=lambda c: (c.shard_index, c.image_id))
            assert _key(winners) == _key(expected[:5])
        finally:
            sharded.close()


class TestDemandWeight:
    def test_edited_base_weighs_one(self, rng):
        sharded, _, base_ids = build_mirrored_pair(
            rng, shard_count=1, binary_count=3, edited_count=3
        )
        try:
            parent = next(iter(sharded._shards[0].database.catalog.edited_ids()))
            child = sharded.insert_edited(
                EditSequence(parent, (Define.of(1, 1, 8, 9), Combine.box(),
                                      Merge(parent, 1, 1)))
            )
            considered, winners = Compactor(sharded, EAGER)._score_candidates()
            scores = {c.image_id: c.score for c in winners}
            assert considered == 4
            # No query served: hotness 1; three ops; neutral weight.
            assert scores[child] == 1 * 3 * COST_RULE * 1.0
            for image_id, score in scores.items():
                if image_id != child:
                    ops = len(sharded.shard_database(0).catalog.sequence_of(image_id))
                    assert 0.25 * ops <= score <= ops
        finally:
            sharded.close()

    def test_unexpected_error_is_not_scored_neutral(self, rng, monkeypatch):
        sharded, _, _ = build_mirrored_pair(
            rng, shard_count=1, binary_count=3, edited_count=3
        )
        try:
            catalog = sharded.shard_database(0).catalog

            def broken(image_id):
                raise RuntimeError(f"histogram of {image_id} unreadable")

            monkeypatch.setattr(catalog, "histogram_of", broken)
            with pytest.raises(RuntimeError, match="unreadable"):
                Compactor(sharded, EAGER).run_once()
            assert not sharded.materialized_images()
        finally:
            sharded.close()
