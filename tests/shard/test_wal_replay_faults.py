"""Kill-point sweep over the sharded catalog's WAL boundaries.

Crash safety of the streaming-ingestion path is demonstrated, not
argued: every mutation crosses exactly two durable boundaries (the WAL
line append, then its fsync), and this sweep crashes each boundary in
every :data:`~repro.testing.faults.FAIL_MODES` mode, reopens the root,
and proves the recovered catalog — after an idempotent re-apply of the
interrupted script tail — is indistinguishable from a run that never
crashed.  A second sweep crashes :meth:`ShardedCatalog.save` at each of
its checkpoint boundaries and proves reopen-plus-replay converges with
no re-apply at all (every mutation was already WAL-durable).
"""

from __future__ import annotations

import shutil

import numpy as np

import pytest

from repro.core.query import RangeQuery
from repro.errors import DuplicateObjectError, UnknownObjectError
from repro.shard import ShardedCatalog
from repro.testing.faults import (
    FAIL_MODES,
    CountingFaults,
    FaultPlan,
    InjectedCrash,
)

from tests.shard.conftest import random_image, random_sequence

_SHARDS = 2


def _build_checkpoint(root):
    """A tiny saved root every sweep case starts from (WAL empty)."""
    rng = np.random.default_rng(77)
    catalog = ShardedCatalog(_SHARDS, root=root)
    for i in range(3):
        catalog.insert_image(random_image(rng, 6, 7), image_id=f"base-{i}")
    for i in range(2):
        catalog.insert_edited(
            random_sequence(rng, f"base-{i}"), image_id=f"edit-{i}"
        )
    catalog.save()
    catalog.close()


def _script():
    """Deterministic mutation script covering every WAL record kind.

    Explicit ids and a fixed seed make every run byte-identical, so a
    crashed run's tail can be re-applied verbatim.
    """
    rng = np.random.default_rng(99)
    return [
        ("insert_image", ("new-0", random_image(rng, 6, 7))),
        ("insert_edited", ("new-edit-0", random_sequence(rng, "base-0"))),
        ("update_image", ("base-1", random_image(rng, 6, 7))),
        ("insert_edited", ("new-edit-1", random_sequence(rng, "new-0"))),
        ("delete_edited", ("edit-1",)),
        ("delete_image", ("base-2",)),
    ]


def _apply_step(catalog, step, tolerate=False):
    """Apply one script step; ``tolerate`` skips already-replayed steps."""
    op, args = step
    try:
        if op == "insert_image":
            catalog.insert_image(args[1], image_id=args[0])
        elif op == "insert_edited":
            catalog.insert_edited(args[1], image_id=args[0])
        elif op == "update_image":
            catalog.update_image(args[0], args[1])
        elif op == "delete_edited":
            catalog.delete_edited(args[0])
        else:
            assert op == "delete_image"
            catalog.delete_image(args[0])
    except (DuplicateObjectError, UnknownObjectError):
        if not tolerate:
            raise


def _fingerprint(catalog):
    """Observable state: ids, exact histograms, and query answers."""
    ids = sorted(catalog.ids())
    histograms = {
        image_id: catalog.exact_histogram(image_id).counts.tolist()
        for image_id in ids
    }
    answers = []
    for bin_index in (0, 5, 11):
        query = RangeQuery(bin_index, 0.0, 0.5)
        answers.append(
            (
                sorted(catalog.range_query(query, method="rbm").matches),
                sorted(catalog.range_query(query, method="bwm").matches),
            )
        )
    return ids, histograms, answers


def _fresh_copy(checkpoint, destination):
    if destination.exists():
        shutil.rmtree(destination)
    shutil.copytree(checkpoint, destination)


@pytest.fixture(scope="module")
def sweep_env(tmp_path_factory):
    """Checkpoint root, the no-crash oracle fingerprint, and the
    boundary count of the full script (learned, not assumed)."""
    base = tmp_path_factory.mktemp("wal-sweep")
    checkpoint = base / "checkpoint"
    _build_checkpoint(checkpoint)

    oracle_root = base / "oracle"
    _fresh_copy(checkpoint, oracle_root)
    counting = CountingFaults()
    oracle = ShardedCatalog.open(oracle_root, faults=counting)
    for step in _script():
        _apply_step(oracle, step)
    oracle_fp = _fingerprint(oracle)
    oracle.close()

    # Two durable boundaries per mutation: the line append, its fsync.
    assert counting.writes == 2 * len(_script())
    assert {event.kind for event in counting.events} == {"append", "fsync"}
    return base, checkpoint, oracle_fp, counting.writes


def _crash_case(checkpoint, work_root, fail_at, mode):
    """Run the script into an injected crash; return the step index hit."""
    _fresh_copy(checkpoint, work_root)
    catalog = ShardedCatalog.open(work_root, faults=FaultPlan(fail_at, mode))
    crashed_at = None
    try:
        for index, step in enumerate(_script()):
            try:
                _apply_step(catalog, step)
            except InjectedCrash:
                crashed_at = index
                break
        assert crashed_at is not None, "sweep must actually crash"
    finally:
        catalog.close()
    return crashed_at


def test_every_mutation_boundary_replays_to_oracle(sweep_env):
    """Crash each append/fsync boundary in each mode; after reopen and
    an idempotent re-apply of the tail, state equals the no-crash run."""
    base, checkpoint, oracle_fp, boundaries = sweep_env
    work_root = base / "work"
    script = _script()
    for fail_at in range(1, boundaries + 1):
        for mode in FAIL_MODES:
            crashed_at = _crash_case(checkpoint, work_root, fail_at, mode)
            reopened = ShardedCatalog.open(work_root)
            try:
                # The crashed step may or may not have reached the WAL —
                # re-apply tolerates both; later steps never ran at all.
                _apply_step(reopened, script[crashed_at], tolerate=True)
                for step in script[crashed_at + 1 :]:
                    _apply_step(reopened, step)
                assert _fingerprint(reopened) == oracle_fp, (
                    f"divergence at boundary {fail_at} mode {mode!r}"
                )
            finally:
                reopened.close()


def test_recovery_is_idempotent_across_double_crash(sweep_env):
    """Crash, reopen (replay), crash the *next* run too, reopen again:
    replay-of-replayed state still converges."""
    base, checkpoint, oracle_fp, _ = sweep_env
    work_root = base / "double"
    script = _script()
    crashed_at = _crash_case(checkpoint, work_root, 3, "after")
    # Second run re-applies the tail but crashes on its own first append.
    second = ShardedCatalog.open(work_root, faults=FaultPlan(1, "torn"))
    try:
        resumed_at = None
        for index, step in enumerate(script[crashed_at:], start=crashed_at):
            try:
                _apply_step(second, step, tolerate=index == crashed_at)
            except InjectedCrash:
                resumed_at = index
                break
        assert resumed_at is not None
    finally:
        second.close()
    final = ShardedCatalog.open(work_root)
    try:
        for index, step in enumerate(script[resumed_at:], start=resumed_at):
            _apply_step(final, step, tolerate=index == resumed_at)
        assert _fingerprint(final) == oracle_fp
    finally:
        final.close()


def test_every_checkpoint_boundary_replays_to_oracle(sweep_env):
    """Crash save() at each durable boundary; reopen needs no re-apply
    because every mutation was already WAL-durable before the save."""
    base, checkpoint, oracle_fp, _ = sweep_env
    script = _script()

    counting_root = base / "save-count"
    _fresh_copy(checkpoint, counting_root)
    catalog = ShardedCatalog.open(counting_root)
    for step in script:
        _apply_step(catalog, step)
    counting = CountingFaults()
    catalog.faults = counting
    catalog.save()
    catalog.close()
    assert counting.writes >= _SHARDS  # at least one boundary per shard

    work_root = base / "save-work"
    for fail_at in range(1, counting.writes + 1):
        mode = FAIL_MODES[fail_at % len(FAIL_MODES)]
        _fresh_copy(checkpoint, work_root)
        crashing = ShardedCatalog.open(work_root)
        try:
            for step in script:
                _apply_step(crashing, step)
            crashing.faults = FaultPlan(fail_at, mode)
            with pytest.raises(InjectedCrash):
                crashing.save()
        finally:
            crashing.close()
        reopened = ShardedCatalog.open(work_root)
        try:
            assert _fingerprint(reopened) == oracle_fp, (
                f"divergence at save boundary {fail_at} mode {mode!r}"
            )
            # Records the crashed save had already checkpointed are
            # recognised as present, not re-applied into a rejection.
            assert reopened.metrics.counter("wal.replay_failed") == 0
        finally:
            reopened.close()
