"""Zero-downtime claim of the online migrator, measured.

The migration design holds the service's write lock only for per-batch
manifest pointer swaps, so query latency during a background migration
should degrade by a bounded factor, not collapse.  This bench measures
it: the same query mix runs against one service twice — once idle, once
while a batch-size-1 migration (the worst case: maximal lock
acquisitions per record) rewrites every record underneath it — and the
acceptance bound asserts during-migration p95 stays within 3× the idle
p95 (plus a 50 ms absolute noise floor for sub-millisecond baselines).
Result-set parity against the pre-migration oracle is asserted for
every timed query.

Artifacts: ``benchmarks/results/migration.txt`` (human table) and
``benchmarks/results/migration.json`` (machine-readable twin validated
by ``repro.bench.schema`` in CI).

Environment knobs for CI smoke runs: ``REPRO_BENCH_MIGRATION_SCALE``
(default 0.25), ``REPRO_BENCH_MIGRATION_QUERIES`` (default 48).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List

import numpy as np
import pytest

from benchmarks.conftest import BENCH_SEED, write_json_result, write_result
from repro.bench.reporting import format_table
from repro.db.migration import Migrator
from repro.db.persistence import load_database, save_database
from repro.service import QueryService
from repro.obs.metrics import percentile
from repro.workloads.datasets import build_database
from repro.workloads.queries import make_query_workload
from repro.workloads.table2 import FLAG_PARAMETERS

SCALE = float(os.environ.get("REPRO_BENCH_MIGRATION_SCALE", "0.25"))
QUERY_COUNT = int(os.environ.get("REPRO_BENCH_MIGRATION_QUERIES", "48"))

#: Acceptance bound: during-migration p95 within 3x idle p95, with an
#: absolute floor so sub-millisecond baselines don't fail on scheduler
#: jitter alone.
P95_FACTOR = 3.0
P95_FLOOR_SECONDS = 0.050


def _percentiles(samples: List[float]) -> Dict[str, float]:
    ordered = sorted(samples)
    return {
        "count": len(ordered),
        "p50": percentile(ordered, 0.50),
        "p95": percentile(ordered, 0.95),
    }


def _timed_pass(service, queries, oracle, samples, stop=None):
    """One pass over the query mix, recording per-query seconds.

    The result cache is cleared before each query so every sample
    measures plan execution under the readers-writer lock — the thing
    migration contends on — not cache lookups.  Stops early when
    ``stop`` (the migration-finished event) is set.
    """
    for index, query in enumerate(queries):
        if stop is not None and stop.is_set():
            return
        service.cache.clear()
        started = time.perf_counter()
        outcome = service.execute(query)
        samples.append(time.perf_counter() - started)
        assert outcome.result.matches == oracle[index % len(oracle)][1], (
            "result drift during migration"
        )


@pytest.fixture(scope="module")
def measurement(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench-migration") / "db"
    rng = np.random.default_rng(BENCH_SEED + 41)
    save_database(build_database(FLAG_PARAMETERS.scaled(SCALE), rng), root)
    database = load_database(root)
    database.engine.enable_memo()
    queries = make_query_workload(
        database, np.random.default_rng(BENCH_SEED + 42), QUERY_COUNT
    )
    oracle = [
        (query, database.range_query(query, method="rbm").matches)
        for query in queries
    ]

    with QueryService(database, max_workers=2, prebuild_indexes=True) as service:
        idle: List[float] = []
        _timed_pass(service, queries, oracle, idle)

        during: List[float] = []
        finished = threading.Event()
        migrator = Migrator(root, batch_size=1, service=service)
        state: Dict[str, object] = {}

        def migrate():
            try:
                state["report"] = migrator.run()
            finally:
                finished.set()

        worker = threading.Thread(target=migrate)
        worker.start()
        # Cycle the mix until the migration completes so the during-
        # migration sample covers the whole lock-swap cadence.
        while not finished.is_set():
            _timed_pass(service, queries, oracle, during, stop=finished)
        worker.join()
        report = state["report"]
        assert report.records_migrated > 0

        # Post-migration parity: the migrated catalog serves the same
        # result sets the v2 catalog did.
        for query, expected in oracle:
            assert service.execute(query).result.matches == expected

    return {
        "idle": _percentiles(idle),
        "during": _percentiles(during),
        "records_migrated": report.records_migrated,
        "batches": report.batches,
    }


def test_migration_p95_degradation_bounded(measurement):
    """The acceptance bound, plus the diffable artifacts."""
    idle = measurement["idle"]
    during = measurement["during"]
    # With batch_size=1 the during-sample window spans at least a few
    # swaps even on fast machines; refuse to conclude from thin air.
    assert during["count"] >= 5, "migration finished before sampling"

    bound = max(P95_FACTOR * idle["p95"], idle["p95"] + P95_FLOOR_SECONDS)
    assert during["p95"] <= bound, (
        f"during-migration p95 {during['p95'] * 1e3:.2f}ms exceeds bound "
        f"{bound * 1e3:.2f}ms (idle p95 {idle['p95'] * 1e3:.2f}ms)"
    )

    rows = [
        ("idle", idle["count"], f"{idle['p50'] * 1e3:.3f}",
         f"{idle['p95'] * 1e3:.3f}"),
        ("migrating", during["count"], f"{during['p50'] * 1e3:.3f}",
         f"{during['p95'] * 1e3:.3f}"),
    ]
    table = format_table(("mode", "queries", "p50 ms", "p95 ms"), rows)
    write_result("migration.txt", table)
    write_json_result(
        "migration.json",
        {
            "scale": SCALE,
            "queries": QUERY_COUNT,
            "p95_factor_bound": P95_FACTOR,
            "p95_floor_seconds": P95_FLOOR_SECONDS,
            "idle": measurement["idle"],
            "during_migration": measurement["during"],
            "records_migrated": measurement["records_migrated"],
            "batches": measurement["batches"],
        },
    )


def test_offline_migration_throughput(benchmark, tmp_path_factory):
    """pytest-benchmark hook: full offline v2→v3 migration of one root."""
    rng = np.random.default_rng(BENCH_SEED + 43)
    database = build_database(FLAG_PARAMETERS.scaled(SCALE), rng)
    base = tmp_path_factory.mktemp("bench-migration-offline")
    counter = {"round": 0}

    def migrate_fresh():
        root = base / f"db-{counter['round']}"
        counter["round"] += 1
        save_database(database, root)
        return Migrator(root, batch_size=16).run()

    report = benchmark.pedantic(migrate_fresh, rounds=3, iterations=1)
    assert report.records_migrated > 0
