"""Durability overhead — save/load wall time and bytes on disk.

The atomic-save protocol (temp-directory swap) and the per-record
SHA-256 segment envelopes cost something on every save; checksum
verification costs again on every strict load.  This bench records the
v3 save, the strict and salvage load paths, and the on-disk footprint,
so durability regressions show up in
``benchmarks/results/persistence.txt``.
"""

from __future__ import annotations

import shutil
import time

from benchmarks.conftest import write_result
from repro.bench.reporting import format_table
from repro.db.persistence import load_database, save_database


def _directory_bytes(root):
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _timed(operation, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = operation()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_save_with_checksums_cost(benchmark, helmet_database, tmp_path):
    """Time the full durable save (atomic swap + SHA-256 manifest)."""
    root = tmp_path / "db"
    benchmark(lambda: save_database(helmet_database, root))
    assert (root / "catalog.json").is_file()


def test_load_strict_cost(benchmark, helmet_database, tmp_path):
    """Time the verifying load (checksums + full insertion replay)."""
    root = save_database(helmet_database, tmp_path / "db")
    loaded = benchmark(lambda: load_database(root))
    assert len(loaded) == len(helmet_database)


def test_report_persistence_overhead(benchmark, helmet_database, tmp_path):
    """Render the durability-overhead table for results/."""

    def measure():
        summary = helmet_database.structure_summary()
        root = tmp_path / "db"
        save_s, _ = _timed(lambda: save_database(helmet_database, root))
        load_s, loaded = _timed(lambda: load_database(root))
        salvage_s, (salvaged, report) = _timed(
            lambda: load_database(root, salvage=True)
        )
        assert len(loaded) == len(helmet_database)
        assert report.clean and len(salvaged) == len(helmet_database)
        row = (
            "v3 segments",
            f"{1000.0 * save_s:.1f}",
            f"{1000.0 * load_s:.1f}",
            f"{1000.0 * salvage_s:.1f}",
            f"{_directory_bytes(root):,}",
        )
        shutil.rmtree(root)
        return summary, [row]

    summary, rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = format_table(
        ("format", "save ms", "load ms", "salvage ms", "bytes on disk"),
        rows,
    )
    text = (
        f"Durability overhead (helmet database, "
        f"{summary['binary_images']} binary + "
        f"{summary['edited_images']} edited images)\n\n" + table
    )
    write_result("persistence.txt", text)
    print()
    print(text)
