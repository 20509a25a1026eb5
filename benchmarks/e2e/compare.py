"""``compare A B``: B against A, judged by the committed bounds.

A and B are reports written by ``run --out`` (one workload or all four),
or directories of them, in which case each side is the per-metric median
of its files — how "two sets of >= 5 full runs agree" is checked.  Prints
each end-to-end metric x workload with both values, the relative
difference, the bound from ``BENCHMARK.json`` and, for directories, each
side's spread (distance between its quartiles as a share of its median);
exits non-zero when B is worse than A by more than a bound.  Metrics a
workload does not define are not in its report and so not in the table.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Tuple

from . import spec

Table = Dict[Tuple[str, str], List[float]]


def load(path: Path) -> Table:
    """``(workload, metric) -> values`` from a report file or directory."""
    table: Table = {}
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    for file in files:
        report = json.loads(file.read_text(encoding="utf-8"))
        for each in report.get("workloads", [report]):
            for metric, value in each["end_to_end"].items():
                table.setdefault((each["workload"], metric), []).append(value)
    return table


def spread(values: List[float]) -> str:
    """Quartile distance over median, as the pipeline computes it."""
    if len(values) < 2 or not statistics.median(values):
        return ""
    low, _, high = statistics.quantiles(values, n=4)
    return f"{(high - low) / statistics.median(values):.1%}"


def compare(a_path: Path, b_path: Path) -> int:
    first, second = load(a_path), load(b_path)
    bounds = {m["name"]: (m["bound"], m["better"], m["unit"]) for m in spec()["end_to_end"]}  # type: ignore[index,union-attr]
    # Failed operations have no relative bound: any at all is worse.
    bounds["failed_ops_pct"] = (0.0, "lower", "%")
    worse = 0
    print(f"{'workload':<16}{'metric':<20}{'A':>12}{'B':>12}{'unit':>6}{'B vs A':>9}{'bound':>7}{'spread A':>10}{'spread B':>10}")
    for key in sorted(set(first) & set(second)):
        workload, metric = key
        bound, better, unit = bounds[metric]
        a, b = statistics.median(first[key]), statistics.median(second[key])
        change = (b - a) / a if a else float(b > a)
        worsening = change if better == "lower" else -change
        verdict = "WORSE" if worsening > bound else ""
        worse += bool(verdict)
        print(f"{workload:<16}{metric:<20}{a:>12.4f}{b:>12.4f}{unit:>6}{change:>+9.1%}{bound:>7.0%}"
              f"{spread(first[key]):>10}{spread(second[key]):>10}  {verdict}")
    missing = sorted(set(first) ^ set(second))
    for workload, metric in missing:
        print(f"{workload:<16}{metric:<20} only on one side")
    return 1 if worse or missing else 0
