"""``python3 -m benchmarks.e2e run|compare ...`` from the repo root.

``run --workload NAME`` is the contract the pipeline drives: it prints
every metric by name with its unit and ends with one JSON line holding
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or the per-layer ones with ``--trace 1``).  Without
``--workload`` it runs all four, each in a process of its own so one
workload's memory peak is not another's, and writes one combined JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import HERE, ROOT, spec

OUT_DIR = HERE / "out"
DEFAULT_SEED = 2006
#: What a second is in each unit a timing metric may carry.
PER_SECOND = {"s": 1.0, "ms": 1e3}


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run one workload, or all four")
    run.add_argument("--workload", help="one of the four workloads (default: all, one process each)")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED, help="drives corpus, queries and op order")
    run.add_argument("--seconds", type=float, help="how long the rounds are measured (default: run_seconds of BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: the traced per-layer pass")
    run.add_argument("--smoke", action="store_true", help="tiny catalogs, 4 rounds; checks the machinery, not the program's speed")
    run.add_argument("--out", type=Path, help="write the full report (and the fastest traced round's spans) here")
    compare = commands.add_parser("compare", help="B against A, judged by the bounds of BENCHMARK.json")
    compare.add_argument("a", type=Path, help="a report of `run --out`, or a directory of them (medians)")
    compare.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "compare":
        from .compare import compare as compare_reports

        return compare_reports(args.a, args.b)

    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT} holds no src/repro: the benchmark runs the program from its source tree")
    sys.path.insert(0, str(ROOT / "src"))
    seconds = args.seconds if args.seconds is not None else (0.0 if args.smoke else float(spec()["run_seconds"]))  # type: ignore[arg-type]
    if args.workload is None:
        return run_all(args.seed, seconds, args.trace, args.smoke, args.out)

    from .harness import run_workload
    from .workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    # Shard roots live here; removed even when the run dies half-way.
    with tempfile.TemporaryDirectory(prefix="scratch-", dir=OUT_DIR) as scratch:
        report = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke, Path(scratch))
    print_report(report)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result_line(report)))
    return 0 if report["correct"] else 1


def result_line(report: Dict[str, object]) -> Dict[str, object]:
    """The one JSON object the pipeline reads from the last line.

    The pipeline wants every end-to-end metric as a number from every
    workload.  A metric that does not apply to a workload (``knn_p50_ms``
    on ``paper_range``) is N/A in the report and everywhere a person
    reads; on this line it carries the workload's ``quiet_round_s`` in
    the metric's unit — a number that is as steady as any here and
    that worsens only when the workload does.
    """
    kind = "per_layer" if report["trace"] else "end_to_end"
    values: Dict[str, float] = report[kind]  # type: ignore[assignment]
    facts: Dict[str, float] = report["facts"]  # type: ignore[assignment]
    metrics = {}
    for metric in spec()[kind]:  # type: ignore[union-attr]
        name, unit = metric["name"], metric["unit"]
        value = values[name] if name in values else facts["quiet_round_s"] * PER_SECOND[unit]
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def print_report(report: Dict[str, object]) -> None:
    """Every metric by name with its unit, then the run facts."""
    facts: Dict[str, object] = report["facts"]  # type: ignore[assignment]
    print(f"== {report['workload']}  seed={report['seed']}  images={facts['images']}"
          f"{'  SMOKE' if report['smoke'] else ''}{'  TRACED' if report['trace'] else ''}")
    kind = "per_layer" if report["trace"] else "end_to_end"
    values: Dict[str, float] = report[kind]  # type: ignore[assignment]
    samples: Dict[str, int] = facts["samples"]  # type: ignore[assignment]
    listed = {metric["name"]: metric["unit"] for metric in spec()[kind]}  # type: ignore[index,union-attr]
    for name in list(listed) + [name for name in values if name not in listed]:
        if name not in values:
            print(f"  {name:<44} {'N/A':>14}")
            continue
        pooled = f"n={samples[name]}" if name in samples else ""
        print(f"  {name:<44} {values[name]:>14.4f} {listed.get(name, '%'):<6} {pooled}")
    if "hit_ratio" in facts:
        print(f"  hit_ratio={facts['hit_ratio']:.3f}")
    print(f"  rounds={facts['rounds']} quiet_repetitions={facts['quiet_repetitions']} quiet_round_s={facts['quiet_round_s']:.4f} "
          f"disturbance={facts['disturbance']:.3f} prepare_s={facts['prepare_s']:.2f} pinned_cpu={facts['pinned_cpu']}")
    print(f"  attempted={report['attempted']} failed={report['failed']} correct={report['correct']}")
    for problem in report["problems"]:  # type: ignore[union-attr]
        print(f"  PROBLEM: {problem}")
    for error in report["errors"]:  # type: ignore[union-attr]
        print(f"  FAILED OP:\n{error}")


def run_all(seed: int, seconds: float, trace: int, smoke: bool, out: Optional[Path]) -> int:
    """All four workloads, one child process each; one combined JSON."""
    from .workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    reports: List[dict] = []
    status = 0
    for name in WORKLOADS:
        part = OUT_DIR / f".part-{name}.json"
        command = [
            sys.executable, "-m", "benchmarks.e2e", "run", "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--out", str(part),
        ] + (["--smoke"] if smoke else [])
        child = subprocess.run(command, check=False, cwd=ROOT)
        status = status or child.returncode
        if part.is_file():
            reports.append(json.loads(part.read_text(encoding="utf-8")))
            part.unlink()
    tag = f"{'smoke' if smoke else 'run'}-seed{seed}{'-trace' if trace else ''}"
    out = out if out is not None else OUT_DIR / f"{tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seed": seed, "workloads": reports}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
