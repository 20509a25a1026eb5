"""The paper's tables, figures and ablations: ``python3 -m benchmarks.paper``.

One function per artifact.  Each section builds its workload, times it,
writes its paper-style rendering under ``benchmarks/results/`` and checks
the claim it prints; a failed check makes the command exit non-zero::

    python3 -m benchmarks.paper                       # every section
    python3 -m benchmarks.paper --only figure3,table2 # some sections
    python3 -m benchmarks.paper --smoke               # small sizes, into results/smoke/

``--smoke`` runs every section at fixed small sizes and writes under
``benchmarks/results/smoke/`` (never over the committed artifacts).  A
gate that holds only at full size — a timing claim that needs the full
workload to rise above scheduler noise — is skipped there and named.

The timing rule is :func:`best_of`: one warm-up call, then the best of
N.  :func:`measure_methods` times RBM and BWM that way taking turns
(:func:`best_of_each`), since their ratio is what the figures report.
Seeds are fixed (``BENCH_SEED``), so result sets are reproducible exactly.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Sequence, Set, Tuple, TypeVar

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    # The sections run the program from this checkout's source tree.
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from repro.color.histogram import ColorHistogram
from repro.color.names import FLAG_PALETTE
from repro.color.quantization import UniformQuantizer
from repro.core.bounds import BoundsEngine
from repro.core.query import QueryStats, RangeQuery
from repro.core.rules import RuleContext, apply_rule, describe_rule, initial_state
from repro.db.augmentation import augment_with_distortions
from repro.db.database import MultimediaDatabase
from repro.db.persistence import load_database, save_database
from repro.db.storage import measure_storage
from repro.editing.operations import Combine, Define, Merge, Modify, Mutate
from repro.editing.optimizer import optimize_database
from repro.editing.random_edits import random_sequence
from repro.editing.sequence import EditSequence
from repro.errors import ReproError, UnknownObjectError, WorkloadError
from repro.images.generators import box_blur, darken, random_palette_image
from repro.images.geometry import Rect
from repro.index.linear import LinearIndex
from repro.index.mbr import MBR
from repro.index.rtree import RTree
from repro.index.vafile import VAFile
from repro.obs import HealthMonitor, set_tracing
from repro.obs.metrics import percentile
from repro.shard import ShardedCatalog
from repro.workloads.datasets import build_database
from repro.workloads.flag_catalog import make_world_flags
from repro.workloads.flags import make_flag
from repro.workloads.queries import make_query_workload
from repro.workloads.table2 import (
    FLAG_PARAMETERS,
    HELMET_PARAMETERS,
    DatasetParameters,
    table2_rows,
)

T = TypeVar("T")

#: One seed for the whole evaluation, mirroring the paper's fixed datasets.
BENCH_SEED = 2006
#: Scale of the Table 2 databases: 1.0 is the full reconstructed Table 2;
#: half keeps a full run near a minute while preserving every relative effect.
BENCH_SCALE = 0.5
#: The x-axis of Figures 3 and 4.
DEFAULT_EDITED_PERCENTAGES = (10.0, 25.0, 50.0, 75.0, 90.0)
RESULTS_DIR = ROOT / "benchmarks" / "results"


# -- checks and timing ------------------------------------------------------


class CheckFailed(Exception):
    """A claim a section prints did not hold."""


def check(ok: bool, message: str) -> None:
    """Fail the section (and the command's exit status) unless ``ok``."""
    if not ok:
        raise CheckFailed(message)


def best_of_each(fns: Sequence[Callable[[], T]], repeats: int = 1) -> List[Tuple[float, T]]:
    """One warm-up call each, then the best of ``repeats`` timed calls each.

    Returns ``(seconds, value of the last call)`` per callable.  The best
    repeat is the standard way to strip scheduler and allocator noise from
    a deterministic workload; the warm-up keeps first-call costs out of
    it.  The callables take turns within every repeat, so a slow spell of
    the host lands on all of them alike instead of on whichever was
    being timed.
    """
    if repeats < 1:
        raise WorkloadError("repeats must be at least 1")
    values = [fn() for fn in fns]
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            values[index] = fn()
            best[index] = min(best[index], time.perf_counter() - start)
    return list(zip(best, values))


def best_of(fn: Callable[[], T], repeats: int = 1) -> Tuple[float, T]:
    """:func:`best_of_each` for one callable."""
    return best_of_each([fn], repeats)[0]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    return sum(values) / len(values) if values else 0.0


def percent_faster(baseline: float, improved: float) -> float:
    """The §5 headline statistic: ``100 * (baseline - improved) / baseline``."""
    if baseline <= 0:
        return 0.0
    return 100.0 * (baseline - improved) / baseline


# -- the Figure 3/4 sweep ---------------------------------------------------


@dataclass(frozen=True)
class MethodMeasurement:
    """Per-query time and the work of one method over a query batch."""

    mean_seconds: float
    total_matches: int
    stats: QueryStats


def measure_methods(
    database: MultimediaDatabase,
    queries: Sequence[RangeQuery],
    methods: Sequence[str] = ("rbm", "bwm"),
    repeats: int = 1,
) -> Dict[str, MethodMeasurement]:
    """Time the same query batch under each method (:func:`best_of_each`).

    The answers are checked while timing: every conservative method must
    return the same match set for each query, and ``instantiate`` (the
    exact answer) a subset of it.  A disagreement raises
    :class:`WorkloadError` rather than producing a pretty wrong number.
    """
    timed = best_of_each(
        [
            lambda m=method: [database.range_query(q, method=m) for q in queries]
            for method in methods
        ],
        repeats,
    )
    measurements: Dict[str, MethodMeasurement] = {}
    answers: Dict[str, List[FrozenSet[str]]] = {}
    for method, (seconds, results) in zip(methods, timed):
        stats = QueryStats()
        for result in results:
            stats.merge(result.stats)
        answers[method] = [result.matches for result in results]
        measurements[method] = MethodMeasurement(
            mean_seconds=seconds / len(queries),
            total_matches=sum(len(result) for result in results),
            stats=stats,
        )
    _check_equivalence(answers)
    return measurements


def _check_equivalence(answers: Dict[str, List[FrozenSet[str]]]) -> None:
    conservative = [method for method in answers if method != "instantiate"]
    if not conservative:
        return
    first = conservative[0]
    for index, reference in enumerate(answers[first]):
        for method in conservative[1:]:
            if answers[method][index] != reference:
                raise WorkloadError(
                    f"query {index}: {method} and {first} returned different "
                    "match sets — equivalence violated"
                )
        if "instantiate" in answers and not answers["instantiate"][index] <= reference:
            raise WorkloadError(
                f"query {index}: {first} missed an exact match — false negative"
            )


@dataclass(frozen=True)
class SweepPoint:
    """One x-axis point: every method measured on one database."""

    edited_percentage: float
    database_size: int
    unclassified_images: int
    measurements: Dict[str, MethodMeasurement]

    def seconds(self, method: str) -> float:
        """Mean per-query seconds for a method."""
        return self.measurements[method].mean_seconds

    @property
    def bwm_percent_faster(self) -> float:
        """The paper's headline statistic at this point."""
        return percent_faster(self.seconds("rbm"), self.seconds("bwm"))


@dataclass(frozen=True)
class SweepResult:
    """A full figure: one point per edited percentage."""

    dataset: str
    points: Tuple[SweepPoint, ...]
    queries_per_point: int

    def series(self, method: str) -> List[Tuple[float, float]]:
        """``(edited_percentage, mean_seconds)`` pairs for one curve."""
        return [(p.edited_percentage, p.seconds(method)) for p in self.points]

    @property
    def average_percent_faster(self) -> float:
        """BWM's average advantage over RBM across the sweep (§5 headline)."""
        return mean([p.bwm_percent_faster for p in self.points])


def run_figure_sweep(
    params: DatasetParameters,
    seed: int = BENCH_SEED,
    edited_percentages: Sequence[float] = DEFAULT_EDITED_PERCENTAGES,
    queries_per_point: int = 30,
    methods: Sequence[str] = ("rbm", "bwm"),
    scale: float = 1.0,
    repeats: int = 1,
) -> SweepResult:
    """Reproduce one figure: sweep the edited percentage, time each method.

    The queries are drawn per point from the same seed stream, so each
    database sees queries matched to its own contents (as the prototype's
    random queries were) while the whole sweep stays reproducible.
    """
    scaled = params.scaled(scale)
    points = []
    for percentage in edited_percentages:
        rng = np.random.default_rng([seed, int(percentage * 100)])
        database = build_database(scaled, rng, edited_percentage=percentage)
        queries = make_query_workload(database, rng, queries_per_point)
        points.append(
            SweepPoint(
                edited_percentage=percentage,
                database_size=len(database),
                unclassified_images=database.structure_summary()["unclassified"],
                measurements=measure_methods(database, queries, methods, repeats),
            )
        )
    return SweepResult(scaled.name, tuple(points), queries_per_point)


# -- rendering --------------------------------------------------------------


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned plain-text table."""
    columns = [list(map(str, column)) for column in zip(headers, *rows)]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def render_figure(result: SweepResult, figure_number: int) -> str:
    """One figure's series the way the paper's charts tabulate it."""
    rows = [
        (
            f"{point.edited_percentage:.0f}%",
            f"{point.seconds('rbm') * 1e3:.3f}",
            f"{point.seconds('bwm') * 1e3:.3f}",
            f"{point.bwm_percent_faster:+.2f}%",
            point.unclassified_images,
        )
        for point in result.points
    ]
    table = format_table(
        (
            "% edited",
            "RBM ms/query (w/out DS)",
            "BWM ms/query (with DS)",
            "BWM faster by",
            "unclassified",
        ),
        rows,
    )
    return (
        f"Figure {figure_number}. Range query time vs. percentage of images "
        f"stored as editing operations ({result.dataset} data set)\n{table}\n"
        f"average: BWM {result.average_percent_faster:.2f}% faster than RBM "
        f"over {result.queries_per_point} queries/point"
    )


def render_table2(helmet: DatasetParameters, flag: DatasetParameters) -> str:
    """Table 2 in the paper's layout."""
    table = format_table(("Description", "Helmet", "Flag"), table2_rows(helmet, flag))
    return "Table 2. Default values of parameters used in performance evaluation\n" + table


def render_ascii_chart(result: SweepResult, width: int = 50) -> str:
    """One bar per (point, method), scaled to the slowest measurement."""
    peak = max(point.seconds(m) for point in result.points for m in ("rbm", "bwm"))
    if peak <= 0:
        return "(no timing data)"
    lines = []
    for point in result.points:
        for method in ("rbm", "bwm"):
            seconds = point.seconds(method)
            bar = "#" * max(1, int(round(seconds / peak * width)))
            label = f"{point.edited_percentage:>3.0f}% {method:<4}"
            lines.append(f"{label} |{bar:<{width}}| {seconds * 1e3:8.3f} ms")
        lines.append("")
    return "\n".join(lines).rstrip()


def render_series_csv(result: SweepResult) -> str:
    """Machine-readable CSV of the sweep (for external plotting)."""
    lines = ["edited_percentage,rbm_seconds,bwm_seconds"]
    for point in result.points:
        lines.append(
            f"{point.edited_percentage:.1f},{point.seconds('rbm'):.9f},"
            f"{point.seconds('bwm'):.9f}"
        )
    return "\n".join(lines)


# -- artifacts --------------------------------------------------------------


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def provenance() -> Dict[str, str]:
    """Commit, interpreter and instant stamped onto every JSON artifact."""
    return {
        "git_sha": _git_sha(),
        "python_version": platform.python_version(),
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0)
        .isoformat(),
    }


def write_json_result(path: Path, payload: Dict[str, object]) -> Path:
    """Write a stamped JSON artifact with sorted keys (minimal diffs)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = dict(payload, provenance=provenance())
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


@dataclass
class Run:
    """One invocation: where artifacts go, at which size, shared databases."""

    out: Path
    smoke: bool = False
    written: Set[str] = field(default_factory=set)
    skipped: List[str] = field(default_factory=list)
    _databases: Dict[str, MultimediaDatabase] = field(default_factory=dict)

    def size(self, full: T, smoke: T) -> T:
        """The full-size value, or the smoke one under ``--smoke``."""
        return smoke if self.smoke else full

    def write(self, name: str, text: str) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        (self.out / name).write_text(text + "\n", encoding="utf-8")
        self.written.add(name)

    def write_json(self, name: str, payload: Dict[str, object]) -> None:
        write_json_result(self.out / name, payload)
        self.written.add(name)

    def full_size_gate(self, ok: bool, message: str) -> None:
        """A check that needs the full workload to rise above noise."""
        if self.smoke:
            self.skipped.append(message)
            print(f"  skipped under --smoke (full size only): {message}")
        else:
            check(ok, message)

    @property
    def table2_scale(self) -> float:
        return self.size(BENCH_SCALE, 0.1)

    def table2_database(self, name: str) -> MultimediaDatabase:
        """The helmet or flag database at (scaled) Table 2 defaults."""
        if name not in self._databases:
            params, seed = {
                "helmet": (HELMET_PARAMETERS, BENCH_SEED),
                "flag": (FLAG_PARAMETERS, BENCH_SEED + 1),
            }[name]
            self._databases[name] = build_database(
                params.scaled(self.table2_scale), np.random.default_rng(seed)
            )
        return self._databases[name]


#: name -> (section, the artifacts it writes), in run order.
SECTIONS: Dict[str, Tuple[Callable[[Run], None], Tuple[str, ...]]] = {}


def section(*artifacts: str) -> Callable[[Callable[[Run], None]], Callable[[Run], None]]:
    def register(fn: Callable[[Run], None]) -> Callable[[Run], None]:
        SECTIONS[fn.__name__] = (fn, artifacts)
        return fn

    return register


# -- T1, T2, F3, F4 ---------------------------------------------------------


@section("table1.txt")
def table1(run: Run) -> None:
    """Table 1's rule effects, plus the cost of one rule application."""
    rows = []
    for op in (
        Define(Rect(0, 0, 1, 1)),
        Combine.box(),
        Modify((0, 0, 0), (1, 1, 1)),
        Mutate.translation(1, 1),
        Merge(None),
    ):
        rows.append((type(op).__name__, *describe_rule(op)))
    text = (
        "Table 1. Rules for adjusting bounds on numbers of pixels in histogram bin HB\n"
        + format_table(
            ("Operation", "Conditions", "Min in HB", "Max in HB", "Total pixels"), rows
        )
    )
    check("Combine" in text and "Merge" in text, "Table 1 lacks a Combine or Merge row")

    # The unit of work RBM repeats and BWM avoids: one rule application.
    ctx = RuleContext(
        quantizer=UniformQuantizer(4, "rgb"),
        bin_index=0,
        fill_color=(0, 0, 0),
        resolve_target=lambda target_id, bin_index: (10, 20, 40, 40),
    )
    state = apply_rule(initial_state(400, 48, 48), Define(Rect(4, 4, 20, 20)), ctx)
    operations = {
        "define": Define(Rect(2, 2, 30, 30)),
        "combine": Combine.box(),
        "modify": Modify((0, 0, 0), (255, 255, 255)),
        "mutate_scale": Mutate.scale(2),
        "mutate_rigid": Mutate.translation(5, 5),
        "merge_null": Merge(None),
        "merge_target": Merge("target", 3, 3),
    }
    calls = run.size(2000, 100)
    cost_rows = []
    for name, op in operations.items():
        seconds, result = best_of(
            lambda op=op: [apply_rule(state, op, ctx) for _ in range(calls)][-1],
            run.size(5, 1),
        )
        check(
            0 <= result.lo <= result.hi <= result.total,
            f"{name}: bounds out of order ({result.lo}, {result.hi}, {result.total})",
        )
        cost_rows.append((name, f"{seconds / calls * 1e6:.2f}"))
    run.write(
        "table1.txt",
        text
        + f"\n\nCost of one rule application (best of {run.size(5, 1)} x {calls} calls)\n"
        + format_table(("operation", "us/application"), cost_rows),
    )


@section("table2.txt")
def table2(run: Run) -> None:
    """Table 2: the configured defaults plus the split measured on the databases."""
    scale = run.table2_scale
    summaries = {}
    for name, params in (("helmet", HELMET_PARAMETERS), ("flag", FLAG_PARAMETERS)):
        summary = run.table2_database(name).structure_summary()
        expected = params.scaled(scale).binary_images
        check(
            summary["binary_images"] == expected,
            f"{name}: {summary['binary_images']} binary images, configured {expected}",
        )
        # The generated split matches the configured 80/20 within rounding.
        edited = summary["edited_images"]
        check(
            abs(summary["main_edited"] - 0.8 * edited) <= 2
            and abs(summary["unclassified"] - 0.2 * edited) <= 2,
            f"{name}: Main/Unclassified split {summary['main_edited']}/"
            f"{summary['unclassified']} is not 80/20 of {edited}",
        )
        summaries[name] = summary
    helmet, flag = summaries["helmet"], summaries["flag"]
    measured = format_table(
        ("Measured on generated databases", "Helmet", "Flag"),
        [
            ("Binary images", helmet["binary_images"], flag["binary_images"]),
            ("Edited images", helmet["edited_images"], flag["edited_images"]),
            ("Edited in Main (bound-widening only)", helmet["main_edited"], flag["main_edited"]),
            ("Edited in Unclassified", helmet["unclassified"], flag["unclassified"]),
        ],
    )
    run.write(
        "table2.txt",
        render_table2(HELMET_PARAMETERS.scaled(scale), FLAG_PARAMETERS.scaled(scale))
        + f"\n(bench scale {scale}; multiply binary-image counts by {1 / scale:g} "
        "for the full reconstructed Table 2)\n\n"
        + measured,
    )


def _figure(run: Run, number: int, params: DatasetParameters, seed: int) -> None:
    result = run_figure_sweep(
        params,
        seed=seed,
        scale=run.size(BENCH_SCALE, 0.1),
        queries_per_point=run.size(16, 4),
        repeats=run.size(5, 1),
    )
    run.write(
        f"figure{number}.txt",
        render_figure(result, number) + "\n\n" + render_ascii_chart(result),
    )
    run.write(f"figure{number}.csv", render_series_csv(result))
    # The paper's qualitative claims: BWM wins on average, and never
    # loses badly at any single point.
    run.full_size_gate(
        result.average_percent_faster > 0,
        f"Figure {number}: BWM {result.average_percent_faster:+.1f}% faster on average",
    )
    for point in result.points:
        run.full_size_gate(
            point.seconds("bwm") < point.seconds("rbm") * 1.35,
            f"Figure {number}: BWM at {point.edited_percentage:.0f}% edited is "
            f"within 1.35x of RBM",
        )


@section("figure3.txt", "figure3.csv")
def figure3(run: Run) -> None:
    """Figure 3: range query time vs. % edited, helmets (§5: BWM ~33% faster)."""
    _figure(run, 3, HELMET_PARAMETERS, BENCH_SEED)


@section("figure4.txt", "figure4.csv")
def figure4(run: Run) -> None:
    """Figure 4: the same sweep over flags (§5: BWM ~22% faster)."""
    _figure(run, 4, FLAG_PARAMETERS, BENCH_SEED + 1)


# -- ablations A1, A2, A7 ---------------------------------------------------


def _helmet_point(
    run: Run, seed: Sequence[int], scale: float, queries: int, **build: object
) -> Tuple[MultimediaDatabase, List[RangeQuery]]:
    rng = np.random.default_rng(list(seed))
    database = build_database(HELMET_PARAMETERS.scaled(run.size(scale, 0.1)), rng, **build)
    return database, make_query_workload(database, rng, run.size(queries, 4))


@section("ablation_unclassified.txt")
def ablation_unclassified(run: Run) -> None:
    """A1: BWM's advantage as the bound-widening fraction falls (§5's explanation)."""
    rows = []
    for fraction in (1.0, 0.8, 0.5, 0.2, 0.0):
        database, queries = _helmet_point(
            run, (BENCH_SEED + 7, int(fraction * 100)), 0.35, 12,
            edited_percentage=60.0, bound_widening_fraction=fraction,
        )
        m = measure_methods(database, queries, repeats=run.size(5, 1))
        rbm, bwm = m["rbm"].mean_seconds, m["bwm"].mean_seconds
        rows.append(
            (
                f"{fraction:.1f}",
                database.structure_summary()["unclassified"],
                f"{rbm * 1e3:.3f}",
                f"{bwm * 1e3:.3f}",
                f"{percent_faster(rbm, bwm):+.2f}%",
            )
        )
    run.write(
        "ablation_unclassified.txt",
        "A1. BWM advantage vs. fraction of bound-widening edited images\n"
        + format_table(
            ("BW fraction", "unclassified", "RBM ms/query", "BWM ms/query", "BWM faster by"),
            rows,
        ),
    )
    # The §5 mechanism: all-widening beats all-unclassified on advantage.
    first, last = (float(row[-1].rstrip("%")) for row in (rows[0], rows[-1]))
    run.full_size_gate(
        first > last,
        f"A1: advantage at BW fraction 1.0 ({first:+.1f}%) exceeds 0.0 ({last:+.1f}%)",
    )


@section("ablation_ops_per_image.txt")
def ablation_ops_per_image(run: Run) -> None:
    """A2: both methods slow as sequences lengthen; RBM applies more rules."""
    rows = []
    for ops in (2, 5, 10, 20):
        database, queries = _helmet_point(
            run, (BENCH_SEED + 8, ops), 0.35, 12, edited_percentage=60.0, ops_per_edited=ops
        )
        m = measure_methods(database, queries, repeats=run.size(5, 1))
        rbm, bwm = m["rbm"].mean_seconds * 1e3, m["bwm"].mean_seconds * 1e3
        rbm_rules, bwm_rules = m["rbm"].stats.rules_applied, m["bwm"].stats.rules_applied
        check(bwm_rules <= rbm_rules, f"A2: BWM applied more rules than RBM at {ops} ops")
        rows.append(
            (ops, f"{rbm:.3f}", f"{bwm:.3f}", f"{percent_faster(rbm, bwm):+.2f}%",
             rbm_rules, bwm_rules)
        )
    check(rows[-1][4] > rows[0][4], "A2: RBM rule work does not grow with sequence length")
    run.write(
        "ablation_ops_per_image.txt",
        "A2. Query time vs. average operations per edited image\n"
        + format_table(
            ("ops/image", "RBM ms/query", "BWM ms/query", "BWM faster by",
             "RBM rules", "BWM rules"),
            rows,
        ),
    )


@section("ablation_quantizer.txt")
def ablation_quantizer(run: Run) -> None:
    """A7: quantizer granularity, query cost against conservative precision."""
    rows = []
    for divisions in (2, 4, 8):
        database, queries = _helmet_point(
            run, (BENCH_SEED + 20, divisions), 0.25, 10,
            quantizer=UniformQuantizer(divisions, "rgb"),
        )
        # The instantiate answers are the exact sets; measure_methods
        # checks they are a subset of BWM's (no false negatives).
        m = measure_methods(
            database, queries, methods=("bwm", "instantiate"),
            repeats=run.size(3, 1),
        )
        conservative, exact = m["bwm"].total_matches, m["instantiate"].total_matches
        rows.append(
            (
                divisions,
                divisions ** 3,
                f"{m['bwm'].mean_seconds * 1e3:.3f}",
                f"{exact / conservative if conservative else 1.0:.2%}",
            )
        )
    run.write(
        "ablation_quantizer.txt",
        "A7. Quantizer granularity: query cost and conservative precision\n"
        + format_table(
            ("divisions", "bins", "BWM ms/query", "precision (exact/conservative)"), rows
        ),
    )


# -- A3-A6, A10, A11 --------------------------------------------------------


@section("storage_savings.txt")
def storage_savings(run: Run) -> None:
    """A3: edited images as sequences vs. as rasters (§2's storage motivation)."""
    rows = []
    for name in ("helmet", "flag"):
        database = run.table2_database(name)
        check(measure_storage(database.catalog).total_bytes > 0, f"{name}: no bytes stored")
        report = database.storage_report(include_instantiated=True)
        check(report.bytes_saved > 0, f"{name}: sequences save no bytes")
        # The headline claim: sequences are a small fraction of raster bytes.
        check(
            report.savings_ratio < 0.5,
            f"{name}: sequences use {report.savings_ratio:.1%} of the raster bytes",
        )
        rows.append(
            (
                name,
                report.edited_images,
                f"{report.edited_sequence_bytes:,}",
                f"{report.edited_if_instantiated_bytes:,}",
                f"{100.0 * report.savings_ratio:.2f}%",
            )
        )
    run.write(
        "storage_savings.txt",
        "A3. Storage consumed by edited images: edit sequences vs. rasters\n"
        + format_table(
            ("dataset", "edited images", "bytes as sequences", "bytes if rasters",
             "sequences use"),
            rows,
        ),
    )


@section("index_rtree.txt")
def index_rtree(run: Run) -> None:
    """A4: the conventional histogram access path, R-tree vs. VA-file vs. linear."""
    dimensions = 8  # histogram-like, and still within an R-tree's reach
    count = run.size(2000, 300)
    rng = np.random.default_rng(BENCH_SEED + 9)
    # Sparse, histogram-like vectors: a few heavy bins, the rest near zero.
    points = rng.dirichlet(alpha=[0.3] * dimensions, size=count)

    def build_rtree() -> RTree:
        tree = RTree(max_entries=16)
        for index, point in enumerate(points):
            tree.insert_point(point, index)
        return tree

    build_seconds, rtree = best_of(build_rtree)
    check(len(rtree) == count, f"A4: R-tree holds {len(rtree)} of {count} points")
    indexes = {"rtree": rtree, "linear": LinearIndex(), "vafile": VAFile(bits=5)}
    for index, point in enumerate(points):
        indexes["linear"].insert_point(point, index)
        indexes["vafile"].insert_point(point, index)

    rng = np.random.default_rng(BENCH_SEED + 10)
    queries = []
    for _ in range(run.size(50, 10)):
        axis, low = int(rng.integers(dimensions)), float(rng.uniform(0.0, 0.6))
        queries.append(MBR.slab(dimensions, axis, low, low + 0.25, domain_lo=0.0, domain_hi=1.0))
    near = np.random.default_rng(BENCH_SEED + 11).dirichlet(alpha=[0.3] * dimensions, size=20)

    rows, answers = [], {}
    for name, index in indexes.items():
        seconds, answers[name] = best_of(
            lambda: [sorted(index.search(q)) for q in queries], run.size(3, 1)
        )
        knn_seconds, neighbours = best_of(
            lambda: [index.nearest(p, k=10) for p in near], run.size(3, 1)
        )
        check(all(len(n) == 10 for n in neighbours), f"A4: {name} 10-NN returned fewer than 10")
        rows.append((name, f"{seconds * 1e3:.3f}", len(queries), f"{knn_seconds * 1e3:.3f}"))
    check(sum(map(len, answers["linear"])) > 0, "A4: the slab queries match nothing")
    check(
        answers["rtree"] == answers["linear"] == answers["vafile"],
        "A4: the access methods returned different answers",
    )
    run.write(
        "index_rtree.txt",
        "A4. Conventional histogram access path: R-tree vs. VA-file vs. linear\n"
        + format_table(("access method", "batch ms", "queries", f"{len(near)} x 10-NN ms"), rows)
        + f"\nR-tree build: {build_seconds * 1e3:.1f} ms for {count} points",
    )


@section("knn_extension.txt")
def knn_extension(run: Run) -> None:
    """A5 (§6 future work): bounds-pruned kNN equals exhaustive, instantiating less."""
    k = 5
    rng = np.random.default_rng(BENCH_SEED + 12)
    # kNN instantiates rasters; keep the database moderate.
    database = build_database(FLAG_PARAMETERS.scaled(run.size(0.1, 0.05)), rng)
    queries = [make_flag(rng) for _ in range(run.size(5, 2))]
    instantiated = 0
    for image in queries:
        results = {m: database.knn(image, k, method=m) for m in ("binary", "exact", "bounded")}
        check(
            all(len(r.neighbors) == k for r in results.values()),
            f"A5: a kNN strategy returned fewer than {k} neighbours",
        )
        check(
            [round(d, 9) for d, _ in results["exact"].neighbors]
            == [round(d, 9) for d, _ in results["bounded"].neighbors],
            "A5: bounded kNN differs from exhaustive instantiation",
        )
        instantiated += results["bounded"].stats.edited_instantiated
    possible = database.catalog.edited_count * len(queries)
    check(instantiated < possible, "A5: bounds pruned no instantiation")
    run.write(
        "knn_extension.txt",
        "A5. kNN over the augmented database: bounds-based pruning\n"
        + format_table(
            ("strategy", "edited candidates", "edited instantiated"),
            [("exact", possible, f"{possible}"), ("bounded", possible, f"{instantiated}")],
        )
        + f"\npruned {100.0 * (1 - instantiated / possible):.1f}% of instantiations "
        "with identical results",
    )


def _distort(image, kind: str):
    if kind == "darken":
        return darken(image, 0.55)
    if kind == "blur":
        return box_blur(box_blur(image))
    return image.crop(Rect(image.height // 5, image.width // 5, image.height, image.width))


@section("augmentation_recall.txt")
def augmentation_recall(run: Run) -> None:
    """A6 (§2): augmentation recovers the source image under distorted queries."""
    k = 3
    rng = np.random.default_rng(BENCH_SEED + 13)
    database = MultimediaDatabase()
    base_ids = [database.insert_image(flag, image_id=name) for name, flag in make_world_flags().items()]
    for base_id in base_ids:
        augment_with_distortions(database, base_id)
    picks = [base_ids[int(rng.integers(len(base_ids)))] for _ in range(run.size(24, 8))]

    def recall(kind: str, method: str) -> float:
        hits = 0
        for base_id in picks:
            result = database.knn(_distort(database.instantiate(base_id), kind), k, method=method)
            found = set(result.ids())
            # The §2 connection: a matched edited image stands for its base.
            for image_id in result.ids():
                record = database.catalog.record(image_id)
                if record.format == "edited":
                    found.add(record.base_id)
            hits += base_id in found
        return hits / len(picks)

    rows, improvements = [], 0
    for kind in ("darken", "blur", "crop"):
        binary, augmented = recall(kind, "binary"), recall(kind, "exact")
        check(augmented >= binary, f"A6: augmentation lowered {kind} recall")
        improvements += augmented > binary
        rows.append((kind, f"{binary:.2%}", f"{augmented:.2%}"))
    check(improvements >= 1, "A6: augmentation improved recall on no distortion")
    run.write(
        "augmentation_recall.txt",
        f"A6. Recall@{k} of the true source image under distorted queries\n"
        + format_table(("distortion", "recall, binary only", "recall, augmented DB"), rows),
    )


@section("optimizer.txt")
def optimizer(run: Run) -> None:
    """A10: query time and bytes, no-op-padded sequences vs. optimized ones."""
    rng = np.random.default_rng(BENCH_SEED + 40)
    database = build_database(HELMET_PARAMETERS.scaled(run.size(0.25, 0.1)), rng)
    # Realistic no-ops an editing session leaves behind.
    noise = (Modify((1, 2, 3), (1, 2, 3)), Mutate.translation(0, 0), Modify((4, 5, 6), (4, 5, 6)))
    for edited_id in list(database.catalog.edited_ids()):
        sequence = database.catalog.sequence_of(edited_id).extended(*noise)
        database.delete_edited(edited_id)
        database.insert_edited(sequence, image_id=edited_id)
    queries = make_query_workload(database, rng, run.size(12, 4))

    def measure():
        measured = measure_methods(database, queries, methods=("rbm",), repeats=run.size(3, 1))
        return (
            database.storage_report().edited_sequence_bytes,
            measured["rbm"],
            [database.range_query(q).matches for q in queries],
            [database.range_query(q, method="instantiate").matches for q in queries],
        )

    before = measure()
    report = optimize_database(database)
    check(
        report.ops_removed >= len(noise) * database.catalog.edited_count,
        f"A10: removed {report.ops_removed} operations, fewer than the padding",
    )
    after = measure()
    # Exact semantics preserved; conservative sets may only shrink
    # (removing a no-op can tighten bounds, never loosen them).
    check(before[3] == after[3], "A10: optimization changed an exact answer")
    check(
        all(tight <= loose for tight, loose in zip(after[2], before[2])),
        "A10: optimization widened a conservative answer",
    )
    check(
        after[1].stats.rules_applied < before[1].stats.rules_applied,
        "A10: optimization saved no rule applications",
    )
    rows = [
        (label, f"{m.mean_seconds * 1e3:.3f}", f"{stored:,}", m.stats.rules_applied)
        for label, (stored, m, _, _) in (("padded", before), ("optimized", after))
    ]
    run.write(
        "optimizer.txt",
        "A10. Edit-sequence optimization: padded vs. normalized sequences\n"
        + format_table(("sequences", "RBM ms/query", "stored bytes", "rules/workload"), rows)
        + f"\nremoved {report.ops_removed} operations, saved {report.bytes_saved:,} bytes",
    )


@section("persistence.txt")
def persistence(run: Run) -> None:
    """A11: durable save, strict and salvage load, and bytes on disk."""
    database = run.table2_database("helmet")
    summary = database.structure_summary()
    repeats = run.size(3, 1)
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "db"
        save_s, _ = best_of(lambda: save_database(database, root), repeats)
        check((root / "catalog.json").is_file(), "A11: the save wrote no catalog.json")
        load_s, loaded = best_of(lambda: load_database(root), repeats)
        check(len(loaded) == len(database), "A11: the strict load lost images")
        salvage_s, (salvaged, report) = best_of(
            lambda: load_database(root, salvage=True), repeats
        )
        check(
            report.clean and len(salvaged) == len(database),
            "A11: a salvage load of an intact root was not clean",
        )
        on_disk = sum(p.stat().st_size for p in root.rglob("*") if p.is_file())
    row = ("v3 segments", f"{1e3 * save_s:.1f}", f"{1e3 * load_s:.1f}",
           f"{1e3 * salvage_s:.1f}", f"{on_disk:,}")
    run.write(
        "persistence.txt",
        f"Durability overhead (helmet database, {summary['binary_images']} binary + "
        f"{summary['edited_images']} edited images)\n\n"
        + format_table(("format", "save ms", "load ms", "salvage ms", "bytes on disk"), [row]),
    )


# -- the all-bins BOUNDS kernel ---------------------------------------------


class _DictStore:
    def __init__(self) -> None:
        self.records: Dict[str, object] = {}

    def lookup_for_bounds(self, image_id: str) -> object:
        if image_id not in self.records:
            raise UnknownObjectError(image_id)
        return self.records[image_id]


_KERNEL_SEQUENCE_LENGTH = 5


def _kernel_corpus(seed: int, bins: int, images: int, validate: bool):
    """Random edit sequences over one base; every fourth chains on the
    previous edited image.  ``validate`` redraws a sequence until it
    computes, so a large timing loop never hits a failing one."""
    rng = np.random.default_rng(seed)
    quantizer = UniformQuantizer({8: 2, 64: 4, 512: 8}[bins], "rgb")
    store = _DictStore()
    colors = [tuple(int(v) for v in c) for c in FLAG_PALETTE]
    for image_id, (height, width) in (("base", (12, 14)), ("target", (6, 7))):
        image = random_palette_image(rng, height, width, FLAG_PALETTE)
        store.records[image_id] = (ColorHistogram.of_image(image, quantizer), height, width)
    probe = BoundsEngine(store, quantizer)
    edited_ids: List[str] = []
    for index in range(images):
        base_id = edited_ids[-1] if edited_ids and index % 4 == 0 else "base"
        image_id = f"e{index}"
        while True:
            store.records[image_id] = random_sequence(
                rng, base_id, 12, 14, colors, length=_KERNEL_SEQUENCE_LENGTH,
                merge_targets={"target": (6, 7)},
            )
            if not validate:
                break
            try:
                probe.bounds(image_id, 0)
                break
            except ReproError:
                continue
        edited_ids.append(image_id)
    return store, quantizer, edited_ids


def _kernel_paths(store, quantizer, edited_ids) -> Dict[str, Callable[[], object]]:
    """The four ways to fill every bin of every edited image."""

    def scalar() -> None:
        engine = BoundsEngine(store, quantizer)
        for image_id in edited_ids:
            for bin_index in range(quantizer.bin_count):
                engine.bounds(image_id, bin_index)

    def sweep_cold() -> object:  # includes compiling the op table
        return BoundsEngine(store, quantizer).bounds_all_bins_batch(edited_ids)

    # The steady state: the table persists across queries and absorbs
    # churn incrementally, so repeat sweeps never pay compilation.
    warm = BoundsEngine(store, quantizer)
    memo = BoundsEngine(store, quantizer, cache_enabled=True)
    return {
        "scalar": scalar,
        "batched_cold": sweep_cold,
        "batched": lambda: warm.bounds_all_bins_batch(edited_ids),
        "cached": lambda: memo.bounds_all_bins_batch(edited_ids),
    }


@section("bounds_kernel.txt", "bounds_kernel.json")
def bounds_kernel(run: Run) -> None:
    """The all-bins BOUNDS kernel: scalar per-bin loop vs columnar sweep vs memo hit.

    A quantizer sweep on a small corpus, and a large catalog at 64 bins
    whose scalar loop is timed on a fixed sample (the full loop would take
    minutes) and compared per image.  The warm sweep must be >= 5x the
    scalar loop at 64 bins on both.
    """
    edited, repeats = 24, run.size(3, 1)
    rows, sweep, speedups = [], [], {}
    for bins in run.size((8, 64, 512), (8, 64)):
        store, quantizer, edited_ids = _kernel_corpus(BENCH_SEED + 17, bins, edited, validate=False)
        timings = {
            path: best_of(fn, repeats)[0]
            for path, fn in _kernel_paths(store, quantizer, edited_ids).items()
        }
        speedups[bins] = timings["scalar"] / timings["batched"]
        sweep.append({"bins": bins, "edited_images": edited,
                      **{f"{path}_seconds": s for path, s in timings.items()}})
        rows.append(
            [bins, edited]
            + [f"{timings[p] * 1e3:.2f}" for p in ("scalar", "batched_cold", "batched")]
            + [f"{timings['cached'] * 1e3:.3f}", f"{speedups[bins]:.1f}x",
               f"{timings['scalar'] / timings['cached']:.0f}x"]
        )
    text = (
        "All-bins BOUNDS kernel: scalar per-bin loop vs columnar sweep\n"
        f"(corpus: {edited} random sequences of {_KERNEL_SEQUENCE_LENGTH} ops, "
        "chained bases + Merge targets;\n"
        " cold = sweep incl. op-table compile, warm = compiled table, "
        "memo hit = warm cache;\n speedups are over the scalar loop)\n\n"
        + format_table(
            ["bins", "edited", "scalar ms", "sweep cold ms", "sweep warm ms",
             "memo hit ms", "sweep speedup", "memo speedup"],
            rows,
        )
    )

    images = run.size(10_000, 1000)
    store, quantizer, edited_ids = _kernel_corpus(BENCH_SEED + 18, 64, images, validate=True)
    sample = edited_ids[:200]
    scalar = best_of(_kernel_paths(store, quantizer, sample)["scalar"], repeats)[0]
    paths = _kernel_paths(store, quantizer, edited_ids)
    cold = best_of(paths["batched_cold"], repeats)[0]
    warm = best_of(paths["batched"], repeats)[0]
    scalar_per_image = scalar / len(sample)
    large = {
        "images": images,
        "bins": 64,
        "sequence_length": _KERNEL_SEQUENCE_LENGTH,
        "timing_rounds": repeats,
        "scalar_sample_images": len(sample),
        "scalar_sample_seconds": scalar,
        "scalar_us_per_image": scalar_per_image * 1e6,
        "batched_cold_seconds": cold,
        "batched_warm_seconds": warm,
        "batched_cold_us_per_image": cold / images * 1e6,
        "batched_warm_us_per_image": warm / images * 1e6,
        "speedup_cold": scalar_per_image / (cold / images),
        "speedup_warm": scalar_per_image / (warm / images),
    }
    text += (
        "\n\nLarge catalog: one columnar sweep vs the scalar per-bin loop\n"
        f"({images} images x {_KERNEL_SEQUENCE_LENGTH} ops at 64 bins, warm-up then "
        f"best of {repeats}; scalar loop timed on the first {len(sample)} images)\n\n"
        + format_table(
            ("path", "seconds", "us/image", "speedup"),
            [
                (f"scalar loop ({len(sample)} images)", f"{scalar:.3f}",
                 f"{large['scalar_us_per_image']:.0f}", "1.0x"),
                ("sweep, cold (incl. compile)", f"{cold:.3f}",
                 f"{large['batched_cold_us_per_image']:.1f}", f"{large['speedup_cold']:.0f}x"),
                ("sweep, warm op table", f"{warm:.3f}",
                 f"{large['batched_warm_us_per_image']:.1f}", f"{large['speedup_warm']:.0f}x"),
            ],
        )
    )
    run.write("bounds_kernel.txt", text)
    run.write_json("bounds_kernel.json", {"bins_sweep": sweep, "large_catalog": large})
    check(
        speedups[64] >= 5.0,
        f"warm columnar sweep only {speedups[64]:.1f}x faster than the scalar loop at 64 bins",
    )
    run.full_size_gate(
        large["speedup_warm"] >= 5.0,
        f"warm columnar sweep {large['speedup_warm']:.1f}x faster per image than the "
        f"scalar loop on {images} images (>= 5x)",
    )


# -- what the observability plane costs -------------------------------------


#: Acceptance: full-plane p95 latency <= off p95 * (1 + this) + slack.
MAX_P95_OVERHEAD = 0.05
#: Absolute slack (seconds) absorbing scheduler noise on sub-ms queries.
P95_ABS_SLACK = 0.002
_OBS_SHARDS = 4
_OBS_CHURN_PER_ROUND = 3


def _obs_sequence(rng: np.random.Generator, base_id: str) -> EditSequence:
    ops: List[object] = []
    for _ in range(int(rng.integers(3, 8))):
        roll = int(rng.integers(0, 5))
        if roll == 0:
            ops.append(Define.of(1, 1, 8, 9))
        elif roll == 1:
            ops.append(Combine.box())
        elif roll == 2:
            old = FLAG_PALETTE[int(rng.integers(0, len(FLAG_PALETTE)))]
            new = FLAG_PALETTE[int(rng.integers(0, len(FLAG_PALETTE)))]
            ops.append(Modify(old, new))
        elif roll == 3:
            ops.append(Mutate.translation(int(rng.integers(-2, 3)), 1))
        else:
            ops.append(Merge(base_id, int(rng.integers(0, 3)), 1))
    return EditSequence(base_id, tuple(ops))


def _obs_pass(full: bool, binary: int, edited: int, rounds: int, queries: int, root: Path) -> Dict[str, object]:
    """One zipfian churn/query pass with the plane off or fully on."""
    rng = np.random.default_rng(BENCH_SEED + 90)
    base_ids = [f"flag-{index:04d}" for index in range(binary)]
    catalog = ShardedCatalog(_OBS_SHARDS, root=root)
    try:
        set_tracing(full)
        monitor = HealthMonitor(catalog) if full else None
        if not full:
            catalog.events.set_enabled(False)
        for image_id in base_ids:
            catalog.insert_image(random_palette_image(rng, 10, 12, FLAG_PALETTE), image_id=image_id)
        for index in range(edited):
            sequence = _obs_sequence(rng, base_ids[index % len(base_ids)])
            catalog.insert_edited(sequence, image_id=f"edit-{index:04d}")
        rng = np.random.default_rng(BENCH_SEED + 91)
        weights = 1.0 / np.arange(1, len(base_ids) + 1)
        weights /= weights.sum()
        latencies, matches, checked = [], [], 0
        for _ in range(rounds):
            for _ in range(_OBS_CHURN_PER_ROUND):
                victim = base_ids[int(rng.choice(len(base_ids), p=weights))]
                catalog.update_image(victim, random_palette_image(rng, 10, 12, FLAG_PALETTE))
            for _ in range(queries):
                bin_index = int(rng.integers(0, catalog.quantizer.bin_count))
                pct_min = float(rng.uniform(0.0, 0.3))
                query = RangeQuery(bin_index, pct_min, pct_min + 0.4)
                started = time.perf_counter()
                result = catalog.range_query(query, method="rbm")
                latencies.append(time.perf_counter() - started)
                matches.append(result.matches)
                checked += result.stats.histograms_checked
            if monitor is not None:
                monitor.report()
        counters = catalog.metrics_snapshot()["counters"]
        return {
            "latencies": sorted(latencies),
            "matches": matches,
            "histograms_checked": checked,
            "events_emitted": int(catalog.events.stats()["emitted"]),
            "spans_folded": int(sum(v for n, v in counters.items() if n.startswith("spans."))),
        }
    finally:
        set_tracing(False)
        catalog.close()


@section("BENCH_observability.txt", "BENCH_observability.json")
def observability(run: Run) -> None:
    """What the fleet plane costs when it is on: tracing, wide events, health.

    Both modes run the identical workload on fresh roots, interleaved
    (off, full, off, full, ...) so a background hiccup hits both sides
    alike; each mode keeps its best p95.  The full plane's p95 must stay
    within ``MAX_P95_OVERHEAD`` plus ``P95_ABS_SLACK`` of the plane off
    (queries here are sub-millisecond, where a relative-only bound just
    measures scheduler noise), and no answer may change.
    """
    scale = run.size(1.0, 0.5)
    rounds, queries, repeats = run.size(8, 4), run.size(6, 4), run.size(3, 2)
    binary, edited = max(4, int(20 * scale)), max(4, int(40 * scale))
    passes: Dict[str, List[Dict[str, object]]] = {"off": [], "full": []}
    with tempfile.TemporaryDirectory() as scratch:
        for repeat in range(repeats):
            for mode in ("off", "full"):
                root = Path(scratch) / f"{mode}-{repeat}"
                passes[mode].append(_obs_pass(mode == "full", binary, edited, rounds, queries, root))

    reference = passes["off"][0]["matches"]
    check(
        all(p["matches"] == reference for mode in passes.values() for p in mode),
        "observability changed a query answer",
    )
    check(
        all(p["histograms_checked"] > 0 for mode in passes.values() for p in mode),
        "a pass checked no histogram",
    )
    stats = {}
    for mode, runs in passes.items():
        per_pass = [
            {
                "count": len(p["latencies"]),
                "p50": percentile(p["latencies"], 0.50),
                "p95": percentile(p["latencies"], 0.95),
                "p99": percentile(p["latencies"], 0.99),
                "mean": float(np.mean(p["latencies"])),
            }
            for p in runs
        ]
        stats[mode] = {
            "best": min(per_pass, key=lambda s: s["p95"]),
            "per_pass_p95": [s["p95"] for s in per_pass],
            "events_emitted": runs[-1]["events_emitted"],
            "spans_folded": runs[-1]["spans_folded"],
        }
    off, full = stats["off"]["best"], stats["full"]["best"]
    check(off["count"] == full["count"] == rounds * queries, "a pass lost queries")
    # The plane must actually have been on in full mode, and off in off mode.
    check(stats["full"]["spans_folded"] > 0, "full mode folded no spans")
    check(stats["full"]["events_emitted"] > 0, "full mode emitted no events")
    check(stats["off"]["spans_folded"] == 0, "off mode folded spans")
    check(stats["off"]["events_emitted"] == 0, "off mode emitted events")

    budget = off["p95"] * (1.0 + MAX_P95_OVERHEAD) + P95_ABS_SLACK
    overhead = full["p95"] / off["p95"] - 1.0 if off["p95"] > 0 else 0.0
    rows = [
        (mode, s["count"], *(f"{s[k] * 1e3:.3f}" for k in ("p50", "p95", "p99", "mean")),
         stats[mode]["events_emitted"], stats[mode]["spans_folded"])
        for mode, s in (("off", off), ("full", full))
    ]
    run.write(
        "BENCH_observability.txt",
        format_table(
            ("plane", "queries", "p50 ms", "p95 ms", "p99 ms", "mean ms", "events", "spans"),
            rows,
        )
        + f"\n\nfull-plane p95 overhead: {overhead:+.1%} "
        f"(budget {MAX_P95_OVERHEAD:.0%} + {P95_ABS_SLACK * 1e3:.0f}ms slack)",
    )
    run.write_json(
        "BENCH_observability.json",
        {
            "scale": scale,
            "rounds": rounds,
            "queries_per_round": queries,
            "churn_per_round": _OBS_CHURN_PER_ROUND,
            "repeats": repeats,
            "shard_count": _OBS_SHARDS,
            "binary_count": binary,
            "edited_count": edited,
            "max_p95_overhead": MAX_P95_OVERHEAD,
            "p95_abs_slack_seconds": P95_ABS_SLACK,
            "tracing_off": off,
            "tracing_full": full,
            "per_pass_p95": {mode: stats[mode]["per_pass_p95"] for mode in stats},
            "p95_overhead": overhead,
            "events_emitted_full": stats["full"]["events_emitted"],
            "spans_folded_full": stats["full"]["spans_folded"],
        },
    )
    check(
        full["p95"] <= budget,
        f"full-observability p95 {full['p95'] * 1e3:.3f}ms exceeds budget "
        f"{budget * 1e3:.3f}ms (off p95 {off['p95'] * 1e3:.3f}ms, overhead {overhead:.1%})",
    )


# -- the command ------------------------------------------------------------


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.paper",
        description="Regenerate the paper's tables, figures and ablations under "
        "benchmarks/results/ and check the claims they print.",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fixed sizes, written under benchmarks/results/smoke/; "
        "gates that hold only at full size are skipped and named",
    )
    parser.add_argument("--only", help="comma-separated sections: " + ", ".join(SECTIONS))
    args = parser.parse_args(argv)
    names = [n.strip() for n in args.only.split(",") if n.strip()] if args.only else list(SECTIONS)
    unknown = [name for name in names if name not in SECTIONS]
    if unknown:
        parser.error(f"unknown section(s) {', '.join(unknown)}; choose from {', '.join(SECTIONS)}")

    run = Run(RESULTS_DIR / "smoke" if args.smoke else RESULTS_DIR, smoke=args.smoke)
    failed = []
    started = time.perf_counter()
    for name in names:
        fn, artifacts = SECTIONS[name]
        run.written.clear()
        section_started = time.perf_counter()
        try:
            fn(run)
            check(
                run.written == set(artifacts),
                f"wrote {sorted(run.written)}, declared {sorted(artifacts)}",
            )
        except (CheckFailed, ReproError) as exc:
            failed.append(name)
            print(f"FAIL {name}: {exc}", file=sys.stderr)
            continue
        print(f"ok   {name:<24} {time.perf_counter() - section_started:6.1f}s  "
              + ", ".join(str((run.out / a).relative_to(ROOT)) for a in artifacts))
    print(
        f"{len(names) - len(failed)} of {len(names)} sections passed in "
        f"{time.perf_counter() - started:.1f}s"
        + (f"; {len(run.skipped)} full-size gates skipped under --smoke" if run.skipped else "")
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
