"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the workflow of the paper's prototype:

``build``     generate a flag/helmet database and save it to a directory
``info``      structure summary and storage accounting of a saved database
``query``     run a text query ("at least 25% blue") against a saved database
``knn``       nearest neighbors of a ppm image against a saved database
``check``     the catalog checker: every integrity problem of a saved
              database, by code (DB001–DB004, DB008, DB009); a sharded
              root (``shards.json`` present) is checked per shard plus
              the DB007 routing check
``repair``    fix reparable integrity problems and re-save
``salvage``   recover the undamaged records of a corrupted database
              (re-saving in place upgrades an older on-disk format)
``explain``   EXPLAIN (and with ``--analyze``, EXPLAIN ANALYZE) a query:
              the plan's strategy, executed actuals, prune
              attribution, and the span tree
``serve-stats`` drive a query workload through the concurrent service
              and report the strategies run plus service metrics
              (``--prometheus`` for text exposition, ``--slow`` for the
              queries at or over ``--slow-threshold`` in the service's
              event ring, ``--trace-out`` for a Chrome trace file)
``lint``      run the concurrency/numeric-discipline AST linter (AL
              rules only) over a source tree (default: the installed
              ``repro`` package); an unknown ``--rule`` is a usage error
``race-check`` drive the instrumented concurrency scenarios (metrics,
              events, service, sharded) under the dynamic checker:
              CC004 data races (Eraser lockset) and CC001 cycles in
              the lock order the scenarios observed
``shards``    inspect a sharded catalog root (``--status``) or run one
              synchronous compaction cycle first (``--compact-now``)
``top``       live fleet dashboard over a sharded root: per-shard
              health verdicts, hottest shards, slowest recent queries
              (with trace ids), and recent compactions
              (``--queries N`` to drive a warmup workload first,
              ``--json`` for the payload, ``--prometheus`` for the
              validated unified exposition)
``events``    dump or follow the structured wide-event log
              (``events.jsonl``) of a sharded root
``prove-rules`` prove every classified bound-widening rule monotone on
              the percentage interval and the scalar/columnar kernels
              byte-identical (``--mode full`` for the larger corpus)

Exit codes are uniform across the integrity-facing commands (``check``,
``repair``, ``salvage``, ``lint``, ``race-check``, ``prove-rules``):
**0** clean (or fully healed/recovered), **2** problems remain or the
input is unrecoverably corrupt, **1** any other library or usage error.

The global ``-v/--verbose`` flag attaches a stderr handler to the
``repro`` logger (once for INFO, twice for DEBUG), surfacing salvage,
repair, and load-shedding warnings that are otherwise
silent under the library's ``NullHandler``.

All commands are plain functions over the public API, so they double as
integration smoke tests (see ``tests/test_cli.py``).
"""

from __future__ import annotations

import argparse
import logging
import sys
from collections import Counter
from typing import List, Optional

import numpy as np

from repro.db.persistence import load_database, save_database
from repro.errors import CorruptionError, ReproError, SalvageError
from repro.images.ppm import read_ppm
from repro.workloads.datasets import build_database
from repro.workloads.table2 import FLAG_PARAMETERS, HELMET_PARAMETERS

_DATASETS = {"flag": FLAG_PARAMETERS, "helmet": HELMET_PARAMETERS}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Color-based retrieval over edit-sequence image storage "
        "(Brown & Gruenwald, ICDE 2006 reproduction)",
    )
    parser.add_argument(
        "--verbose", "-v", action="count", default=0,
        help="log library warnings/info to stderr (-vv for debug)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", help="generate and save a database")
    build.add_argument("directory", help="output directory")
    build.add_argument("--dataset", choices=sorted(_DATASETS), default="flag")
    build.add_argument("--scale", type=float, default=0.2,
                       help="Table 2 scale factor (default 0.2)")
    build.add_argument("--seed", type=int, default=2006)
    build.add_argument("--edited-percentage", type=float, default=None,
                       help="override the binary/edited split (0-100)")

    info = commands.add_parser("info", help="summarize a saved database")
    info.add_argument("directory")
    info.add_argument("--storage", action="store_true",
                      help="include the instantiated-raster comparison (slow)")

    query = commands.add_parser("query", help="run a text query")
    query.add_argument("directory")
    query.add_argument("text", help='e.g. "at least 25%% blue"')
    query.add_argument("--method", choices=("bwm", "rbm", "instantiate"),
                       default="bwm")
    query.add_argument("--expand", action="store_true",
                       help="also return bases of matching edited images")

    knn = commands.add_parser("knn", help="nearest neighbors of a ppm image")
    knn.add_argument("directory")
    knn.add_argument("image", help="query image (ppm/pgm file)")
    knn.add_argument("-k", type=int, default=5)
    knn.add_argument("--method", choices=("binary", "exact", "bounded", "intersection"),
                     default="bounded")

    check = commands.add_parser(
        "check", help="report every integrity problem of a saved database"
    )
    check.add_argument("directory")
    check.add_argument("--fast", action="store_true",
                       help="skip histogram recomputation")
    check.add_argument("--json", action="store_true",
                       help="emit the findings as JSON")

    repair = commands.add_parser(
        "repair", help="fix reparable integrity problems and re-save"
    )
    repair.add_argument("directory")
    repair.add_argument("--fast", action="store_true",
                        help="skip histogram recomputation")
    repair.add_argument("--dry-run", action="store_true",
                        help="report fixes without writing anything")

    salvage = commands.add_parser(
        "salvage", help="recover the undamaged records of a corrupted database"
    )
    salvage.add_argument("directory")
    salvage.add_argument("--output", "-o", default=None,
                         help="write the recovered database here instead of "
                         "back into the source directory")

    explain = commands.add_parser(
        "explain",
        help="show the plan for a query; --analyze also executes "
        "it and reports actuals, prune attribution, and the trace",
    )
    explain.add_argument("directory")
    explain.add_argument("text", help='e.g. "at least 25%% blue"')
    explain.add_argument("--analyze", action="store_true",
                         help="execute the plan and attach actuals "
                         "(EXPLAIN ANALYZE)")
    explain.add_argument("--strategy",
                         choices=("bwm", "vectorized_batch", "index_assisted"),
                         default=None,
                         help="force a strategy instead of the fixed plan "
                         "(vectorized_batch)")
    explain.add_argument("--no-attribution", action="store_true",
                         help="skip the per-image prune attribution pass")
    explain.add_argument("--json", action="store_true",
                         help="emit the plan (and actuals/trace) as JSON")

    serve = commands.add_parser(
        "serve-stats",
        help="run a query workload through the concurrent query service "
        "and print the strategies run plus service metrics",
    )
    serve.add_argument("directory")
    serve.add_argument("--queries", type=int, default=24,
                       help="workload size (default 24)")
    serve.add_argument("--workers", type=int, default=4,
                       help="thread-pool size (default 4)")
    serve.add_argument("--seed", type=int, default=2006)
    serve.add_argument("--json", action="store_true",
                       help="emit the metrics snapshot as JSON "
                       "(deterministic: keys are sorted)")
    serve.add_argument("--prometheus", action="store_true",
                       help="emit the metrics in Prometheus text "
                       "exposition format instead")
    serve.add_argument("--slow", action="store_true",
                       help="list the workload's slow queries afterwards")
    serve.add_argument("--slow-threshold", type=float, default=0.0,
                       metavar="SECONDS",
                       help="with --slow, list the queries at or over this "
                       "many seconds (default 0: every retained query)")
    serve.add_argument("--trace", action="store_true",
                       help="enable span tracing for the workload")
    serve.add_argument("--trace-out", default=None, metavar="FILE",
                       help="write the collected traces as a Chrome "
                       "trace_event JSON file (implies --trace)")

    lint = commands.add_parser(
        "lint",
        help="run the concurrency/numeric-discipline AST linter",
    )
    lint.add_argument("paths", nargs="*", default=None,
                      help="files or directories to lint (default: the "
                      "installed repro package)")
    lint.add_argument("--rule", action="append", default=None, metavar="CODE",
                      help="restrict to specific rule codes (repeatable)")
    lint.add_argument("--json", action="store_true",
                      help="emit the findings as JSON")

    race = commands.add_parser(
        "race-check",
        help="run the lockset race detector and lock-order check over "
        "instrumented scenarios",
    )
    race.add_argument("scenarios", nargs="*", default=None,
                      help="scenario names to run (default: all of "
                      "metrics, events, service, sharded)")
    race.add_argument("--json", action="store_true",
                      help="emit the findings as JSON")

    shards = commands.add_parser(
        "shards",
        help="inspect or compact a sharded catalog root",
    )
    shards.add_argument("directory")
    shards.add_argument("--status", action="store_true",
                        help="report per-shard record counts, versions, "
                        "served queries, and materializations (default "
                        "action)")
    shards.add_argument("--compact-now", action="store_true",
                        help="run one synchronous compaction cycle before "
                        "reporting")
    shards.add_argument("--min-ops", type=int, default=2, metavar="N",
                        help="compaction policy: minimum sequence length "
                        "worth materializing (default 2)")
    shards.add_argument("--max-per-cycle", type=int, default=4, metavar="N",
                        help="compaction policy: materializations per "
                        "cycle (default 4)")
    shards.add_argument("--json", action="store_true",
                        help="emit the status (and compaction report) as "
                        "JSON")

    top = commands.add_parser(
        "top",
        help="live fleet dashboard over a sharded catalog root: health "
        "verdicts, hottest shards, slowest queries, recent compactions",
    )
    top.add_argument("directory")
    top.add_argument("--queries", type=int, default=0, metavar="N",
                     help="drive N warmup text queries through the "
                     "catalog first, so a freshly opened root has "
                     "latency and work-unit distributions to show")
    top.add_argument("--iterations", type=int, default=1, metavar="N",
                     help="dashboard frames to render (default 1; "
                     "pair with --interval to watch live)")
    top.add_argument("--interval", type=float, default=2.0,
                     metavar="SECONDS",
                     help="seconds between frames (default 2)")
    top.add_argument("--json", action="store_true",
                     help="emit the dashboard payload as JSON instead "
                     "of the rendered table")
    top.add_argument("--prometheus", action="store_true",
                     help="emit (and validate) the unified Prometheus "
                     "exposition for the whole fleet instead; exit 2 "
                     "if the exposition fails validation")

    events = commands.add_parser(
        "events",
        help="dump or follow the structured wide-event log of a "
        "sharded catalog root",
    )
    events.add_argument("directory")
    events.add_argument("--limit", type=int, default=None, metavar="N",
                        help="show only the most recent N events")
    events.add_argument("--kind", default=None, metavar="KIND",
                        help="show only events of this kind "
                        "(e.g. wal.append, compaction.materialized)")
    events.add_argument("--json", action="store_true",
                        help="emit the events as a JSON array")
    events.add_argument("--follow", action="store_true",
                        help="keep polling the log and print events as "
                        "they are appended (Ctrl-C to stop)")
    events.add_argument("--poll", type=float, default=0.5,
                        metavar="SECONDS",
                        help="polling interval for --follow "
                        "(default 0.5)")
    events.add_argument("--max-polls", type=int, default=None,
                        metavar="N",
                        help="stop --follow after N polls (default: "
                        "run until interrupted)")

    prove = commands.add_parser(
        "prove-rules",
        help="prove the Table 1 bound-widening rules monotone and the "
        "scalar/columnar kernels identical",
    )
    prove.add_argument("--mode", choices=("fast", "full"), default="fast",
                       help="corpus size (full adds more random states and "
                       "operation variants)")
    prove.add_argument("--seed", type=int, default=2006)
    prove.add_argument("--json", action="store_true",
                       help="emit verdicts and findings as JSON")
    return parser


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def _cmd_build(args: argparse.Namespace, out) -> int:
    params = _DATASETS[args.dataset].scaled(args.scale)
    rng = np.random.default_rng(args.seed)
    database = build_database(
        params, rng, edited_percentage=args.edited_percentage
    )
    root = save_database(database, args.directory)
    summary = database.structure_summary()
    print(f"built {args.dataset} database at {root}", file=out)
    for key, value in summary.items():
        print(f"  {key}: {value}", file=out)
    return 0


def _cmd_info(args: argparse.Namespace, out) -> int:
    database = load_database(args.directory)
    print(f"quantizer: {database.quantizer.describe()}", file=out)
    for key, value in database.structure_summary().items():
        print(f"  {key}: {value}", file=out)
    report = database.storage_report(include_instantiated=args.storage)
    print(report.describe(), file=out)
    return 0


def _cmd_query(args: argparse.Namespace, out) -> int:
    database = load_database(args.directory)
    result = database.text_query(
        args.text, method=args.method, expand_to_bases=args.expand
    )
    print(f"{len(result)} matches ({args.method}):", file=out)
    for image_id in result.sorted_ids():
        print(f"  {image_id}", file=out)
    print(
        f"work: {result.stats.histograms_checked} histograms, "
        f"{result.stats.bounds_computed} BOUNDS, "
        f"{result.stats.rules_applied} rules",
        file=out,
    )
    return 0


def _cmd_knn(args: argparse.Namespace, out) -> int:
    database = load_database(args.directory)
    query_image = read_ppm(args.image)
    result = database.knn(query_image, args.k, method=args.method)
    print(f"{len(result.neighbors)} nearest neighbors ({args.method}):", file=out)
    for score, image_id in result.neighbors:
        print(f"  {image_id}  {score:.4f}", file=out)
    return 0


def _cmd_check(args: argparse.Namespace, out) -> int:
    import json
    from pathlib import Path

    from repro.analysis import AnalysisReport, Finding, Severity
    from repro.shard import SHARD_MANIFEST_NAME, ShardedCatalog

    recompute = not args.fast
    try:
        if (Path(args.directory) / SHARD_MANIFEST_NAME).is_file():
            with ShardedCatalog.open(args.directory) as sharded:
                report = AnalysisReport(
                    "sharded-catalog", subjects_examined=len(sharded)
                )
                problems = sharded.verify_integrity(recompute)
        else:
            database = load_database(args.directory)
            report = AnalysisReport("catalog", subjects_examined=len(database))
            problems = database.verify_integrity(recompute)
    except CorruptionError as exc:
        # Damaged files are salvage's job: exit 2, as repair does.
        print(f"unrecoverable corruption: {exc}", file=sys.stderr)
        print("hint: try `repro salvage` to recover undamaged records",
              file=sys.stderr)
        return 2
    report.extend(
        Finding(p.code, Severity.ERROR, p.location, p.message) for p in problems
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True), file=out)
    else:
        print(report.describe(), file=out)
    return 0 if report.ok else 2


def _cmd_repair(args: argparse.Namespace, out) -> int:
    try:
        database = load_database(args.directory)
    except CorruptionError as exc:
        # repair fixes *catalog-level* problems in a loadable database;
        # damaged files are salvage's job.  Exit 2 = unrecoverable here.
        print(f"unrecoverable corruption: {exc}", file=sys.stderr)
        print("hint: try `repro salvage` to recover undamaged records",
              file=sys.stderr)
        return 2
    report = database.repair(recompute_histograms=not args.fast)
    print(report.describe(), file=out)
    if report.actions and not args.dry_run:
        save_database(database, args.directory)
        print(f"re-saved repaired database at {args.directory}", file=out)
    return 0 if report.clean else 2


def _cmd_salvage(args: argparse.Namespace, out) -> int:
    try:
        database, report = load_database(args.directory, salvage=True)
    except SalvageError as exc:
        print(f"unrecoverable corruption: {exc}", file=sys.stderr)
        return 2
    print(report.describe(), file=out)
    target = args.output if args.output is not None else args.directory
    save_database(database, target)
    print(
        f"saved salvaged database ({database.catalog.binary_count} binary + "
        f"{database.catalog.edited_count} edited images) at {target}",
        file=out,
    )
    return 0 if report.clean else 2


def _cmd_explain(args: argparse.Namespace, out) -> int:
    import json

    from repro.service import QueryService

    database = load_database(args.directory)
    with QueryService(database, max_workers=1) as service:
        if not args.analyze:
            plans = service.explain(args.text, strategy=args.strategy)
            if args.json:
                payload = [plan.to_dict() for plan in plans]
                print(json.dumps(payload, indent=2, sort_keys=True), file=out)
            else:
                for plan in plans:
                    print(plan.describe(), file=out)
            return 0
        analyzed = service.explain_analyze(
            args.text,
            strategy=args.strategy,
            with_attribution=not args.no_attribution,
        )
    if args.json:
        print(
            json.dumps(analyzed.to_dict(), indent=2, sort_keys=True), file=out
        )
    else:
        print(analyzed.describe(), file=out)
    return 0


def _cmd_serve_stats(args: argparse.Namespace, out) -> int:
    import json

    from repro.obs import to_chrome_trace, tracing
    from repro.service import QueryService
    from repro.workloads.queries import make_query_workload

    database = load_database(args.directory)
    rng = np.random.default_rng(args.seed)
    queries = make_query_workload(database, rng, args.queries)
    trace_on = args.trace or args.trace_out is not None
    with QueryService(database, max_workers=args.workers) as service:
        with tracing(trace_on):
            futures = [service.submit(query) for query in queries]
            outcomes = [future.result() for future in futures]
        plan_counts = Counter(
            plan.strategy.value for outcome in outcomes for plan in outcome.plans
        )
        snapshot = service.metrics_snapshot()
        exposition = service.prometheus_metrics() if args.prometheus else None
        slow_dump = None
        if args.slow:
            slow = service.slow_queries(args.slow_threshold)
            slow_dump = "\n".join(
                [f"slow queries: {len(slow)} at or over {args.slow_threshold}s"]
                + [f"  {event.describe()}" for event in slow]
            )
    if args.trace_out is not None:
        traces = [o.trace for o in outcomes if o.trace is not None]
        with open(args.trace_out, "w") as handle:
            json.dump(to_chrome_trace(traces), handle)
        print(
            f"wrote {len(traces)} query traces to {args.trace_out}", file=out
        )
    if exposition is not None:
        print(exposition, file=out, end="")
        if slow_dump is not None:
            print(slow_dump, file=out)
        return 0
    snapshot["plan_counts"] = dict(sorted(plan_counts.items()))
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True), file=out)
        if slow_dump is not None:
            print(slow_dump, file=out)
        return 0
    print(
        f"served {len(outcomes)} queries on {args.workers} workers "
        f"({sum(1 for o in outcomes if o.cache_hit)} cache hits)",
        file=out,
    )
    print("plans chosen:", file=out)
    for strategy, count in sorted(plan_counts.items()):
        print(f"  {strategy}: {count}", file=out)
    latency = snapshot["histograms"].get("query_seconds")
    if latency:
        print(
            f"latency: mean {latency['mean'] * 1e3:.2f}ms  "
            f"p50 {latency['p50'] * 1e3:.2f}ms  "
            f"p95 {latency['p95'] * 1e3:.2f}ms  "
            f"p99 {latency['p99'] * 1e3:.2f}ms",
            file=out,
        )
    for group in ("counters", "result_cache", "bounds_cache", "events"):
        print(f"{group}:", file=out)
        for key, value in sorted(snapshot[group].items()):
            print(f"  {key}: {value}", file=out)
    if slow_dump is not None:
        print(slow_dump, file=out)
    return 0


def _cmd_lint(args: argparse.Namespace, out) -> int:
    import json
    from pathlib import Path

    from repro.analysis import LINT_RULES, lint_paths

    unknown = sorted(set(args.rule or ()) - set(LINT_RULES))
    if unknown:
        print(
            f"error: unknown lint rule(s) {', '.join(unknown)}; have "
            f"{', '.join(sorted(LINT_RULES))}",
            file=sys.stderr,
        )
        return 1
    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        import repro

        paths = [Path(repro.__file__).parent]
    report = lint_paths(paths, rules=args.rule)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True), file=out)
    else:
        print(report.describe(), file=out)
    return 0 if report.ok else 2


def _cmd_race_check(args: argparse.Namespace, out) -> int:
    import json

    from repro.testing.racecheck import run_race_check

    try:
        report = run_race_check(args.scenarios or None)
    except Exception as exc:  # an unknown scenario, or a worker raised or hung
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True), file=out)
    else:
        print(report.describe(), file=out)
    return 0 if report.ok else 2


def _cmd_shards(args: argparse.Namespace, out) -> int:
    import json

    from repro.shard import CompactionPolicy, Compactor, ShardedCatalog

    with ShardedCatalog.open(args.directory) as sharded:
        compaction_report = None
        if args.compact_now:
            compactor = Compactor(
                sharded,
                CompactionPolicy(
                    min_ops=args.min_ops,
                    max_per_cycle=args.max_per_cycle,
                    min_score=0.0,
                    require_demand=False,
                ),
            )
            report = compactor.run_once()
            compaction_report = {
                "candidates_considered": report.candidates_considered,
                "materialized": list(report.materialized),
                "skipped_stale": report.skipped_stale,
                "projected_saving": report.projected_saving,
            }
        status = sharded.status()
        if args.json:
            payload = dict(status)
            if compaction_report is not None:
                payload["compaction"] = compaction_report
            print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        else:
            print(sharded.describe_status(), file=out)
            if compaction_report is not None:
                print(
                    f"compaction: {len(compaction_report['materialized'])} "
                    f"materialized of "
                    f"{compaction_report['candidates_considered']} "
                    f"candidate(s), {compaction_report['skipped_stale']} "
                    f"stale",
                    file=out,
                )
    return 0


#: Text queries `repro top --queries N` cycles through to warm a root.
_TOP_WARMUP_QUERIES = (
    "at least 10% red",
    "at least 25% blue",
    "at least 10% green",
    "at least 50% red",
)


def _cmd_top(args: argparse.Namespace, out) -> int:
    import json
    import time as _time

    from repro.obs import (
        HealthMonitor,
        render_top,
        top_payload,
        validate_exposition,
    )
    from repro.shard import ShardedCatalog

    with ShardedCatalog.open(args.directory) as sharded:
        for index in range(max(0, args.queries)):
            text = _TOP_WARMUP_QUERIES[index % len(_TOP_WARMUP_QUERIES)]
            sharded.text_query(text)
        monitor = HealthMonitor(sharded)
        for iteration in range(max(1, args.iterations)):
            if iteration:
                _time.sleep(args.interval)
            report = monitor.report()
            if args.prometheus:
                exposition = sharded.prometheus_metrics()
                print(exposition, file=out, end="")
                problems = validate_exposition(exposition)
                if problems:
                    for problem in problems:
                        print(f"invalid exposition: {problem}",
                              file=sys.stderr)
                    return 2
            elif args.json:
                print(
                    json.dumps(
                        top_payload(sharded, report),
                        indent=2,
                        sort_keys=True,
                    ),
                    file=out,
                )
            else:
                print(render_top(sharded, report), file=out, end="")
    return 0


def _cmd_events(args: argparse.Namespace, out) -> int:
    import json
    import time as _time
    from pathlib import Path

    from repro.obs.events import EVENTS_NAME, Event, read_events_jsonl

    path = Path(args.directory)
    if path.is_dir():
        path = path / EVENTS_NAME

    def emit(event: Event) -> None:
        if args.json:
            print(json.dumps(event.to_dict(), sort_keys=True), file=out)
        else:
            print(event.describe(), file=out)

    events = read_events_jsonl(path)
    if args.kind is not None:
        events = [event for event in events if event.kind == args.kind]
    if args.limit is not None:
        events = events[-max(0, args.limit):]
    if args.json and not args.follow:
        payload = [event.to_dict() for event in events]
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    else:
        for event in events:
            emit(event)
    if not args.follow:
        return 0
    # Follow mode: poll for appended events by sequence number — seq is
    # monotone per log, so a reopened file never replays old lines.
    last_seq = events[-1].seq if events else 0
    polls = 0
    try:
        while args.max_polls is None or polls < args.max_polls:
            _time.sleep(max(0.01, args.poll))
            polls += 1
            for event in read_events_jsonl(path):
                if event.seq <= last_seq:
                    continue
                if args.kind is None or event.kind == args.kind:
                    emit(event)
                last_seq = event.seq
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_prove_rules(args: argparse.Namespace, out) -> int:
    import json

    from repro.analysis import prove_rules

    result = prove_rules(mode=args.mode, seed=args.seed)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True), file=out)
    else:
        print(result.verdict_table(), file=out)
        print(file=out)
        print(result.report.describe(), file=out)
    return 0 if result.ok else 2


_COMMANDS = {
    "build": _cmd_build,
    "check": _cmd_check,
    "repair": _cmd_repair,
    "salvage": _cmd_salvage,
    "info": _cmd_info,
    "query": _cmd_query,
    "knn": _cmd_knn,
    "explain": _cmd_explain,
    "serve-stats": _cmd_serve_stats,
    "lint": _cmd_lint,
    "race-check": _cmd_race_check,
    "prove-rules": _cmd_prove_rules,
    "shards": _cmd_shards,
    "top": _cmd_top,
    "events": _cmd_events,
}


def _configure_logging(verbosity: int) -> None:
    """Attach a stderr handler to the package logger for ``-v``.

    The library itself only ever adds a ``NullHandler`` (standard
    library etiquette); the CLI is the application, so it decides where
    log output goes.  Idempotent: re-entry (tests call ``main`` many
    times) only adjusts the level.
    """
    if not verbosity:
        return
    logger = logging.getLogger("repro")
    logger.setLevel(logging.DEBUG if verbosity > 1 else logging.INFO)
    if not any(
        isinstance(h, logging.StreamHandler)
        and not isinstance(h, logging.NullHandler)
        for h in logger.handlers
    ):
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        logger.addHandler(handler)


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.verbose)
    try:
        return _COMMANDS[args.command](args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output was piped into a consumer that closed early (e.g.
        # ``| head``): the Unix convention is to exit quietly.  Redirect
        # stdout to devnull so the interpreter's shutdown flush does not
        # trip over the closed pipe.
        import os

        try:
            sys.stdout = open(os.devnull, "w")  # noqa: SIM115 - lives to exit
        except OSError:
            pass
        return 0
