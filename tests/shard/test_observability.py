"""The fleet observability plane, end to end on a real ShardedCatalog:

connected cross-shard traces, WAL lineage attributable by LSN, a
compaction cycle joined by its trace id, the wide-event timeline,
health over live signals, the unified exposition, and the ``repro top``
renderer.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.query import RangeQuery
from repro.errors import DatabaseError
from repro.obs import (
    HealthMonitor,
    render_top,
    top_payload,
    tracing,
    validate_exposition,
)
from repro.obs.events import EVENTS_NAME, Event, read_events_jsonl
from repro.shard import CompactionPolicy, Compactor, ShardedCatalog
from repro.shard import sharded as sharded_module

from tests.shard.conftest import (
    build_mirrored_pair,
    random_image,
    random_sequence,
)


@pytest.fixture
def rng():
    return np.random.default_rng(2006)


def _span_names(span):
    yield span.name
    for child in span.children:
        yield from _span_names(child)


class TestConnectedTraces:
    def test_scatter_gather_query_produces_one_connected_trace(self, rng):
        sharded, _, _ = build_mirrored_pair(rng, shard_count=3)
        collected = []
        with tracing():
            from repro.obs.trace import Tracer

            original_finish = Tracer.finish

            def capture(tracer):
                collected.append(tracer.root)
                return original_finish(tracer)

            Tracer.finish = capture
            try:
                sharded.range_query(RangeQuery(0, 0.1, 0.9))
            finally:
                Tracer.finish = original_finish
        sharded.close()
        assert len(collected) == 1
        root = collected[0]
        assert root.name == "sharded_query"
        assert root.attributes["kind"] == "range_query"
        assert str(root.attributes["trace_id"]).startswith("trace-")
        names = list(_span_names(root))
        assert "fanout" in names
        assert "merge" in names
        assert names.count("shard.execute") == 3
        fanout = next(c for c in root.children if c.name == "fanout")
        executes = [
            c for c in fanout.children if c.name == "shard.execute"
        ]
        assert [span.attributes["shard"] for span in executes] == [0, 1, 2]
        for span in executes:
            children = [child.name for child in span.children]
            assert children == ["lock-wait", "run"]
            assert span.attributes["lock_wait_seconds"] >= 0.0

    def test_untraced_query_pays_no_span_cost_but_still_observes(self, rng):
        sharded, _, _ = build_mirrored_pair(rng, shard_count=2)
        sharded.range_query(RangeQuery(0, 0.1, 0.9))
        snapshot = sharded.metrics_snapshot()
        assert snapshot["histograms"]["shard_seconds.s00"]["count"] == 1
        assert snapshot["histograms"]["sharded_query_seconds"]["count"] == 1
        assert not any(
            name.startswith("spans.") for name in snapshot["counters"]
        )
        sharded.close()


class TestLineage:
    def test_wal_records_carry_the_mutating_trace_id(self, rng, tmp_path):
        sharded = ShardedCatalog(2, root=tmp_path)
        try:
            with tracing():
                base_id = sharded.insert_image(random_image(rng))
            entries = sharded._wal.entries()
            assert len(entries) == 1
            trace_id = entries[0]["trace_id"]
            assert trace_id.startswith("trace-")
            # The wal.append event carries the same trace and LSN, so
            # the record is attributable from the event log alone.
            appended = sharded.events.snapshot(kind="wal.append")
            assert appended[-1].trace_id == trace_id
            assert appended[-1].lsn == int(entries[0]["lsn"])
            assert appended[-1].image_id == base_id
        finally:
            sharded.close()

    def test_untraced_mutations_emit_events_without_trace_noise(
        self, rng, tmp_path
    ):
        sharded = ShardedCatalog(2, root=tmp_path)
        try:
            sharded.insert_image(random_image(rng))
            entries = sharded._wal.entries()
            assert "trace_id" not in entries[0]
            appended = sharded.events.snapshot(kind="wal.append")
            assert appended[-1].trace_id is None
            assert appended[-1].lsn == int(entries[0]["lsn"])
        finally:
            sharded.close()

    def test_compaction_lineage_connects_cycle_commit_and_wal(
        self, rng, tmp_path
    ):
        """A cycle's per-image events carry the cycle's trace id, and no
        LSN: a fill writes no WAL record."""
        sharded, _, _ = build_mirrored_pair(rng, root=tmp_path)
        try:
            sharded.range_query(RangeQuery(0, 0.1, 0.9))
            compactor = Compactor(
                sharded,
                CompactionPolicy(min_score=0.0, require_demand=False),
            )
            entries = sharded._wal.entries()
            with tracing():
                report = compactor.run_once()
            assert report.materialized
            cycle = sharded.events.snapshot(kind="compaction.cycle")[-1]
            commits = sharded.events.snapshot(kind="compaction.materialized")
            assert cycle.trace_id.startswith("trace-")
            assert [event.image_id for event in commits] == list(report.materialized)
            assert {event.trace_id for event in commits} == {cycle.trace_id}
            assert {event.lsn for event in commits} == {None}
            assert sharded._wal.entries() == entries
        finally:
            sharded.close()


class TestEventTimeline:
    def test_replay_failure_is_a_structured_event_with_lsn_and_error(
        self, rng, tmp_path
    ):
        sharded = ShardedCatalog(2, root=tmp_path)
        base_id = None
        try:
            base_id = sharded.insert_image(random_image(rng))
            sharded.insert_edited(random_sequence(rng, base_id))
            with pytest.raises(DatabaseError):
                sharded.delete_image(base_id)  # derived edit references it
        finally:
            sharded.close()
        reopened = ShardedCatalog.open(tmp_path)
        try:
            failed = reopened.events.snapshot(kind="wal.replay_failed")
            assert len(failed) == 1
            event = failed[0]
            assert event.image_id == base_id
            assert event.lsn == 3
            assert event.shard is not None
            assert event.detail["op"] == "delete_image"
            assert "derived" in event.detail["error"] or event.detail["error"]
            summary = reopened.events.snapshot(kind="wal.replay")[-1]
            assert summary.detail["replayed"] == 2
            assert summary.detail["failed"] == 1
            # ...and the failure count feeds health: one failure = yellow.
            report = HealthMonitor(reopened).report(record=False)
            assert report.shard(event.shard).verdict == "yellow"
        finally:
            reopened.close()

    def test_checkpoint_event_records_truncated_wal(self, rng, tmp_path):
        sharded = ShardedCatalog(2, root=tmp_path)
        try:
            sharded.insert_image(random_image(rng))
            sharded.insert_image(random_image(rng))
            sharded.save()
            checkpoint = sharded.events.snapshot(kind="checkpoint")[-1]
            assert checkpoint.detail["wal_records_truncated"] == 2
        finally:
            sharded.close()

    def test_checkpoint_count_comes_from_the_wals_bookkeeping(
        self, rng, tmp_path, monkeypatch
    ):
        """``wal_records_truncated`` is right after live appends, after
        an open that replayed the log with nothing appended since, and
        after a reset — and no save re-reads the log to count it."""
        from repro.shard.wal import ShardWAL

        def save_without_rereading(catalog):
            with monkeypatch.context() as patch:
                patch.setattr(ShardWAL, "entries", _no_reread)
                catalog.save()
            return catalog.events.snapshot(kind="checkpoint")[-1].detail[
                "wal_records_truncated"
            ]

        sharded = ShardedCatalog(2, root=tmp_path)
        try:
            for _ in range(3):
                sharded.insert_image(random_image(rng))
        finally:
            sharded.close()  # no checkpoint: three records to replay
        reopened = ShardedCatalog.open(tmp_path)
        try:
            assert reopened.metrics.counter("wal.replayed") == 3
            assert save_without_rereading(reopened) == 3  # replayed
            assert save_without_rereading(reopened) == 0  # reset
            reopened.insert_image(random_image(rng))
            reopened.insert_image(random_image(rng))
            assert save_without_rereading(reopened) == 2  # appended
            assert reopened.status()["wal_entries"] == 0
        finally:
            reopened.close()

    def test_events_stream_to_the_root_sink_and_survive_reopen(
        self, rng, tmp_path
    ):
        sharded = ShardedCatalog(2, root=tmp_path)
        try:
            sharded.insert_image(random_image(rng))
            sharded.range_query(RangeQuery(0, 0.1, 0.9))
            sharded.save()
        finally:
            sharded.close()
        on_disk = read_events_jsonl(tmp_path / EVENTS_NAME)
        kinds = [event.kind for event in on_disk]
        assert "wal.append" in kinds
        assert "query" in kinds
        assert "checkpoint" in kinds
        reopened = ShardedCatalog.open(tmp_path)
        try:
            # The ring preloads the sink tail and the sequence continues.
            preloaded = reopened.events.snapshot()
            assert [e.seq for e in preloaded][: len(on_disk)] == [
                e.seq for e in on_disk
            ]
            reopened.insert_image(random_image(rng))
            appended = read_events_jsonl(tmp_path / EVENTS_NAME)
            # save() truncated the WAL, so reopen replays nothing: the
            # insert's wal.append is the next sequence number.
            assert appended[-1].seq == on_disk[-1].seq + 1
        finally:
            reopened.close()

    def test_a_torn_sink_tail_is_cut_before_the_next_append(self, rng, tmp_path):
        sharded = ShardedCatalog(2, root=tmp_path)
        try:
            sharded.insert_image(random_image(rng))
            sharded.save()
        finally:
            sharded.close()
        sink = tmp_path / EVENTS_NAME
        whole = sink.read_text("utf-8")
        last = whole.splitlines()[-1]
        with open(sink, "a", encoding="utf-8") as handle:
            handle.write(last[: len(last) // 2])  # a writer died mid-line
        reopened = ShardedCatalog.open(tmp_path)
        try:
            reopened.range_query(RangeQuery(0, 0.1, 0.9))
            reopened.range_query(RangeQuery(3, 0.0, 0.5))
        finally:
            reopened.close()
        ShardedCatalog.open(tmp_path).close()  # no damaged line mid-file
        lines = sink.read_text("utf-8").splitlines()
        events = [Event.from_dict(json.loads(line)) for line in lines]
        assert sink.read_text("utf-8").startswith(whole)
        assert events[-1].seq == len(events)
        assert [e.kind for e in events].count("query") == 2

    def test_ephemeral_catalog_keeps_events_in_memory_only(self, rng):
        sharded = ShardedCatalog(2)
        try:
            sharded.insert_image(random_image(rng))
            assert sharded.events.sink_path is None
            assert sharded.events.snapshot(kind="wal.append")
        finally:
            sharded.close()


class TestRecentQueriesRing:
    def test_ring_records_each_query_kind_with_work_units(self, rng):
        sharded, _, _ = build_mirrored_pair(rng, shard_count=2)
        try:
            query = RangeQuery(0, 0.1, 0.9)
            sharded.range_query(query)
            sharded.knn(random_image(rng), 3)
            recent = sharded.recent_queries()
            assert [entry["kind"] for entry in recent] == [
                "range_query", "knn",
            ]
            for entry in recent:
                assert entry["work_units"] > 0
                assert entry["slowest_shard"] in (0, 1)
                assert set(entry["shard_seconds"]) == {"s00", "s01"}
            assert len(sharded.recent_queries(count=1)) == 1
            assert sharded.recent_queries(count=0) == []
        finally:
            sharded.close()

    def test_ring_is_safe_under_concurrent_queries(self, rng):
        sharded, _, _ = build_mirrored_pair(rng, shard_count=2)
        errors = []

        def pound():
            try:
                for _ in range(10):
                    sharded.range_query(RangeQuery(0, 0.1, 0.9))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=pound) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        try:
            assert errors == []
            recent = sharded.recent_queries()
            assert len(recent) == 40  # one query event per read, none dropped
            query_events = sharded.events.snapshot(kind="query")
            assert len(query_events) == 40
        finally:
            sharded.close()

    def test_every_read_records_exactly_one_query_event(self, rng):
        sharded, _, _ = build_mirrored_pair(rng, shard_count=2)
        try:
            for read in (
                lambda: sharded.range_query(RangeQuery(0, 0.1, 0.9)),
                lambda: sharded.range_query_batch(
                    [RangeQuery(0, 0.1, 0.9), RangeQuery(3, 0.2, 1.0)]
                ),
                lambda: sharded.text_query("at least 10% red and at most 50% blue"),
                lambda: sharded.knn(random_image(rng), 3),
                lambda: sharded.similarity_range(random_image(rng), 0.8),
            ):
                before = len(sharded.events.snapshot(kind="query"))
                read()
                assert len(sharded.events.snapshot(kind="query")) == before + 1
            assert len(sharded.recent_queries()) == 5
        finally:
            sharded.close()

    def test_reopened_root_lists_the_previous_sessions_reads(self, rng, tmp_path):
        sharded = ShardedCatalog(2, root=tmp_path)
        try:
            sharded.insert_image(random_image(rng))
            sharded.range_query(RangeQuery(0, 0.1, 0.9))
            sharded.knn(random_image(rng), 1)
            before = sharded.recent_queries()
        finally:
            sharded.close()
        reopened = ShardedCatalog.open(tmp_path)
        try:
            assert reopened.recent_queries() == before
            reopened.range_query(RangeQuery(3, 0.0, 0.5))
            assert [entry["kind"] for entry in reopened.recent_queries()] == [
                "range_query", "knn", "range_query",
            ]
        finally:
            reopened.close()


class TestTelemetryParity:
    """What the router publishes per read, pinned to the values it had
    when the fan-out still ran on a thread pool: moving the fan-out onto
    the calling thread and folding the histogram observations into one
    registry call changed neither the names nor the counts."""

    SHARD_HISTOGRAMS = (
        "shard_lock_wait_seconds",
        "shard_seconds",
        "shard_work_units",
    )

    @staticmethod
    def _reads(sharded, rng):
        sharded.range_query(RangeQuery(0, 0.1, 0.9))
        sharded.range_query(RangeQuery(5, 0.0, 0.5), method="rbm")
        sharded.text_query("at least 10% red and at most 50% blue")
        sharded.range_query_batch([RangeQuery(0, 0.1, 0.9), RangeQuery(3, 0.2, 1.0)])
        sharded.knn(random_image(rng), 3)
        sharded.similarity_range(random_image(rng), 0.8)

    def test_a_fixed_script_publishes_the_same_telemetry(self, rng, tmp_path):
        threads_before = set(threading.enumerate())
        sharded, _, _ = build_mirrored_pair(rng, shard_count=3, root=tmp_path)
        try:
            self._reads(sharded, rng)
            snapshot = sharded.metrics_snapshot()
            assert sorted(snapshot) == ["counters", "events", "gauges", "histograms"]
            assert snapshot["counters"] == {
                "shard.mutations": 18,
                "shard.queries": 6,
                "wal.appends": 18,
            }
            assert snapshot["gauges"] == {
                "compaction.materialized_images": 0.0,
                "shard.count": 3.0,
            }
            expected = {
                f"{family}.s{index:02d}": 6
                for family in self.SHARD_HISTOGRAMS
                for index in range(3)
            }
            expected["sharded_query_seconds"] = 6
            counts = {
                name: histogram["count"]
                for name, histogram in snapshot["histograms"].items()
            }
            assert counts == expected
            recent = sharded.recent_queries()
            assert [entry["kind"] for entry in recent] == [
                "range_query",
                "range_query",
                "conjunctive_query",
                "range_query_batch",
                "knn",
                "similarity_range",
            ]
            for entry in recent:
                assert sorted(entry) == [
                    "kind",
                    "matches",
                    "seconds",
                    "shard_seconds",
                    "slowest_shard",
                    "trace_id",
                    "ts",
                    "work_units",
                ]
                assert sorted(entry["shard_seconds"]) == ["s00", "s01", "s02"]
            events = sharded.events.snapshot(kind="query")
            assert len(events) == 6
            for event in events:
                assert sorted(event.detail) == [
                    "matches",
                    "query_kind",
                    "seconds",
                    "shard_seconds",
                    "work_units",
                ]
            assert snapshot["events"]["emitted"] == 24  # 18 wal.append + 6 query
            # The router starts no thread of its own.
            assert not [
                thread
                for thread in threading.enumerate()
                if thread.name.startswith("shard-query")
            ]
            assert set(threading.enumerate()) <= threads_before
        finally:
            sharded.close()

    def test_traced_reads_fold_the_same_spans(self, rng):
        sharded, _, _ = build_mirrored_pair(rng, shard_count=3)
        try:
            with tracing():
                sharded.range_query(RangeQuery(0, 0.1, 0.9))
                sharded.knn(random_image(rng), 3)
            counters = sharded.metrics_snapshot()["counters"]
            assert {
                name: count
                for name, count in counters.items()
                if name.startswith("spans.")
            } == {
                "spans.fanout": 2,
                "spans.lock-wait": 6,
                "spans.merge": 2,
                "spans.run": 6,
                "spans.shard.execute": 6,
                "spans.sharded_query": 2,
            }
            assert all(
                event.trace_id for event in sharded.events.snapshot(kind="query")
            )
        finally:
            sharded.close()

    def test_a_failing_shard_raises_and_leaves_no_lock_held(
        self, rng, monkeypatch
    ):
        sharded, _, _ = build_mirrored_pair(rng, shard_count=3)
        try:
            sharded.range_query(RangeQuery(0, 0.1, 0.9))

            def fail(*args, **kwargs):
                raise RuntimeError("shard 1 is broken")

            monkeypatch.setattr(sharded.shard_database(1), "range_query", fail)
            with pytest.raises(RuntimeError, match="shard 1 is broken"):
                sharded.range_query(RangeQuery(0, 0.1, 0.9))
            for shard in sharded._shards:
                with shard.lock.write_locked(timeout=1):
                    pass
            # The failed read published nothing; the next one does.
            monkeypatch.undo()
            sharded.range_query(RangeQuery(0, 0.1, 0.9))
            histograms = sharded.metrics_snapshot()["histograms"]
            assert histograms["sharded_query_seconds"]["count"] == 2
            assert histograms["shard_seconds.s02"]["count"] == 2
        finally:
            sharded.close()


class TestBacklog:
    def test_backlog_counts_cold_memo_rows_not_compactions(self, rng, monkeypatch):
        # 600 edited images is past the yellow bound (512): a shard that
        # nobody compacted must still grade green once its rows are warm.
        # The shard's latency comes from a clock that ticks 1 µs per
        # reading, so the verdict grades the backlog, not how long this
        # host takes over the first cold 600-row fill.
        ticks = itertools.count()
        monkeypatch.setattr(
            sharded_module,
            "time",
            SimpleNamespace(perf_counter=lambda: next(ticks) * 1e-6, time=time.time),
        )
        sharded, _, base_ids = build_mirrored_pair(
            rng, shard_count=1, binary_count=10, edited_count=600
        )
        try:
            # RBM reads every row (BWM's Figure 2 shortcut may skip some).
            sharded.range_query(RangeQuery(0, 0.1, 0.9), method="rbm")
            [signals] = sharded.health_signals()
            assert signals["backlog"] == 0
            assert signals["materialized"] == 0
            report = HealthMonitor(sharded).report(record=False)
            assert report.shard(0).verdict == "green"
            # An update dirties exactly the base's dependents (every
            # tenth edited image, whose sequences reference only it).
            sharded.update_image(base_ids[0], random_image(rng))
            [signals] = sharded.health_signals()
            assert signals["backlog"] == 60
        finally:
            sharded.close()


class TestUnifiedExposition:
    def test_snapshot_and_exposition_are_deterministic_and_valid(self, rng):
        sharded, _, _ = build_mirrored_pair(rng, shard_count=2)
        try:
            sharded.range_query(RangeQuery(0, 0.1, 0.9))
            HealthMonitor(sharded).report()  # adds health.* gauges
            first = sharded.metrics_snapshot()
            second = sharded.metrics_snapshot()
            assert list(first) == sorted(first)
            assert first == second
            assert first["events"]["emitted"] > 0
            exposition = sharded.prometheus_metrics()
            assert validate_exposition(exposition) == []
            assert "repro_health_worst" in exposition
            assert "repro_shard_seconds_s00" in exposition
        finally:
            sharded.close()


class TestTopRenderer:
    def test_render_top_shows_health_queries_and_compactions(self, rng):
        sharded, _, _ = build_mirrored_pair(rng, shard_count=2)
        try:
            sharded.range_query(RangeQuery(0, 0.1, 0.9))
            with tracing():
                Compactor(
                    sharded,
                    CompactionPolicy(min_score=0.0, require_demand=False),
                ).run_once()
            report = HealthMonitor(sharded).report()
            text = render_top(sharded, report)
            assert "fleet: GREEN" in text
            assert "shard health" in text
            assert "range_query" in text
            assert "recent compactions" in text
            assert "trace-" in text
            payload = top_payload(sharded, report)
            assert payload["health"]["verdict"] == "green"
            assert payload["slowest_queries"]
            assert payload["recent_compactions"]
        finally:
            sharded.close()

    def test_render_top_handles_a_cold_catalog(self, rng):
        sharded = ShardedCatalog(2)
        try:
            report = HealthMonitor(sharded).report(record=False)
            text = render_top(sharded, report)
            assert "no queries recorded yet" in text
            assert "none since this root opened" in text
        finally:
            sharded.close()


def _no_reread(self):
    raise AssertionError("the WAL was re-read to count its records")
