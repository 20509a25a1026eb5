"""The structured wide-event log: schema, ring, sink, concurrency."""

import json
import threading

import pytest

from repro.errors import ObservabilityError
from repro.obs.events import (
    EVENT_FIELDS,
    EVENT_KINDS,
    EVENT_SCHEMA_VERSION,
    Event,
    EventLog,
    read_events_jsonl,
    validate_event_dict,
)


class TestEventSchema:
    def test_round_trip_preserves_everything(self):
        event = Event(
            seq=7, ts=123.5, kind="wal.append", subsystem="wal",
            shard=2, image_id="edit-3", lsn=41, trace_id="trace-00000009",
            detail={"op": "add_edited", "version": 4},
        )
        clone = Event.from_dict(json.loads(json.dumps(event.to_dict())))
        assert clone == event

    def test_to_dict_uses_the_stable_field_order(self):
        event = Event(seq=1, ts=0.0, kind="query", subsystem="router")
        assert tuple(event.to_dict()) == EVENT_FIELDS
        assert event.to_dict()["v"] == EVENT_SCHEMA_VERSION

    def test_validate_rejects_unknown_kind_and_fields(self):
        good = Event(seq=1, ts=0.0, kind="query", subsystem="router").to_dict()
        assert validate_event_dict(good) == []
        bad = dict(good, kind="mystery")
        assert any("unknown event kind" in p for p in validate_event_dict(bad))
        extra = dict(good, surprise=1)
        assert any("unknown fields" in p for p in validate_event_dict(extra))
        stale = dict(good, v=99)
        assert any("schema version" in p for p in validate_event_dict(stale))

    def test_validate_rejects_missing_and_mistyped_fields(self):
        assert validate_event_dict([]) != []
        problems = validate_event_dict({"v": EVENT_SCHEMA_VERSION})
        assert any("missing required field" in p for p in problems)
        bad_types = Event(seq=1, ts=0.0, kind="query", subsystem="r").to_dict()
        bad_types["seq"] = "one"
        bad_types["shard"] = "two"
        problems = validate_event_dict(bad_types)
        assert any("seq must be an integer" in p for p in problems)
        assert any("shard must be an integer" in p for p in problems)

    def test_from_dict_raises_on_invalid(self):
        with pytest.raises(ObservabilityError, match="invalid event"):
            Event.from_dict({"v": EVENT_SCHEMA_VERSION, "kind": "query"})

    def test_describe_is_one_line_with_identities(self):
        event = Event(
            seq=3, ts=0.0, kind="compaction.materialized",
            subsystem="compactor", shard=1, image_id="edit-9", lsn=12,
            trace_id="trace-00000002", detail={"projected_saving": 8.0},
        )
        text = event.describe()
        assert "\n" not in text
        for token in ("shard=1", "image=edit-9", "lsn=12",
                      "trace=trace-00000002", "projected_saving=8.0"):
            assert token in text


class TestEventLog:
    def test_emit_assigns_monotone_seq_and_bounds_ring(self):
        log = EventLog(capacity=4)
        for index in range(10):
            log.emit("mutation", subsystem="service", image_id=f"i{index}")
        events = log.snapshot()
        assert [e.seq for e in events] == [7, 8, 9, 10]
        assert log.stats() == {
            "capacity": 4, "emitted": 10, "enabled": 1, "retained": 4,
        }

    def test_unknown_kind_raises(self):
        log = EventLog()
        with pytest.raises(ObservabilityError, match="unknown event kind"):
            log.emit("not.a.kind", subsystem="service")

    def test_disabled_log_is_a_no_op(self):
        log = EventLog(enabled=False)
        assert log.emit("query", subsystem="router") is None
        assert log.snapshot() == []
        assert log.stats()["emitted"] == 0
        assert log.set_enabled(True) is False
        assert log.emit("query", subsystem="router") is not None

    def test_tail_and_kind_filter(self):
        log = EventLog()
        log.emit("query", subsystem="router")
        log.emit("mutation", subsystem="service")
        log.emit("query", subsystem="router")
        assert [e.kind for e in log.tail(2)] == ["mutation", "query"]
        assert [e.seq for e in log.snapshot(kind="query")] == [1, 3]
        assert log.tail(0) == []

    def test_bad_capacity_rejected(self):
        with pytest.raises(ObservabilityError, match="capacity"):
            EventLog(capacity=0)

    def test_concurrent_emitters_never_lose_or_duplicate_seq(self):
        log = EventLog(capacity=4096)
        workers, per_worker = 8, 50
        barrier = threading.Barrier(workers)

        def pound(worker):
            barrier.wait()
            for index in range(per_worker):
                log.emit("mutation", subsystem="service",
                         image_id=f"w{worker}-{index}")

        threads = [
            threading.Thread(target=pound, args=(w,)) for w in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        events = log.snapshot()
        assert len(events) == workers * per_worker
        assert [e.seq for e in events] == list(
            range(1, workers * per_worker + 1)
        )


class TestSink:
    def test_sink_persists_and_preloads_continuing_seq(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        with EventLog(sink=sink) as log:
            log.emit("wal.append", subsystem="wal", shard=0, lsn=1)
            log.emit("checkpoint", subsystem="shard")
        reread = read_events_jsonl(sink)
        assert [e.kind for e in reread] == ["wal.append", "checkpoint"]
        # A new log over the same sink continues the sequence.
        with EventLog(sink=sink) as log:
            assert [e.seq for e in log.snapshot()] == [1, 2]
            event = log.emit("query", subsystem="router")
            assert event.seq == 3
        assert [e.seq for e in read_events_jsonl(sink)] == [1, 2, 3]

    def test_torn_tail_tolerated_mid_file_damage_raises(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        with EventLog(sink=sink) as log:
            for _ in range(3):
                log.emit("query", subsystem="router")
        lines = sink.read_text().splitlines()
        sink.write_text("\n".join(lines) + '\n{"torn": tru')
        assert len(read_events_jsonl(sink)) == 3
        sink.write_text(
            lines[0] + "\n{broken}\n" + "\n".join(lines[1:]) + "\n"
        )
        with pytest.raises(ObservabilityError, match="damaged event line 2"):
            read_events_jsonl(sink)

    def test_read_limit_keeps_the_newest(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        with EventLog(sink=sink) as log:
            for _ in range(5):
                log.emit("query", subsystem="router")
        assert [e.seq for e in read_events_jsonl(sink, limit=2)] == [4, 5]

    def test_preload_parses_only_the_ring_tail(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        with EventLog(sink=sink) as log:
            for _ in range(10):
                log.emit("query", subsystem="router")
        # Damage above the tail is skipped, not parsed: opening a root
        # costs the ring's worth whatever the sink's length.
        lines = sink.read_text().splitlines()
        sink.write_text("\n".join(["{broken}"] + lines[1:]) + "\n")
        with EventLog(capacity=4, sink=sink) as log:
            assert [e.seq for e in log.snapshot()] == [7, 8, 9, 10]
            assert log.stats()["emitted"] == 10
            assert log.emit("query", subsystem="router").seq == 11
        assert read_events_jsonl(sink, limit=0) == []

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_events_jsonl(tmp_path / "nope.jsonl") == []


class TestKinds:
    def test_kind_set_is_closed_and_sorted_stable(self):
        # The CI round-trip check and dashboards enumerate this set;
        # accidental edits should be loud.
        assert len(EVENT_KINDS) == len(set(EVENT_KINDS))
        assert "wal.replay_failed" in EVENT_KINDS
        assert "health.verdict" in EVENT_KINDS
