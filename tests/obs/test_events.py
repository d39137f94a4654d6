"""EventStream: seq assignment, JSONL durability, bounded replay ring."""

import json

import pytest

from repro.obs import EVENT_KINDS, EventStream, RunEvent, event_stream_path
from repro.obs.events import ordered


class TestRunEvent:
    def test_to_dict_flattens_data(self):
        ev = RunEvent(seq=3, t=12.5, kind="job_start", data={"index": 7, "pid": 42})
        assert ev.to_dict() == {
            "seq": 3, "t": 12.5, "kind": "job_start", "index": 7, "pid": 42,
        }

    def test_round_trip(self):
        ev = RunEvent(seq=9, t=1.25, kind="job_finish",
                      data={"index": 0, "seconds": 0.5, "engine": "gated"})
        assert RunEvent.from_dict(ev.to_dict()) == ev

    def test_from_dict_tolerates_missing_fields(self):
        ev = RunEvent.from_dict({"kind": "progress"})
        assert ev.seq == 0
        assert ev.t == 0.0
        assert ev.data == {}

    def test_kind_table_matches_module_doc(self):
        # The lifecycle kinds the runner emits must all be registered.
        for kind in ("job_start", "job_finish", "job_cancel", "job_error",
                     "job_retry", "job_failed", "job_interrupted",
                     "cache_hit", "progress"):
            assert kind in EVENT_KINDS


class TestSeqAssignment:
    def test_seqs_are_dense_and_monotonic(self):
        stream = EventStream()
        events = [stream.append("progress", total=i) for i in range(10)]
        assert [e.seq for e in events] == list(range(10))
        assert stream.appended == 10

    def test_ordered_restores_total_order(self):
        stream = EventStream()
        events = [stream.append("progress", total=i) for i in range(5)]
        shuffled = [events[3], events[0], events[4], events[2], events[1]]
        assert ordered(shuffled) == events


class TestReplayRing:
    def test_capacity_bounds_buffer_with_explicit_drop_counter(self):
        stream = EventStream(capacity=4)
        for i in range(10):
            stream.append("progress", total=i)
        assert len(stream) == 4
        assert stream.appended == 10
        assert stream.dropped == 6
        # Oldest-first truncation: the tail survives.
        assert [e.data["total"] for e in stream.events()] == [6, 7, 8, 9]

    def test_tail(self):
        stream = EventStream()
        for i in range(5):
            stream.append("progress", total=i)
        assert [e.data["total"] for e in stream.tail(2)] == [3, 4]
        assert stream.tail(0) == []
        assert len(stream.tail(99)) == 5

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventStream(capacity=0)


class TestJsonlFile:
    def test_appends_one_sorted_json_line_per_event(self, tmp_path):
        path = tmp_path / "run.jsonl"
        stream = EventStream(path)
        stream.append("run_start", experiment="fig8")
        stream.append("job_finish", index=0, seconds=0.25)
        stream.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["kind"] for l in lines] == ["run_start", "job_finish"]
        assert lines[0]["experiment"] == "fig8"
        assert lines[1]["seq"] == 1

    def test_ring_drops_do_not_truncate_the_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        stream = EventStream(path, capacity=2)
        for i in range(6):
            stream.append("progress", total=i)
        stream.close()
        assert len(path.read_text().splitlines()) == 6
        assert stream.dropped == 4

    def test_load_round_trips_and_skips_torn_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        stream = EventStream(path)
        stream.append("run_start")
        stream.append("run_finish")
        stream.close()
        with open(path, "a") as handle:
            handle.write('{"kind": "job_st')  # torn by a crash mid-write
        events = EventStream.load(path)
        assert [e.kind for e in events] == ["run_start", "run_finish"]

    def test_load_missing_file_is_empty_stream(self, tmp_path):
        assert EventStream.load(tmp_path / "nope.jsonl") == []

    def test_unwritable_path_degrades_to_memory_only(self, tmp_path):
        # Journal durability contract: telemetry files never fail the run.
        stream = EventStream(tmp_path / "dir-not-file")
        (tmp_path / "dir-not-file").mkdir()
        stream.append("run_start")
        assert stream.path is None  # file writes disabled, loudly
        stream.append("progress")
        assert len(stream) == 2  # in-memory ring still collects

    def test_event_stream_path_lives_next_to_journal(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        path = event_stream_path("abc123")
        assert path == tmp_path / "events" / "abc123.jsonl"
