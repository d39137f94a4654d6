"""RunMonitor: aggregation, snapshot/registry views, worker queue, lifecycle."""

import io
import time

from repro.obs import EventStream, MetricsRegistry, RunMonitor, emit_worker_event
from repro.obs.monitor import JOB_SECONDS_BOUNDS


def feed(monitor, *events):
    for kind, data in events:
        monitor.emit(kind, **data)


def small_sweep(monitor):
    """A 3-job sweep: one cache hit, one retry-then-finish, one finish."""
    feed(
        monitor,
        ("run_start", {"experiment": "fig8"}),
        ("batch_start", {"jobs": 3}),
        ("cache_hit", {"index": 0, "key": "aaaa"}),
        ("job_start", {"index": 1, "attempt": 0, "pid": 101}),
        ("job_error", {"index": 1, "attempt": 1, "reason": "crash"}),
        ("job_retry", {"index": 1, "attempt": 1}),
        ("job_start", {"index": 1, "attempt": 1, "pid": 102}),
        ("job_finish", {"index": 1, "attempt": 1, "pid": 102,
                        "seconds": 0.2, "engine": "gated"}),
        ("job_start", {"index": 2, "attempt": 0, "pid": 101}),
        ("job_finish", {"index": 2, "attempt": 0, "pid": 101,
                        "seconds": 1.5, "engine": "vectorized"}),
    )


class TestAggregation:
    def test_counts_per_kind(self):
        monitor = RunMonitor()
        small_sweep(monitor)
        assert monitor.jobs_total == 3
        assert monitor.cache_hits == 1
        assert monitor.completed == 3  # cache hit + two finishes
        assert monitor.errors == 1
        assert monitor.retries == 1
        assert monitor.failures == 0
        assert monitor.engines == {"gated": 1, "vectorized": 1}
        assert monitor.workers == {101, 102}

    def test_in_flight_tracks_start_to_terminal_event(self):
        monitor = RunMonitor()
        monitor.emit("job_start", index=0, attempt=0, pid=1)
        monitor.emit("job_start", index=1, attempt=0, pid=2)
        assert set(monitor._in_flight) == {0, 1}
        monitor.emit("job_finish", index=0, attempt=0, pid=1, seconds=0.1)
        assert set(monitor._in_flight) == {1}
        monitor.emit("job_cancel", index=1, attempt=1)
        assert monitor._in_flight == {}
        assert monitor.cancellations == 1

    def test_interrupted_leaves_flight(self):
        monitor = RunMonitor()
        monitor.emit("job_start", index=4, attempt=0, pid=9)
        monitor.emit("job_interrupted", index=4, attempt=0)
        assert monitor.interrupted == 1
        assert monitor._in_flight == {}

    def test_every_event_lands_in_the_stream_in_emit_order(self):
        stream = EventStream()
        monitor = RunMonitor(stream=stream)
        small_sweep(monitor)
        kinds = [e.kind for e in stream.events()]
        assert kinds[0] == "run_start"
        assert kinds.count("job_start") == 3
        assert [e.seq for e in stream.events()] == list(range(len(kinds)))


class TestSnapshot:
    def test_status_document_shape(self):
        monitor = RunMonitor(label="fig8_mesh", run_key="deadbeef")
        small_sweep(monitor)
        monitor.emit("job_start", index=5, attempt=0, pid=103)
        snap = monitor.snapshot()
        assert snap["label"] == "fig8_mesh"
        assert snap["run_key"] == "deadbeef"
        assert snap["jobs_total"] == 3
        assert snap["completed"] == 3
        assert snap["cache_hits"] == 1
        assert snap["retries"] == 1
        assert snap["in_flight_count"] == 1
        (job,) = snap["in_flight"]
        assert job["index"] == 5 and job["pid"] == 103
        assert snap["finished"] is False
        assert snap["engines"] == {"gated": 1, "vectorized": 1}
        assert snap["workers"] == [101, 102, 103]
        assert snap["recent_events"][-1]["kind"] == "job_start"

    def test_run_finish_freezes_elapsed(self):
        monitor = RunMonitor()
        monitor.emit("run_finish", experiment="fig8")
        snap = monitor.snapshot()
        assert snap["finished"] is True
        frozen = snap["elapsed_seconds"]
        time.sleep(0.02)
        assert monitor.snapshot()["elapsed_seconds"] == frozen


class TestRegistryView:
    def test_counters_and_histogram(self):
        monitor = RunMonitor()
        small_sweep(monitor)
        reg = monitor.registry()
        assert isinstance(reg, MetricsRegistry)
        data = reg.as_dict()
        assert data["repro_jobs_total"] == 3
        assert data["repro_jobs_completed"] == 3
        assert data["repro_cache_hits"] == 1
        assert data["repro_job_retries"] == 1
        assert data["repro_engine_jobs_gated"] == 1
        assert data["repro_engine_jobs_vectorized"] == 1
        hist = data["repro_job_seconds"]
        assert hist["kind"] == "histogram"
        assert hist["bounds"] == list(JOB_SECONDS_BOUNDS)
        assert hist["total"] == 2  # the two job_finish seconds samples
        assert hist["sum"] == 1.7

    def test_view_is_a_copy(self):
        monitor = RunMonitor()
        small_sweep(monitor)
        monitor.registry().counter("repro_cache_hits").inc(100)
        assert monitor.registry().as_dict()["repro_cache_hits"] == 1


class TestWorkerQueue:
    def test_worker_events_fold_into_dispatch(self):
        monitor = RunMonitor()
        queue = monitor.worker_queue()
        assert monitor.worker_queue() is queue  # created once
        emit_worker_event(queue, "job_start", index=0, attempt=0)
        emit_worker_event(queue, "job_finish", index=0, attempt=0,
                          seconds=0.1, engine="gated")
        monitor.flush()
        assert monitor.completed == 1
        assert monitor.engines == {"gated": 1}
        kinds = [e.kind for e in monitor.stream.events()]
        assert kinds == ["job_start", "job_finish"]
        # Worker payloads carry their pid automatically.
        assert monitor.stream.events()[0].data["pid"] > 0
        monitor.close()

    def test_flush_sequences_run_finish_after_backlog(self):
        monitor = RunMonitor()
        queue = monitor.worker_queue()
        for i in range(50):
            emit_worker_event(queue, "job_finish", index=i, seconds=0.0)
        monitor.flush()
        monitor.emit("run_finish")
        monitor.close()
        kinds = [e.kind for e in monitor.stream.events()]
        assert kinds[-1] == "run_finish"
        assert kinds.count("job_finish") == 50

    def test_close_drains_backlog_before_closing(self):
        monitor = RunMonitor()
        queue = monitor.worker_queue()
        for i in range(20):
            emit_worker_event(queue, "job_finish", index=i, seconds=0.0)
        monitor.close()
        assert monitor.completed == 20

    def test_emit_worker_event_without_queue_is_noop(self):
        emit_worker_event(None, "job_start", index=0)  # must not raise


class TestSubscribers:
    def test_subscribers_receive_live_events(self):
        monitor = RunMonitor()
        sub = monitor.subscribe()
        monitor.emit("progress", in_flight=2)
        event = sub.get(timeout=1)
        assert event.kind == "progress"
        monitor.unsubscribe(sub)
        monitor.emit("progress", in_flight=1)
        assert sub.empty()

    def test_close_wakes_subscribers_with_sentinel(self):
        monitor = RunMonitor()
        sub = monitor.subscribe()
        monitor.close()
        assert sub.get(timeout=1) is None


class TestLifecycle:
    def test_emit_after_close_is_dropped(self):
        monitor = RunMonitor()
        monitor.emit("run_start")
        monitor.close()
        monitor.emit("progress")
        monitor.tick()
        assert [e.kind for e in monitor.stream.events()] == ["run_start"]

    def test_close_is_idempotent(self):
        monitor = RunMonitor()
        monitor.worker_queue()
        monitor.close()
        monitor.close()

    def test_tick_rate_limits_progress_events(self):
        monitor = RunMonitor()
        for _ in range(10):
            monitor.tick()
        progress = [e for e in monitor.stream.events() if e.kind == "progress"]
        assert len(progress) == 1  # one per _PROGRESS_INTERVAL window

    def test_live_render_writes_progress_line(self):
        out = io.StringIO()
        monitor = RunMonitor(live=True, label="fig8", out=out)
        small_sweep(monitor)
        monitor.close()
        text = out.getvalue()
        assert "[monitor] fig8" in text
        assert "3/3 jobs" in text
        assert text.endswith("\n")  # close() finishes the live line
