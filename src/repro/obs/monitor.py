"""RunMonitor: the coordinator-side aggregator of streaming run telemetry.

The monitor sits between the producers and the sinks:

* **producers** — the :class:`~repro.parallel.runner.ParallelRunner`
  coordinator (cache hits, retries, cancellations, progress ticks) calls
  :meth:`RunMonitor.emit` directly; worker processes put
  ``job_start``/``job_finish`` payloads on a ``multiprocessing.Queue``
  (:meth:`worker_queue`) that a daemon drain thread folds into the same
  dispatch path;
* **sinks** — every dispatched event is appended to the
  :class:`~repro.obs.events.EventStream` (JSONL next to the run journal),
  pushed to live subscribers (the ``/events`` SSE endpoint), folded into
  the aggregate counters behind :meth:`snapshot` (``/status``) and
  :meth:`registry` (``/metrics``), and rendered by the optional live
  terminal progress line (``--monitor``) on stderr.

Everything is guarded by one dispatch lock, so events arriving from the
drain thread and the coordinator interleave into a single totally ordered
stream (the ``seq`` numbers the :class:`EventStream` assigns).

The monitor never touches simulation state and its producers are all
``if monitor is not None`` guarded, so a run without telemetry executes
the exact pre-telemetry code paths — the same structurally-off contract
as the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import os
import queue as queue_module
import sys
import threading
import time
from typing import TextIO

from .events import EventStream, RunEvent
from .registry import Histogram, MetricsRegistry

#: Bucket bounds (seconds) of the per-job wall-time histogram surfaced at
#: ``/metrics`` — sub-100ms cache-adjacent jobs up to multi-minute runs.
JOB_SECONDS_BOUNDS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0)

#: Minimum seconds between periodic ``progress`` events / renders.
_PROGRESS_INTERVAL = 0.5
_RENDER_INTERVAL = 0.2

#: Sentinel a closing monitor puts on its own worker queue so the drain
#: thread wakes immediately instead of waiting out its poll timeout.
_STOP = {"kind": "__stop__"}


class RunMonitor:
    """Aggregates run events into live status, metrics, and a JSONL stream.

    Parameters
    ----------
    stream:
        The :class:`EventStream` every event is appended to (an in-memory
        stream is created when omitted).
    live:
        Render a live progress line to ``out`` (default stderr) — the
        ``--monitor`` terminal view.
    label:
        Human-readable run label (experiment name) shown in the progress
        line and the ``/status`` document.
    run_key:
        Content key of the sweep (when known), echoed in ``/status``.
    """

    def __init__(
        self,
        *,
        stream: EventStream | None = None,
        live: bool = False,
        label: str = "",
        run_key: str | None = None,
        out: TextIO | None = None,
    ) -> None:
        self.stream = stream if stream is not None else EventStream()
        self.live = live
        self.label = label
        self.run_key = run_key
        self._out = out if out is not None else sys.stderr
        self._lock = threading.Lock()
        self._subscribers: list[queue_module.Queue] = []
        self._queue = None
        self._drain_thread: threading.Thread | None = None
        self._flush_waiters: list[threading.Event] = []
        self.closed = False
        self.started = time.time()
        self.finished_at: float | None = None
        # --- aggregate state (mutated only under the dispatch lock) ---
        self.jobs_total = 0
        self.completed = 0
        self.cache_hits = 0
        self.resumed = 0
        self.retries = 0
        self.failures = 0
        self.cancellations = 0
        self.errors = 0
        self.interrupted = 0
        self.engines: dict[str, int] = {}
        self.workers: set[int] = set()
        self._in_flight: dict[int, dict] = {}
        self._job_seconds = Histogram("repro_job_seconds", JOB_SECONDS_BOUNDS)
        self._last_progress = 0.0
        self._last_render = 0.0
        self._rendered = False

    # --- producer API -------------------------------------------------------

    def emit(self, kind: str, **data: object) -> None:
        """Dispatch one coordinator-side event (no-op after close)."""
        if self.closed:
            return
        self._dispatch(kind, None, data)

    def worker_queue(self):
        """The multiprocessing queue worker processes emit into.

        Created on first use, together with the daemon drain thread that
        folds worker payloads into the dispatch path.  Safe to hand to
        ``ProcessPoolExecutor`` initializers: the queue crosses the
        process-creation channel, not the pickled call path.
        """
        if self._queue is None:
            import multiprocessing

            self._queue = multiprocessing.Queue()
            self._drain_thread = threading.Thread(
                target=self._drain, name="telemetry-drain", daemon=True
            )
            self._drain_thread.start()
        return self._queue

    def tick(self) -> None:
        """Rate-limited periodic progress sample (coordinator poll loop)."""
        if self.closed:
            return
        now = time.time()
        if now - self._last_progress < _PROGRESS_INTERVAL:
            return
        self._last_progress = now
        self._dispatch(
            "progress",
            now,
            {
                "in_flight": len(self._in_flight),
                "completed": self.completed,
                "total": self.jobs_total,
            },
        )

    # --- dispatch -----------------------------------------------------------

    def flush(self, timeout: float = 2.0) -> None:
        """Wait until worker events queued before this call are dispatched.

        Puts a flush marker behind the backlog and waits for the drain
        thread to reach it, so a subsequent ``emit`` (e.g. ``run_finish``)
        is sequenced *after* every worker event already in flight.
        """
        if self._queue is None:
            return
        thread = self._drain_thread
        if thread is None or not thread.is_alive():
            return
        marker = threading.Event()
        with self._lock:
            self._flush_waiters.append(marker)
        try:
            self._queue.put_nowait({"kind": "__flush__"})
        except (OSError, ValueError):
            return
        marker.wait(timeout)

    def _drain(self) -> None:
        """Drain thread body: fold worker queue payloads into dispatch."""
        while True:
            try:
                payload = self._queue.get(timeout=0.2)
            except queue_module.Empty:
                if self.closed:
                    return
                continue
            except (EOFError, OSError, ValueError):
                return
            if not isinstance(payload, dict):
                continue
            kind = payload.pop("kind", None)
            if kind == "__stop__":
                return
            if kind == "__flush__":
                with self._lock:
                    waiter = (
                        self._flush_waiters.pop(0) if self._flush_waiters else None
                    )
                if waiter is not None:
                    waiter.set()
                continue
            if kind is None:
                continue
            t = payload.pop("t", None)
            self._dispatch(kind, t, payload)

    def _dispatch(self, kind: str, t: float | None, data: dict) -> None:
        """Append, aggregate, fan out, render — under the one event lock."""
        with self._lock:
            if self.closed:
                return
            event = self.stream.append(kind, t=t, **data)
            self._aggregate(event)
            for subscriber in self._subscribers:
                try:
                    subscriber.put_nowait(event)
                except queue_module.Full:
                    pass
            if self.live:
                self._render(event)

    def _aggregate(self, event: RunEvent) -> None:
        kind, data = event.kind, event.data
        if kind == "batch_start":
            self.jobs_total += int(data.get("jobs", 0))
        elif kind == "cache_hit":
            self.cache_hits += 1
            self.completed += 1
        elif kind == "job_resumed":
            self.resumed += 1
        elif kind == "job_start":
            pid = data.get("pid")
            if pid is not None:
                self.workers.add(int(pid))
            self._in_flight[data.get("index", -1)] = {
                "attempt": data.get("attempt", 0),
                "pid": pid,
                "t": event.t,
            }
        elif kind == "job_finish":
            self.completed += 1
            self._in_flight.pop(data.get("index", -1), None)
            seconds = data.get("seconds")
            if isinstance(seconds, (int, float)):
                self._job_seconds.observe(float(seconds))
            engine = data.get("engine")
            if engine:
                self.engines[engine] = self.engines.get(engine, 0) + 1
        elif kind == "job_cancel":
            self.cancellations += 1
            self._in_flight.pop(data.get("index", -1), None)
        elif kind == "job_error":
            self.errors += 1
            self._in_flight.pop(data.get("index", -1), None)
        elif kind == "job_retry":
            self.retries += 1
        elif kind == "job_failed":
            self.failures += 1
        elif kind == "job_interrupted":
            self.interrupted += 1
            self._in_flight.pop(data.get("index", -1), None)
        elif kind == "run_finish":
            self.finished_at = event.t

    # --- sink API -----------------------------------------------------------

    def subscribe(self, maxsize: int = 1024) -> queue_module.Queue:
        """A live event queue for one consumer (the SSE handler)."""
        subscriber: queue_module.Queue = queue_module.Queue(maxsize=maxsize)
        with self._lock:
            self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: queue_module.Queue) -> None:
        with self._lock:
            try:
                self._subscribers.remove(subscriber)
            except ValueError:
                pass

    def snapshot(self) -> dict:
        """The ``/status`` document: totals, in-flight jobs, recent events."""
        with self._lock:
            now = time.time()
            in_flight = [
                {
                    "index": index,
                    "attempt": info.get("attempt", 0),
                    "pid": info.get("pid"),
                    "seconds": round(now - info.get("t", now), 3),
                }
                for index, info in sorted(self._in_flight.items())
            ]
            done = self.completed + self.resumed
            return {
                "label": self.label,
                "run_key": self.run_key,
                "started": round(self.started, 6),
                "elapsed_seconds": round(
                    (self.finished_at or now) - self.started, 3
                ),
                "finished": self.finished_at is not None,
                "jobs_total": self.jobs_total,
                "completed": self.completed,
                "cache_hits": self.cache_hits,
                "resumed": self.resumed,
                "in_flight": in_flight,
                "in_flight_count": len(in_flight),
                "retries": self.retries,
                "failures": self.failures,
                "cancellations": self.cancellations,
                "errors": self.errors,
                "interrupted": self.interrupted,
                "engines": dict(sorted(self.engines.items())),
                "workers": sorted(self.workers),
                "events_total": self.stream.appended,
                "events_dropped": self.stream.dropped,
                "recent_events": [
                    event.to_dict() for event in self.stream.tail(20)
                ],
            }

    def registry(self) -> MetricsRegistry:
        """A fresh ``MetricsRegistry`` view of the aggregate state.

        Feeds the ``/metrics`` Prometheus endpoint; names are prefixed
        ``repro_`` so they can merge into wider registries unambiguously.
        """
        with self._lock:
            reg = MetricsRegistry()
            reg.counter("repro_jobs_total").inc(self.jobs_total)
            reg.counter("repro_jobs_completed").inc(self.completed)
            reg.counter("repro_cache_hits").inc(self.cache_hits)
            reg.counter("repro_jobs_resumed").inc(self.resumed)
            reg.counter("repro_job_retries").inc(self.retries)
            reg.counter("repro_job_failures").inc(self.failures)
            reg.counter("repro_job_cancellations").inc(self.cancellations)
            reg.counter("repro_job_errors").inc(self.errors)
            reg.counter("repro_events_total").inc(self.stream.appended)
            reg.counter("repro_events_dropped").inc(self.stream.dropped)
            reg.gauge("repro_jobs_in_flight").set(float(len(self._in_flight)))
            reg.gauge("repro_run_elapsed_seconds").set(
                round((self.finished_at or time.time()) - self.started, 3)
            )
            reg.gauge("repro_run_finished").set(
                1.0 if self.finished_at is not None else 0.0
            )
            for engine, count in sorted(self.engines.items()):
                reg.counter(f"repro_engine_jobs_{engine}").inc(count)
            if self._job_seconds.total:
                h = reg.histogram("repro_job_seconds", JOB_SECONDS_BOUNDS)
                for i, count in enumerate(self._job_seconds.counts):
                    h.counts[i] += count
                h.overflow += self._job_seconds.overflow
                h.total += self._job_seconds.total
                h.sum += self._job_seconds.sum
            return reg

    # --- live terminal renderer ---------------------------------------------

    def _render(self, event: RunEvent, force: bool = False) -> None:
        now = time.time()
        if not force and now - self._last_render < _RENDER_INTERVAL:
            return
        self._last_render = now
        elapsed = int((self.finished_at or now) - self.started)
        label = f" {self.label}" if self.label else ""
        line = (
            f"[monitor]{label} {self.completed}/{self.jobs_total} jobs | "
            f"{len(self._in_flight)} in flight | hits {self.cache_hits}"
        )
        if self.resumed:
            line += f" | resumed {self.resumed}"
        if self.retries:
            line += f" | retries {self.retries}"
        if self.cancellations:
            line += f" | cancelled {self.cancellations}"
        if self.failures:
            line += f" | failed {self.failures}"
        line += f" | {elapsed // 60:02d}:{elapsed % 60:02d}"
        try:
            self._out.write("\r\x1b[2K" + line)
            self._out.flush()
            self._rendered = True
        except (OSError, ValueError):
            self.live = False

    # --- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Stop the drain thread, finish the render line, flush the stream.

        The worker-queue backlog is drained *before* the monitor marks
        itself closed: the stop sentinel queues FIFO behind any events
        still in flight, so late worker events are dispatched, not
        dropped.
        """
        if self.closed:
            return
        if self._queue is not None:
            try:
                self._queue.put_nowait(dict(_STOP))
            except (OSError, ValueError):
                pass
            if self._drain_thread is not None:
                self._drain_thread.join(timeout=2.0)
            try:
                self._queue.close()
                self._queue.cancel_join_thread()
            except (OSError, ValueError):
                pass
        with self._lock:
            if self.closed:
                return
            if self.live:
                self._render(RunEvent(0, time.time(), "close"), force=True)
            self.closed = True
            if self._rendered:
                try:
                    self._out.write("\n")
                    self._out.flush()
                except (OSError, ValueError):
                    pass
        # Wake blocked subscribers (SSE loops poll `closed` between gets).
        with self._lock:
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            try:
                subscriber.put_nowait(None)
            except queue_module.Full:
                pass
        self.stream.close()


def emit_worker_event(queue, kind: str, **data: object) -> None:
    """Best-effort event put from a worker process (never fails the job)."""
    if queue is None:
        return
    payload = {"kind": kind, "t": time.time(), "pid": os.getpid(), **data}
    try:
        queue.put_nowait(payload)
    except Exception:
        pass
