"""Structured run-telemetry events: the sweep's streaming event bus.

One :class:`RunEvent` describes one thing that happened during a sweep —
a job starting in a worker, a cache hit, a retry after a crash, a
periodic in-flight progress sample.  Events are the *execution layer's*
telemetry (jobs, workers, retries, wall clock), complementing the
*simulator-level* telemetry of :mod:`repro.obs.trace` (flits, pipeline
stages, cycles): the tracer answers "what did the network do", the event
stream answers "what is my sweep doing right now".

:class:`EventStream` is the append-only spine every sink hangs off:

* events are assigned a monotonically increasing ``seq`` at append time,
  so any consumer can re-establish total order;
* each event is appended to a JSONL file next to the
  :class:`~repro.parallel.journal.RunJournal` (one short ``write`` per
  line, so the file stays line-valid under crashes);
* a bounded in-memory ring keeps the recent tail for replay (``/events``
  SSE replay, the Chrome-trace exporter) with an explicit drop counter —
  a runaway event storm truncates loudly, never silently.

Event kinds written by the coordinator and workers:

==================  ======================================================
kind                meaning
==================  ======================================================
``run_start``       a sweep (one :func:`execute_spec`) began
``batch_start``     one runner batch began (``jobs`` = batch size)
``cache_hit``       a job was served from the result cache
``job_resumed``     ``--resume`` skipped a journaled-complete job
``job_start``       a worker picked the job up (worker-side, carries pid)
``job_finish``      the job completed (worker-side: seconds, engine,
                    phase spans, ``vec_kernel_cycles`` when profiled)
``job_cancel``      the job blew its time budget; its worker was killed
``job_error``       one attempt failed (``reason``: crash|error)
``job_retry``       the job was requeued after a failed attempt
``job_failed``      the job exhausted its retry budget
``job_interrupted`` collateral of a kill/crash elsewhere; requeued
``progress``        periodic in-flight sample (in_flight/completed/total)
``run_finish``      the sweep ended (carries the final stats dict)
==================  ======================================================
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

#: Every event kind the coordinator or a worker may emit (see module doc).
EVENT_KINDS = (
    "run_start",
    "batch_start",
    "cache_hit",
    "job_resumed",
    "job_start",
    "job_finish",
    "job_cancel",
    "job_error",
    "job_retry",
    "job_failed",
    "job_interrupted",
    "progress",
    "run_finish",
)

#: Default in-memory ring capacity (events); the JSONL file is unbounded.
DEFAULT_BUFFER = 100_000


@dataclass(frozen=True)
class RunEvent:
    """One telemetry event: sequence number, wall-clock stamp, kind, data."""

    seq: int
    t: float
    kind: str
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Flat JSON-able form (the JSONL/SSE wire schema)."""
        return {"seq": self.seq, "t": round(self.t, 6), "kind": self.kind, **self.data}

    @classmethod
    def from_dict(cls, payload: dict) -> "RunEvent":
        """Rebuild an event from its :meth:`to_dict` form."""
        data = {
            k: v for k, v in payload.items() if k not in ("seq", "t", "kind")
        }
        return cls(
            seq=int(payload.get("seq", 0)),
            t=float(payload.get("t", 0.0)),
            kind=str(payload.get("kind", "?")),
            data=data,
        )


def event_stream_path(run_key: str) -> Path:
    """On-disk event stream location for one run (spec content key).

    Lives next to the run journal (``<cache root>/events/<run key>.jsonl``)
    so the journal and the event stream of one sweep are siblings.
    """
    from repro.parallel.cache import default_cache_dir

    return default_cache_dir() / "events" / f"{run_key}.jsonl"


class EventStream:
    """Ordered event sink: seq assignment, JSONL append, bounded replay ring.

    Not thread-safe by itself — :class:`~repro.obs.monitor.RunMonitor`
    serializes every append under its dispatch lock.  Filesystem errors
    degrade to "no file" (the journal's durability contract): the stream
    accelerates observation, it is never a dependency of the sweep.
    """

    def __init__(
        self, path: str | Path | None = None, *, capacity: int = DEFAULT_BUFFER
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.path = Path(path) if path is not None else None
        self.capacity = capacity
        self._events: deque[RunEvent] = deque(maxlen=capacity)
        self._handle = None
        self._next_seq = 0
        #: Events appended so far (ring-dropped ones included).
        self.appended = 0

    # --- append ------------------------------------------------------------

    def append(self, kind: str, t: float | None = None, **data: object) -> RunEvent:
        """Record one event: assign its seq, buffer it, write the JSONL line."""
        event = RunEvent(
            seq=self._next_seq,
            t=time.time() if t is None else t,
            kind=kind,
            data=data,
        )
        self._next_seq += 1
        self.appended += 1
        self._events.append(event)
        self._write(event)
        return event

    def _write(self, event: RunEvent) -> None:
        if self.path is None:
            return
        try:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "a")
            self._handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
            self._handle.flush()
        except OSError:
            # Same contract as the run journal: never fail the sweep over
            # a telemetry file.  Disable further writes for this stream.
            self._handle = None
            self.path = None

    def close(self) -> None:
        """Flush and release the JSONL handle (idempotent)."""
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass

    # --- introspection / replay --------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[RunEvent]:
        return iter(tuple(self._events))

    @property
    def dropped(self) -> int:
        """Events no longer in the replay ring (oldest-first truncation)."""
        return self.appended - len(self._events)

    def events(self) -> list[RunEvent]:
        """The buffered events, oldest first."""
        return list(self._events)

    def tail(self, n: int) -> list[RunEvent]:
        """The most recent ``n`` buffered events, oldest first."""
        if n <= 0:
            return []
        buffered = tuple(self._events)
        return list(buffered[-n:])

    # --- load --------------------------------------------------------------

    @staticmethod
    def load(path: str | Path) -> list[RunEvent]:
        """Every well-formed event of a JSONL stream file, in write order.

        A missing file is an empty stream; malformed lines (torn by a
        crash) are skipped, mirroring :meth:`RunJournal.load`.
        """
        try:
            raw = Path(path).read_text()
        except OSError:
            return []
        events = []
        for line in raw.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                continue
            if isinstance(payload, dict) and "kind" in payload:
                events.append(RunEvent.from_dict(payload))
        return events


def ordered(events: Iterable[RunEvent]) -> list[RunEvent]:
    """Events sorted by sequence number (total order re-established)."""
    return sorted(events, key=lambda event: event.seq)
