"""Fan simulation jobs out over worker processes, in order, with a cache.

The runner's contract is *serial equivalence*: ``ParallelRunner.run(jobs)``
returns results in job order with field-for-field the same values a serial
loop would produce — simulations are deterministic from their spec, so the
only thing parallelism changes is the wall clock.  Failure handling keeps
that contract under duress:

* results are collected ``as_completed`` and written back to the cache
  (and the run journal) the moment they land, so a killed sweep keeps
  every completed job;
* a job that exceeds its ``timeout`` budget is *genuinely cancelled*:
  the pool's workers are SIGKILLed, so pool shutdown never blocks on a
  hung worker and the timed-out job is never executed twice by a zombie;
* failed jobs are retried per *job* (``max_retries``, capped exponential
  backoff), one job per worker submission, so a crash never takes a
  healthy job's retry budget with it;
* whatever still fails after the retry budget is executed inline in the
  parent process (with a warning), so a broken multiprocessing stack
  degrades to the serial behaviour instead of a crash — except jobs that
  *timed out* on every attempt, which raise :class:`JobTimeoutError`
  (re-running a hanging job inline would hang the driver uncancellably).
"""

from __future__ import annotations

import os
import time
import warnings
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Collection, Sequence

from repro import settings
from repro.obs import (
    emit_worker_event,
    env_observability_enabled,
    profiled_call,
    spans_from_counters,
)

if TYPE_CHECKING:
    from repro.obs import RunMonitor

from .cache import ResultCache
from .faults import inject_fault
from .jobs import SimJob
from .journal import RunJournal

if TYPE_CHECKING:  # imported lazily at runtime: repro.sim imports us back
    from repro.sim.engine import SimulationResult

#: Ceiling on one retry's backoff sleep, whatever the attempt number.
BACKOFF_CAP_SECONDS = 2.0

#: Poll granularity of the timeout watchdog (seconds).  Budgets are only
#: enforceable to this resolution; it also bounds how stale a freshly
#: started future's deadline assignment can be.
_POLL_TICK = 0.05

#: Poll granularity when only the telemetry monitor needs servicing (no
#: per-job timeout): coarse enough to stay invisible in profiles, fine
#: enough for sub-second progress events.
_MONITOR_TICK = 0.25

#: The telemetry queue of the current process, when a monitor is active.
#: Set in worker processes by the pool initializer (the queue rides the
#: process-creation channel) and in the coordinator by ``_execute`` so
#: the serial and inline-fallback paths emit through the same channel.
#: ``None`` (the default) keeps ``_run_job`` on its pre-telemetry path.
_WORKER_EVENT_QUEUE = None


def _init_worker_events(queue) -> None:
    """Pool initializer: adopt the monitor's worker event queue."""
    global _WORKER_EVENT_QUEUE
    _WORKER_EVENT_QUEUE = queue


class JobTimeoutError(TimeoutError):
    """A job exceeded its time budget on every allowed attempt.

    Raised instead of the inline fallback: a job that hangs in workers
    would hang the parent too, with no way left to cancel it.
    """


def resolve_jobs(jobs: int | str | None = None) -> int:
    """Resolve a worker-count spec to a positive integer.

    ``None`` defers to ``$REPRO_JOBS`` (default 1 — serial); ``"auto"`` or
    any value < 1 means one worker per CPU core.
    """
    jobs = settings.resolve("REPRO_JOBS", jobs)
    if jobs == "auto" or jobs < 1:
        return os.cpu_count() or 1
    return jobs


def resolve_timeout(timeout: float | None = None) -> float | None:
    """Resolve a per-job timeout: explicit argument beats ``$REPRO_TIMEOUT``.

    ``None`` with the variable unset means no budget.
    """
    return settings.resolve("REPRO_TIMEOUT", timeout)


def resolve_max_retries(max_retries: int | None = None) -> int:
    """Resolve the per-job retry budget (``$REPRO_MAX_RETRIES``, default 2)."""
    return settings.resolve("REPRO_MAX_RETRIES", max_retries)


def resolve_backoff(backoff: float | None = None) -> float:
    """Resolve the base retry backoff (``$REPRO_RETRY_BACKOFF``, default 0.05s)."""
    return settings.resolve("REPRO_RETRY_BACKOFF", backoff)


@dataclass
class ExecutionStats:
    """Counters describing how a batch of jobs was actually executed."""

    jobs_run: int = 0
    cache_hits: int = 0
    worker_retries: int = 0
    inline_fallbacks: int = 0
    wall_seconds: float = 0.0
    #: Hung futures whose workers were SIGKILLed on a ``timeout`` expiry.
    cancellations: int = 0
    #: Jobs skipped on ``--resume`` (journaled complete + served by cache).
    resumed_jobs: int = 0
    #: Router idle-to-busy transitions across the freshly executed runs
    #: (activity-gated stepping; cached results contribute nothing).
    router_wakeups: int = 0
    #: Cycles fast-forwarded instead of simulated across the fresh runs.
    cycles_skipped: int = 0
    #: Wall time of the slowest single job (cache hits excluded).
    max_job_seconds: float = 0.0
    #: Per-phase (warmup/measure/drain) wall time summed over the fresh
    #: runs; only populated when profiling is on (``REPRO_PROFILE``).
    #: Every run that steps the SoA kernel adds a ``kernel`` phase (the
    #: fabric's kernel phases, monolithic or partitioned); worker-mode
    #: partitions report no spans.
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: Fresh jobs per engine backend that stepped them (cache hits
    #: excluded; a vectorized run that delegated counts under ``gated``).
    engine_jobs: dict[str, int] = field(default_factory=dict)
    #: Cycles executed through the SoA array kernel across the fresh runs
    #: (the vectorized counterpart of ``router_wakeups``; low-load runs
    #: that delegated to the gated engine contribute nothing).
    vec_kernel_cycles: int = 0
    #: Flit-trace events lost to ring-buffer wraps across the fresh runs
    #: (nonzero only with tracing on and ``REPRO_TRACE_BUFFER`` too small
    #: — the signal that the trace file is a truncated view).
    trace_dropped_events: int = 0

    def merge(self, other: "ExecutionStats") -> None:
        """Accumulate another stats block into this one."""
        self.jobs_run += other.jobs_run
        self.cache_hits += other.cache_hits
        self.worker_retries += other.worker_retries
        self.inline_fallbacks += other.inline_fallbacks
        self.wall_seconds += other.wall_seconds
        self.cancellations += other.cancellations
        self.resumed_jobs += other.resumed_jobs
        self.router_wakeups += other.router_wakeups
        self.cycles_skipped += other.cycles_skipped
        self.vec_kernel_cycles += other.vec_kernel_cycles
        self.trace_dropped_events += other.trace_dropped_events
        if other.max_job_seconds > self.max_job_seconds:
            self.max_job_seconds = other.max_job_seconds
        for phase, seconds in other.phase_seconds.items():
            self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds
        for engine, count in other.engine_jobs.items():
            self.engine_jobs[engine] = self.engine_jobs.get(engine, 0) + count

    def absorb_counters(self, counters: dict, engine: str | None = None) -> None:
        """Fold one simulation's activity counters into the batch view."""
        self.router_wakeups += counters.get("router_wakeups", 0)
        self.cycles_skipped += counters.get("cycles_skipped", 0)
        self.vec_kernel_cycles += counters.get("vec_kernel_cycles", 0)
        self.trace_dropped_events += counters.get("trace_dropped_events", 0)
        if engine is not None:
            self.engine_jobs[engine] = self.engine_jobs.get(engine, 0) + 1
        for phase, seconds in spans_from_counters(counters).items():
            self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    def observe_job(self, seconds: float) -> None:
        """Track one freshly executed job's wall time (max across jobs)."""
        if seconds > self.max_job_seconds:
            self.max_job_seconds = seconds

    def as_dict(self) -> dict:
        """Plain-dict view (stable keys; used by JSON export and footers)."""
        data = {
            "jobs_run": self.jobs_run,
            "cache_hits": self.cache_hits,
            "worker_retries": self.worker_retries,
            "inline_fallbacks": self.inline_fallbacks,
            "wall_seconds": round(self.wall_seconds, 3),
            "cancellations": self.cancellations,
            "resumed_jobs": self.resumed_jobs,
            "router_wakeups": self.router_wakeups,
            "cycles_skipped": self.cycles_skipped,
            "vec_kernel_cycles": self.vec_kernel_cycles,
            "trace_dropped_events": self.trace_dropped_events,
            "max_job_seconds": round(self.max_job_seconds, 3),
        }
        if self.engine_jobs:
            data["engine_jobs"] = dict(sorted(self.engine_jobs.items()))
        if self.phase_seconds:
            data["phase_seconds"] = {
                phase: round(seconds, 3)
                for phase, seconds in sorted(self.phase_seconds.items())
            }
        return data

    def publish(self, registry) -> None:
        """Publish the batch counters into an obs ``MetricsRegistry``.

        Counter/gauge names are prefixed ``runner_`` so they can never
        collide with simulator-side metrics merged into the same registry.
        """
        registry.counter("runner_jobs_run").inc(self.jobs_run)
        registry.counter("runner_cache_hits").inc(self.cache_hits)
        registry.counter("runner_worker_retries").inc(self.worker_retries)
        registry.counter("runner_inline_fallbacks").inc(self.inline_fallbacks)
        registry.counter("runner_cancellations").inc(self.cancellations)
        registry.counter("runner_resumed_jobs").inc(self.resumed_jobs)
        registry.gauge("runner_wall_seconds").set(round(self.wall_seconds, 3))
        registry.gauge("runner_max_job_seconds").set(round(self.max_job_seconds, 3))
        registry.counter("runner_vec_kernel_cycles").inc(self.vec_kernel_cycles)
        registry.counter("runner_trace_dropped_events").inc(self.trace_dropped_events)
        for engine, count in sorted(self.engine_jobs.items()):
            registry.counter(f"runner_engine_jobs_{engine}").inc(count)

    def summary(self) -> str:
        """One-line human-readable form for table footers."""
        line = (
            f"jobs run: {self.jobs_run} | cache hits: {self.cache_hits} | "
            f"worker retries: {self.worker_retries} | "
            f"inline fallbacks: {self.inline_fallbacks} | "
            f"wall: {self.wall_seconds:.2f}s | "
            f"max job: {self.max_job_seconds:.2f}s | "
            f"router wakeups: {self.router_wakeups} | "
            f"cycles skipped: {self.cycles_skipped}"
        )
        if self.cancellations:
            line += f" | cancellations: {self.cancellations}"
        if self.resumed_jobs:
            line += f" | resumed: {self.resumed_jobs}"
        if self.engine_jobs:
            mix = " ".join(
                f"{engine}={count}"
                for engine, count in sorted(self.engine_jobs.items())
            )
            line += f" | engines: {mix}"
        if self.vec_kernel_cycles:
            line += f" | vec kernel cycles: {self.vec_kernel_cycles}"
        if self.trace_dropped_events:
            line += f" | trace dropped events: {self.trace_dropped_events}"
        if self.phase_seconds:
            spans = " ".join(
                f"{phase}={seconds:.2f}s"
                for phase, seconds in sorted(self.phase_seconds.items())
            )
            line += f" | phases: {spans}"
        return line


def _resolved_engine(job: SimJob, counters: dict) -> str:
    """The engine that stepped a finished job (see ``resolve_engine``).

    Only ever asked about freshly executed jobs: resolving looks at the
    configuration (it builds a topology), which a cache hit must not pay.
    """
    from repro.sim.engines import resolve_engine

    return resolve_engine(
        job.config, job.engine, partition=job.partition, counters=counters
    )


def _run_sim_job(job: SimJob) -> SimulationResult:
    """Module-level worker entry point (must be picklable).

    With ``REPRO_PROFILE_DIR`` set the job runs under ``cProfile`` and
    dumps ``job-<key-prefix>.pstats`` into that directory — one profile
    per simulation, valid in workers and inline alike.
    """
    profile_dir = settings.get("REPRO_PROFILE_DIR")
    if profile_dir:
        return profiled_call(job.run, profile_dir, f"job-{job.key()[:16]}")
    return job.run()


def _job_event_data(item, value) -> dict:
    """Telemetry payload extras for one finished job (best-effort)."""
    data: dict = {}
    try:
        counters = getattr(value, "counters", None)
        if isinstance(item, SimJob):
            if isinstance(counters, dict):
                data["engine"] = _resolved_engine(item, counters)
            data["key"] = item.key()[:16]
        if isinstance(counters, dict):
            spans = spans_from_counters(counters)
            if spans:
                data["spans"] = {
                    phase: round(seconds, 6) for phase, seconds in spans.items()
                }
            if counters.get("vec_kernel_cycles"):
                data["vec_kernel_cycles"] = counters["vec_kernel_cycles"]
            if counters.get("partition_domains"):
                data["partition_domains"] = counters["partition_domains"]
                data["interchip_flits"] = counters.get("interchip_flits", 0)
    except Exception:
        pass  # telemetry decoration must never fail the job
    return data


def _run_job(fn: Callable, index: int, attempt: int, item) -> tuple:
    """Execute one attempt of one job; the worker entry point.

    Returns ``(value, wall_seconds)`` so the parent can track the slowest
    individual job without a second round trip.  With ``$REPRO_FAULTS``
    set, the deterministic fault hooks fire first (see
    :mod:`repro.parallel.faults`).  With a run monitor active, the job
    brackets itself in ``job_start``/``job_finish`` events on the
    telemetry queue (best-effort puts that can never fail the job).
    """
    queue = _WORKER_EVENT_QUEUE
    inject_fault(index, attempt)
    if queue is not None:
        emit_worker_event(queue, "job_start", index=index, attempt=attempt)
    start = time.perf_counter()
    value = fn(item)
    seconds = time.perf_counter() - start
    if queue is not None:
        emit_worker_event(
            queue,
            "job_finish",
            index=index,
            attempt=attempt,
            seconds=round(seconds, 6),
            **_job_event_data(item, value),
        )
    return value, seconds


def _kill_workers(pool: ProcessPoolExecutor) -> int:
    """SIGKILL every live worker of ``pool`` (genuine hung-job cancellation).

    ``ProcessPoolExecutor`` exposes no public way to cancel a *running*
    call, so this reaches for the executor's process table; the attribute
    is absent only on never-started pools, which have nothing to kill.
    """
    processes = getattr(pool, "_processes", None) or {}
    killed = 0
    for proc in list(processes.values()):
        if proc.is_alive():
            proc.kill()
            killed += 1
    return killed


@dataclass
class _Job:
    """Retry bookkeeping for one item of an ``_execute`` batch."""

    index: int
    item: object
    attempt: int = 0
    timed_out: bool = False
    error: BaseException | None = None


class ParallelRunner:
    """Ordered fan-out of independent jobs over worker processes.

    Parameters
    ----------
    jobs:
        Worker count (see :func:`resolve_jobs`).  1 executes inline.
    cache:
        ``"default"`` for the environment-configured :class:`ResultCache`,
        ``None`` to disable, or an explicit cache instance.  Only
        :meth:`run` (SimJob execution) consults the cache; :meth:`map` is
        for arbitrary callables and always executes.
    timeout:
        Optional per-job seconds budget (default ``$REPRO_TIMEOUT``).  A
        job that exceeds it after starting is treated as hung: its pool's
        workers are killed and the job is retried in a fresh pool.
    max_retries:
        Per-job retry budget after a crash/timeout/exception (default
        ``$REPRO_MAX_RETRIES`` or 2).  Jobs that exhaust it fall back to
        inline execution (timeouts instead raise :class:`JobTimeoutError`).
    backoff:
        Base seconds of the capped exponential retry backoff (default
        ``$REPRO_RETRY_BACKOFF`` or 0.05; attempt ``n`` sleeps
        ``backoff * 2**(n-1)``, capped at :data:`BACKOFF_CAP_SECONDS`).
    journal:
        Optional :class:`~repro.parallel.journal.RunJournal` that
        :meth:`run` records per-job progress into.
    resumed_keys:
        Job keys a previous interrupted run journaled complete; cache
        hits on them count as ``resumed_jobs``.
    monitor:
        Optional :class:`~repro.obs.monitor.RunMonitor` receiving the
        run's streaming telemetry (job/cache/retry lifecycle events from
        the coordinator, ``job_start``/``job_finish`` from the workers).
        ``None`` (the default) executes the exact pre-telemetry paths.
    """

    def __init__(
        self,
        jobs: int | str | None = None,
        *,
        cache: ResultCache | str | None = "default",
        timeout: float | None = None,
        max_retries: int | None = None,
        backoff: float | None = None,
        journal: RunJournal | None = None,
        resumed_keys: Collection[str] = (),
        monitor: "RunMonitor | None" = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        if cache == "default":
            # Observability-enabled runs must execute: a cached result was
            # produced without probes/tracing and carries no metrics.
            cache = None if env_observability_enabled() else ResultCache.default()
        self.cache = cache
        self.timeout = resolve_timeout(timeout)
        self.max_retries = resolve_max_retries(max_retries)
        self.backoff = resolve_backoff(backoff)
        self.journal = journal
        self.resumed_keys = frozenset(resumed_keys)
        self.monitor = monitor
        self.stats = ExecutionStats()

    # --- SimJob execution (cached) ----------------------------------------

    def run(self, sim_jobs: Sequence[SimJob]) -> list[SimulationResult]:
        """Execute every job, returning results in job order.

        Cache hits are served without running; misses are executed (in
        parallel when ``jobs > 1``) and written back to the cache and the
        journal *as they complete*, so an interrupted run keeps every
        finished job.
        """
        start = time.perf_counter()
        monitor = self.monitor
        if monitor is not None:
            monitor.emit("batch_start", jobs=len(sim_jobs))
        results: list[SimulationResult | None] = [None] * len(sim_jobs)
        miss_indices: list[int] = []
        keys: dict[int, str] = {}
        if self.cache is not None or self.journal is not None:
            for i, job in enumerate(sim_jobs):
                keys[i] = key = job.key()
                hit = self.cache.get(key) if self.cache is not None else None
                if hit is not None:
                    results[i] = hit
                    self.stats.cache_hits += 1
                    if monitor is not None:
                        monitor.emit("cache_hit", index=i, key=key[:16])
                    if key in self.resumed_keys:
                        self.stats.resumed_jobs += 1
                        if monitor is not None:
                            monitor.emit("job_resumed", index=i, key=key[:16])
                        if self.journal is not None:
                            self.journal.record(key, "resumed")
                else:
                    miss_indices.append(i)
        else:
            miss_indices = list(range(len(sim_jobs)))

        try:
            if miss_indices:
                def on_result(mi: int, result, seconds: float, attempt: int) -> None:
                    i = miss_indices[mi]
                    results[i] = result
                    self.stats.jobs_run += 1
                    self.stats.absorb_counters(
                        result.counters,
                        engine=_resolved_engine(sim_jobs[i], result.counters),
                    )
                    if self.cache is not None:
                        self.cache.put(keys[i], result)
                    if self.journal is not None:
                        self.journal.record(
                            keys[i], "completed", attempt=attempt, seconds=seconds
                        )

                on_event = None
                if self.journal is not None:
                    def on_event(mi: int, status: str, attempt: int) -> None:
                        self.journal.record(
                            keys[miss_indices[mi]], status, attempt=attempt
                        )

                self._execute(
                    _run_sim_job,
                    [sim_jobs[i] for i in miss_indices],
                    on_result=on_result,
                    on_event=on_event,
                )
        finally:
            self.stats.wall_seconds += time.perf_counter() - start
        return results  # type: ignore[return-value] — every slot is filled

    # --- generic execution (uncached) --------------------------------------

    def map(self, fn: Callable, items: Sequence) -> list:
        """Apply a picklable callable to every item, preserving order."""
        start = time.perf_counter()
        if self.monitor is not None:
            self.monitor.emit("batch_start", jobs=len(items))
        try:
            outputs = self._execute(fn, list(items))
            self.stats.jobs_run += len(items)
        finally:
            self.stats.wall_seconds += time.perf_counter() - start
        return outputs

    # --- machinery ----------------------------------------------------------

    def _execute(
        self,
        fn: Callable,
        items: list,
        on_result: Callable | None = None,
        on_event: Callable | None = None,
    ) -> list:
        """Run ``fn`` over ``items``, returning values in item order.

        ``on_result(index, value, seconds, attempt)`` streams each
        completion the moment it lands (the cache/journal write-back
        path); ``on_event(index, status, attempt)`` reports per-job
        failure lifecycle (``timeout``/``crash``/``error``, then
        ``retry`` or ``failed``).
        """
        results: list = [None] * len(items)
        done = [False] * len(items)

        def record(job: _Job, value, seconds: float) -> None:
            if done[job.index]:
                return
            done[job.index] = True
            results[job.index] = value
            self.stats.observe_job(seconds)
            if on_result is not None:
                on_result(job.index, value, seconds, job.attempt)

        job_states = [_Job(i, item) for i, item in enumerate(items)]
        workers = min(self.jobs, len(items))
        monitor = self.monitor
        global _WORKER_EVENT_QUEUE
        saved_queue = _WORKER_EVENT_QUEUE
        if monitor is not None:
            # Coordinator-side paths (serial and inline fallback) emit
            # through the same queue the pool initializer hands workers.
            _WORKER_EVENT_QUEUE = monitor.worker_queue()
        try:
            if workers <= 1:
                for job in job_states:
                    record(job, *_run_job(fn, job.index, 0, job.item))
                    if monitor is not None:
                        monitor.tick()
                return results

            pending: deque[_Job] = deque(job_states)
            exhausted: list[_Job] = []
            pool_failures = 0
            while pending:
                generation = list(pending)
                pending.clear()
                failures = self._run_generation(fn, generation, workers, record)
                if failures is None:
                    # The pool itself could not be built (broken
                    # multiprocessing stack): nothing ran, retry whole.
                    pool_failures += 1
                    if pool_failures > max(1, self.max_retries):
                        exhausted.extend(
                            j for j in generation if not done[j.index]
                        )
                    else:
                        pending.extend(generation)
                    continue
                backoff_delay = 0.0
                for job, kind, error in failures:
                    if kind == "interrupted":
                        # Collateral of killing another job's hung worker
                        # (or of a pool break before the job started): it
                        # never ran to completion, so re-running it is a
                        # continuation, not a duplicate — and not the job's
                        # own failure, so its retry budget is untouched.
                        if monitor is not None and not done[job.index]:
                            monitor.emit(
                                "job_interrupted",
                                index=job.index,
                                attempt=job.attempt,
                            )
                        pending.append(job)
                        continue
                    job.attempt += 1
                    job.timed_out = kind == "timeout"
                    job.error = error
                    if on_event is not None:
                        on_event(job.index, kind, job.attempt)
                    if monitor is not None:
                        if kind == "timeout":
                            monitor.emit(
                                "job_cancel", index=job.index, attempt=job.attempt
                            )
                        else:
                            monitor.emit(
                                "job_error",
                                index=job.index,
                                attempt=job.attempt,
                                reason=kind,
                                error=str(error) if error is not None else None,
                            )
                    if job.attempt > self.max_retries:
                        if on_event is not None:
                            on_event(job.index, "failed", job.attempt)
                        if monitor is not None:
                            monitor.emit(
                                "job_failed",
                                index=job.index,
                                attempt=job.attempt,
                                reason=kind,
                            )
                        exhausted.append(job)
                    else:
                        self.stats.worker_retries += 1
                        if on_event is not None:
                            on_event(job.index, "retry", job.attempt)
                        if monitor is not None:
                            monitor.emit(
                                "job_retry", index=job.index, attempt=job.attempt
                            )
                        pending.append(job)
                        backoff_delay = max(
                            backoff_delay, self._backoff_delay(job.attempt)
                        )
                if backoff_delay > 0.0 and pending:
                    time.sleep(backoff_delay)
            if exhausted:
                self._finish_inline(fn, exhausted, record)
            return results
        finally:
            _WORKER_EVENT_QUEUE = saved_queue

    def _backoff_delay(self, attempt: int) -> float:
        """Capped exponential backoff before retry ``attempt`` (1-based)."""
        if self.backoff <= 0.0:
            return 0.0
        return min(BACKOFF_CAP_SECONDS, self.backoff * (2.0 ** (attempt - 1)))

    def _run_generation(
        self,
        fn: Callable,
        jobs: list[_Job],
        workers: int,
        record: Callable,
    ) -> list[tuple[_Job, str, BaseException | None]] | None:
        """Run one pool generation over ``jobs``, one submission per job.

        Completed jobs stream through ``record`` as they finish
        (``as_completed`` collection, not submission order).  Returns
        ``(job, kind, error)`` for every job that did not complete:
        ``"timeout"`` (blew its budget; its workers were killed),
        ``"crash"`` (worker died), ``"error"`` (the job raised), or
        ``"interrupted"`` (collateral of a kill/crash elsewhere).
        Returns ``None`` when the pool could not be constructed at all.
        """
        init_kwargs: dict = {}
        if self.monitor is not None:
            # The queue rides the process-creation channel (initargs), the
            # only place a multiprocessing.Queue may legally cross.
            init_kwargs = {
                "initializer": _init_worker_events,
                "initargs": (self.monitor.worker_queue(),),
            }
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(workers, len(jobs)), **init_kwargs
            )
        except Exception:
            return None
        failures: list[tuple[_Job, str, BaseException | None]] = []
        futures: dict = {}
        killed = False
        try:
            for job in jobs:
                payload = (job.index, job.attempt, job.item)
                try:
                    futures[pool.submit(_run_job, fn, *payload)] = job
                except Exception:
                    # The pool broke while submitting (a worker of an
                    # earlier job died instantly).
                    failures.append((job, "crash", None))
            waiting = set(futures)
            deadlines: dict = {}
            while waiting:
                tick = None
                if self.monitor is not None:
                    # Without a timeout the wait would otherwise block
                    # until a job lands; a finite tick keeps progress
                    # events flowing while jobs are long-running.
                    tick = _MONITOR_TICK
                if self.timeout is not None:
                    now = time.monotonic()
                    for future in waiting:
                        if future not in deadlines and future.running():
                            # The budget clock starts when a worker picks
                            # the job up, not while it sits in the queue.
                            deadlines[future] = now + self.timeout
                    live = [deadlines[f] for f in waiting if f in deadlines]
                    tick = _POLL_TICK
                    if live:
                        tick = min(_POLL_TICK, max(0.0, min(live) - now))
                ready, waiting = wait(
                    waiting, timeout=tick, return_when=FIRST_COMPLETED
                )
                for future in ready:
                    self._harvest(future, futures[future], record, failures)
                if self.monitor is not None:
                    self.monitor.tick()
                if self.timeout is None or not waiting:
                    continue
                now = time.monotonic()
                hung = [
                    f for f in waiting if deadlines.get(f, float("inf")) <= now
                ]
                if not hung:
                    continue
                # Genuine cancellation: SIGKILL the pool's workers so the
                # hung job stops consuming a core, cannot complete later
                # as a zombie (duplicate execution), and cannot block pool
                # shutdown.  Survivors are classified below.
                killed = True
                self.stats.cancellations += len(hung)
                for future in hung:
                    failures.append((futures[future], "timeout", None))
                    waiting.discard(future)
                _kill_workers(pool)
                for future in waiting:
                    future.cancel()
                    if future.done() and not future.cancelled():
                        # Finished in the instant before the kill: a
                        # real result — harvest it, don't re-run it.
                        self._harvest(future, futures[future], record, failures)
                    else:
                        failures.append((futures[future], "interrupted", None))
                waiting = set()
        except BaseException:
            # Driver interrupt (SIGINT) or an internal error: kill the
            # workers so shutdown cannot block on them, then re-raise.
            _kill_workers(pool)
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown(wait=not killed, cancel_futures=True)
        return failures

    @staticmethod
    def _harvest(future, job: _Job, record, failures) -> None:
        """File one finished future as a result or a classified failure."""
        try:
            value, seconds = future.result(timeout=0)
        except CancelledError:
            failures.append((job, "interrupted", None))
        except BrokenExecutor:
            failures.append((job, "crash", None))
        except Exception as error:
            failures.append((job, "error", error))
        else:
            record(job, value, seconds)

    def _finish_inline(self, fn: Callable, exhausted: list[_Job], record) -> None:
        """Last resort for jobs that spent their retry budget.

        Crashes/errors degrade to inline (serial) execution so a broken
        multiprocessing stack still completes the experiment; persistent
        timeouts raise instead — an uncancellable inline hang is worse
        than a clean failure.
        """
        timed_out = [job for job in exhausted if job.timed_out]
        if timed_out:
            indices = ", ".join(str(job.index) for job in timed_out)
            raise JobTimeoutError(
                f"{len(timed_out)} job(s) (index {indices}) exceeded the "
                f"{self.timeout}s per-job budget on every attempt "
                f"(max_retries={self.max_retries}); their workers were "
                "killed, and a hanging job cannot be retried inline"
            )
        self.stats.inline_fallbacks += len(exhausted)
        warnings.warn(
            f"parallel execution failed for {len(exhausted)} job(s) after "
            f"{self.max_retries} retries; falling back to inline execution",
            RuntimeWarning,
            stacklevel=4,
        )
        for job in exhausted:
            record(job, *_run_job(fn, job.index, job.attempt, job.item))


def run_sim_jobs(
    sim_jobs: Sequence[SimJob],
    *,
    jobs: int | str | None = None,
    cache: ResultCache | str | None = "default",
    timeout: float | None = None,
    max_retries: int | None = None,
    stats: ExecutionStats | None = None,
    journal: RunJournal | None = None,
    resumed_keys: Collection[str] = (),
    monitor: "RunMonitor | None" = None,
) -> list[SimulationResult]:
    """One-call fan-out: execute ``sim_jobs`` and return ordered results.

    When ``stats`` is given, the runner's counters are merged into it so
    callers can aggregate across batches; ``journal``/``resumed_keys``
    thread the checkpoint journal through (see :mod:`repro.parallel.journal`);
    ``monitor`` streams the run's telemetry events (see :mod:`repro.obs`).
    """
    runner = ParallelRunner(
        jobs,
        cache=cache,
        timeout=timeout,
        max_retries=max_retries,
        journal=journal,
        resumed_keys=resumed_keys,
        monitor=monitor,
    )
    results = runner.run(sim_jobs)
    if stats is not None:
        stats.merge(runner.stats)
    return results
