"""Process-based experiment execution: job specs, fan-out, result caching.

Every paper artifact is a bag of fully independent cycle-accurate
simulations — one per (allocator, rate, pattern, seed) point.  This package
turns that observation into wall-clock speed:

* :class:`SimJob` — a hashable, picklable description of one simulation
  (config + pattern + rate + seed + windows) with a stable content hash;
* :class:`ParallelRunner` — fans jobs out over a
  :class:`~concurrent.futures.ProcessPoolExecutor` with
  ``as_completed`` collection, per-job timeouts with genuine cancellation
  (hung workers are killed, not awaited), per-job retry with capped
  exponential backoff, and an ordered-results API, so output is identical
  to a serial run;
* :class:`ResultCache` — a content-addressed on-disk JSON cache
  (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``) keyed by job hash + package
  version, making repeated sweeps and redundant saturation probes free;
* :class:`RunJournal` — a JSONL checkpoint journal next to the cache so an
  interrupted sweep can be relaunched with ``--resume`` and re-execute
  only the jobs not recorded complete;
* :class:`ExecutionStats` — jobs run / cache hits / retries /
  cancellations / resumes / wall seconds, surfaced in experiment table
  footers and the obs metrics registry;
* :mod:`~repro.parallel.faults` — deterministic env-keyed fault injection
  (raise / hang / hard-exit the Nth job) for the fault-tolerance tests
  and the CI fault smoke job.

Serial semantics are the degenerate case: ``jobs=1`` (the default when
``$REPRO_JOBS`` is unset) executes inline, in order, in-process.
"""

from .cache import ResultCache, result_from_jsonable, result_to_jsonable
from .faults import FaultInjected
from .jobs import SimJob
from .journal import RunJournal, journal_path
from .runner import (
    ExecutionStats,
    JobTimeoutError,
    ParallelRunner,
    resolve_jobs,
    run_sim_jobs,
)

__all__ = [
    "ExecutionStats",
    "FaultInjected",
    "JobTimeoutError",
    "ParallelRunner",
    "ResultCache",
    "RunJournal",
    "SimJob",
    "journal_path",
    "resolve_jobs",
    "result_from_jsonable",
    "result_to_jsonable",
    "run_sim_jobs",
]
