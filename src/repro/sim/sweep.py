"""Load sweeps and saturation-point search.

Utilities for the latency-vs-load studies every NoC evaluation runs:

* :func:`latency_sweep` — one simulation per injection rate, returning the
  (rate, latency, accepted-throughput) series of a Figure-8-style curve;
* :func:`find_saturation_rate` — bisection search for the injection rate at
  which the network stops accepting its offered load (the knee of the
  curve), a scalar that makes allocator comparisons one-number simple.

Both fan their independent simulation points through
:mod:`repro.parallel`: ``jobs=N`` runs N points at a time in worker
processes, and results land in the content-addressed cache so repeated
sweeps (and the redundant probes of a bisection) are free.  ``jobs=1``
(the default) preserves the original serial, in-process behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.config import NetworkConfig
from repro.parallel import ExecutionStats, ParallelRunner, ResultCache, SimJob
from repro.sim.engine import SimulationResult
from repro.traffic.patterns import TrafficPattern


@dataclass(frozen=True)
class SweepPoint:
    """One point of a latency/throughput-vs-load curve."""

    injection_rate: float
    avg_latency: float
    accepted_packets_per_node: float
    drained: bool
    #: 95th-percentile packet latency (nan when nothing was delivered).
    latency_p95: float = float("nan")


def latency_sweep(
    config: NetworkConfig,
    rates: tuple[float, ...],
    *,
    pattern: TrafficPattern | str = "uniform",
    seed: int = 1,
    warmup: int = 1000,
    measure: int = 3000,
    jobs: int | str | None = None,
    cache: ResultCache | str | None = "default",
    stats: ExecutionStats | None = None,
) -> list[SweepPoint]:
    """Simulate every rate in ``rates`` and collect the curve.

    Rates are independent simulations, so ``jobs=N`` runs N of them
    concurrently; the returned list is always in ``rates`` order with
    values identical to a serial run.
    """
    if not rates:
        raise ValueError("need at least one injection rate")
    for rate in rates:
        if rate < 0:
            raise ValueError(f"injection rate must be >= 0, got {rate}")
    sim_jobs = [
        SimJob(
            config,
            pattern=pattern,
            injection_rate=rate,
            seed=seed,
            warmup=warmup,
            measure=measure,
        )
        for rate in rates
    ]
    runner = ParallelRunner(jobs, cache=cache)
    results = runner.run(sim_jobs)
    if stats is not None:
        stats.merge(runner.stats)
    return [_to_point(res) for res in results]


def _to_point(res: SimulationResult) -> SweepPoint:
    return SweepPoint(
        injection_rate=res.injection_rate,
        avg_latency=res.avg_latency,
        accepted_packets_per_node=res.throughput_packets_per_node,
        drained=res.drained,
        latency_p95=res.latency_p95,
    )


def _accepts(res: SimulationResult, rate: float, acceptance: float) -> bool:
    """True when the network delivers >= ``acceptance`` of its offered load
    and every measured packet drains."""
    if not res.drained:
        return False
    return res.throughput_packets_per_node >= acceptance * rate


def find_saturation_rate(
    config: NetworkConfig,
    *,
    pattern: TrafficPattern | str = "uniform",
    low: float = 0.0,
    high: float = 0.5,
    tolerance: float = 0.005,
    acceptance: float = 0.95,
    seed: int = 1,
    warmup: int = 500,
    measure: int = 1500,
    jobs: int | str | None = None,
    cache: ResultCache | str | None = "default",
    stats: ExecutionStats | None = None,
) -> float:
    """Bisect for the highest injection rate the network still sustains.

    A rate is "sustained" when accepted throughput stays within
    ``acceptance`` of the offered load and all measured packets drain.
    Returns the midpoint of the final bracket (packets/cycle/node).

    Each probed rate is simulated at most once per call (probes are
    memoized), and with ``jobs > 1`` the bracket endpoints plus the first
    two bisection levels are pre-probed concurrently — the midpoints are
    computed with the exact float expressions the bisection loop uses, so
    the search path and answer never change, only the wall clock.
    """
    if not 0 <= low < high:
        raise ValueError(f"need 0 <= low < high, got [{low}, {high}]")
    if not 0 < tolerance < high - low:
        raise ValueError(f"tolerance {tolerance} out of range")
    if not 0 < acceptance <= 1:
        raise ValueError(f"acceptance must be in (0, 1], got {acceptance}")

    runner = ParallelRunner(jobs, cache=cache)
    memo: dict[float, bool] = {}

    def job_for(rate: float) -> SimJob:
        return SimJob(
            config,
            pattern=pattern,
            injection_rate=rate,
            seed=seed,
            warmup=warmup,
            measure=measure,
        )

    def probe(rates: list[float]) -> None:
        fresh = [r for r in rates if r not in memo]
        if fresh:
            results = runner.run([job_for(r) for r in fresh])
            for r, res in zip(fresh, results):
                memo[r] = _accepts(res, r, acceptance)

    def accepts(rate: float) -> bool:
        if rate not in memo:
            probe([rate])
        return memo[rate]

    try:
        lo0 = max(low, tolerance)
        if runner.jobs > 1:
            # Speculatively probe the bracket checks and the first two
            # bisection levels in one parallel batch.  The midpoints must be
            # the exact floats the loop below computes, so the memo hits.
            m1 = (lo0 + high) / 2
            probe([lo0, high, m1, (lo0 + m1) / 2, (m1 + high) / 2])
        # Ensure the bracket actually straddles the knee.
        if not accepts(lo0):
            return low
        if accepts(high):
            return high
        lo, hi = lo0, high
        while hi - lo > tolerance:
            mid = (lo + hi) / 2
            if accepts(mid):
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2
    finally:
        if stats is not None:
            stats.merge(runner.stats)
