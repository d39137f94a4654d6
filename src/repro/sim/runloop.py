"""The run loop: warmup, measure, drain — written once, for every engine.

1. **warmup** — traffic flows, nothing is recorded;
2. **measure** — packets created in this window are tracked end to end, and
   ejected traffic counts toward throughput;
3. **drain** — injection continues (keeping the network under load) until
   every measured packet is delivered or a drain budget expires.  Past
   saturation some measured packets never finish inside any budget; the
   result marks this and latency is reported over the delivered subset.

:class:`RunLoop` owns the methodology — argument validation, the default
drain budget, the phase spans, the measurement window, the drain rule and
the result assembly — so every engine applies the identical window and
drain rule by construction.  Its one subclass,
:class:`~repro.sim.partition.PartitionedSimulation` (every engine is a
partition of it), supplies ``cycle``, ``_step()``
(exactly one cycle), ``_maybe_skip(budget)`` (fast-forward up to ``budget``
quiescent cycles, returning how many; 0 when anything can happen now) and
``_final_counters()``, plus the attributes the assembly reads: ``config``,
``stats``, ``injector`` (rate and packet length), ``_seed`` and ``_obs``.

With per-cycle Bernoulli injection at ``rate > 0`` the injector is active
every cycle, so no cycle is ever skipped; with ``rate == 0`` idle gaps
are jumped and tallied in the ``cycles_skipped`` counter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class SimulationResult:
    """Summary of one simulation run."""

    allocator: str
    topology: str
    injection_rate: float
    packet_length: int
    avg_latency: float
    throughput_flits: float
    throughput_packets_per_node: float
    fairness: float
    packets_created: int
    packets_ejected: int
    drained: bool
    cycles: int
    per_source_ejected: list[int] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    #: Latency percentiles over measured packets (nan when none delivered).
    latency_p50: float = math.nan
    latency_p95: float = math.nan
    latency_p99: float = math.nan
    #: Metrics snapshot (flattened registry dict) when observability was
    #: enabled for the run; ``None`` otherwise.
    metrics: dict | None = None

    @property
    def throughput_flits_per_node(self) -> float:
        """Accepted throughput in flits/cycle/node."""
        n = len(self.per_source_ejected) or 1
        return self.throughput_flits / n


def assemble_result(
    sim, stats, counters: dict, *, cycles: int, drained: bool
) -> SimulationResult:
    """Fold the run's observability into ``counters`` and summarise ``stats``.

    Reached by :meth:`RunLoop.run` and, with its merged collector and
    barrier-counted cycles, by the worker coordinator.
    """
    rc = sim.config.router
    injector = sim.injector
    obs = sim._obs
    metrics = None
    if obs is not None:
        # The registry reads the simulation counters only: spans and the
        # trace-truncation flag join the dict after it.
        metrics = obs.finalize(
            counters,
            allocator=rc.allocator,
            virtual_inputs=rc.effective_virtual_inputs,
            topology=sim.config.topology,
            injection_rate=injector.rate,
            seed=sim._seed,
        )
        if obs.timer is not None:
            # Spans only appear when profiling is on, so the default
            # counters dict stays byte-identical to pre-observability runs.
            counters.update(obs.timer.counter_items())
        if obs.tracer is not None and obs.tracer.dropped:
            # Loud truncation: a wrapped trace ring surfaces in the
            # counters (and from there the [perf_counters] footer).
            counters["trace_dropped_events"] = obs.tracer.dropped
    return SimulationResult(
        allocator=rc.allocator,
        topology=sim.config.topology,
        injection_rate=injector.rate,
        packet_length=injector.packet_length,
        avg_latency=stats.avg_latency(),
        throughput_flits=stats.throughput_flits_per_cycle(),
        throughput_packets_per_node=stats.throughput_packets_per_node(),
        fairness=stats.fairness_max_min_ratio(),
        packets_created=stats.packets_created,
        packets_ejected=stats.packets_ejected,
        drained=drained,
        cycles=cycles,
        per_source_ejected=list(stats.per_source_ejected),
        counters=counters,
        latency_p50=stats.latency_percentile(50),
        latency_p95=stats.latency_percentile(95),
        latency_p99=stats.latency_percentile(99),
        metrics=metrics,
    )


class RunLoop:
    """The three-phase driver every engine inherits (see module docstring)."""

    #: Cycles stepped between two drain checks (linked domains: the epoch).
    drain_quantum = 1

    def _advance(self, cycles: int) -> None:
        """Advance exactly ``cycles`` cycles, fast-forwarding idle spans."""
        maybe_skip, step = self._maybe_skip, self._step
        while cycles > 0:
            skipped = maybe_skip(cycles)
            if skipped:
                cycles -= skipped
            else:
                step()
                cycles -= 1

    def _drain(self, limit: int) -> None:
        """Step until no measured packet is outstanding or ``limit`` expires."""
        stats = self.stats
        quantum = self.drain_quantum
        drained = 0
        while stats.outstanding and drained < limit:
            skipped = self._maybe_skip(limit - drained)
            if skipped:
                drained += skipped
                continue
            chunk = min(quantum, limit - drained)
            for _ in range(chunk):
                self._step()
            drained += chunk

    def run(
        self,
        warmup: int = 1000,
        measure: int = 3000,
        drain_limit: int | None = None,
    ) -> SimulationResult:
        """Run the three-phase simulation and return its summary."""
        if warmup < 0 or measure <= 0:
            raise ValueError("warmup must be >= 0 and measure > 0")
        if drain_limit is None:
            drain_limit = max(2000, 2 * measure)
        return self._run_phases(warmup, measure, drain_limit)

    def _run_phases(
        self, warmup: int, measure: int, drain_limit: int
    ) -> SimulationResult:
        timer = self._obs.timer if self._obs is not None else None
        timed = timer.time if timer is not None else (lambda _phase, fn: fn())
        timed("warmup", lambda: self._advance(warmup))
        start = self.cycle
        self.stats.open_window(start, start + measure)
        timed("measure", lambda: self._advance(measure))
        timed("drain", lambda: self._drain(drain_limit))
        return assemble_result(
            self,
            self.stats,
            self._final_counters(),
            cycles=self.cycle,
            drained=self.stats.outstanding == 0,
        )


__all__ = ["RunLoop", "SimulationResult", "assemble_result"]
