"""Simulation controller: warmup, measurement, drain.

:class:`Simulation` wires a network, a traffic injector, and a statistics
collector together and runs the standard three-phase methodology:

1. **warmup** — traffic flows, nothing is recorded;
2. **measure** — packets created in this window are tracked end to end, and
   ejected traffic counts toward throughput;
3. **drain** — injection continues (keeping the network under load) until
   every measured packet is delivered or a drain budget expires.  Past
   saturation some measured packets never finish inside any budget; the
   result marks this and latency is reported over the delivered subset.

Every phase advances through :meth:`Simulation._advance`, which
fast-forwards quiescent stretches: when the network has no active router or
NI and the injector reports no upcoming injection, the clock jumps straight
to the next scheduled event (or the end of the phase) instead of spinning
empty cycles.  With per-cycle Bernoulli injection at ``rate > 0`` the
injector is active every cycle, so no cycle is ever skipped and the run is
byte-identical to the plain loop; with ``rate == 0`` or
``fast_injection=True`` the idle gaps are skipped and tallied in the
``cycles_skipped`` counter.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.network.config import NetworkConfig
from repro.network.network import Network
from repro.obs import Observability, ObservabilityConfig
from repro.sim.stats import StatsCollector
from repro.traffic.injector import TrafficInjector
from repro.traffic.patterns import TrafficPattern, make_pattern


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


class Simulation:
    """One network + injector + stats run."""

    def __init__(
        self,
        config: NetworkConfig,
        *,
        pattern: TrafficPattern | str = "uniform",
        injection_rate: float = 0.1,
        packet_length: int | None = None,
        seed: int = 1,
        burst_length: float = 1.0,
        fast_injection: bool = False,
        activity_gating: bool = True,
        obs: ObservabilityConfig | None = None,
    ) -> None:
        self.config = config
        self.network = Network(config)
        self.network.gating = activity_gating
        # Observability resolves from the environment unless given
        # explicitly; the disabled default attaches nothing at all.
        self.obs_config = obs if obs is not None else ObservabilityConfig.from_env()
        self._obs: Observability | None = None
        if self.obs_config.enabled:
            self._obs = Observability(self.obs_config)
            self._obs.attach(self.network)
        self._seed = seed
        if isinstance(pattern, str):
            pattern = make_pattern(pattern, config.num_terminals)
        self.pattern = pattern
        self.injector = TrafficInjector(
            self.network,
            pattern,
            injection_rate,
            packet_length=packet_length,
            seed=seed,
            burst_length=burst_length,
            fast_injection=fast_injection,
        )
        self.stats = StatsCollector(config.num_terminals)
        self.network.stats = self.stats
        self.injector.stats = self.stats

    def _step(self) -> None:
        self.injector.tick(self.network.cycle)
        self.network.step()

    def flow_state(self) -> dict:
        """Flow-control snapshot (see :mod:`repro.network.state`).

        Same schema as ``VectorizedSimulation.flow_state()``; byte-equal
        dicts after identical runs are the engines' no-drift contract.
        """
        from repro.network.state import export_flow_state

        return export_flow_state(self.network)

    def _maybe_skip(self, budget: int) -> int:
        """Fast-forward up to ``budget`` quiescent cycles; returns how many.

        Safe exactly when nothing can happen before the jump target: the
        network has no active router or NI (so no allocation, injection
        channel, or ejection work), and the injector's next possible
        injection and the event wheel's next delivery both lie at or beyond
        it.  Skipped cycles still count toward ``counters.cycles``.
        """
        network = self.network
        if not network.gating or network.has_active_work():
            return 0
        now = network.cycle
        wake = self.injector.next_active_cycle(now)
        if wake is not None and wake <= now:
            return 0
        nxt = network.next_event_time()
        if nxt is not None and (wake is None or nxt < wake):
            wake = nxt
        # Nothing scheduled at all: the remaining budget is all idle.
        target = now + budget if wake is None else min(wake, now + budget)
        network.skip_to(target)
        return target - now

    def _advance(self, cycles: int) -> None:
        """Advance exactly ``cycles`` cycles, fast-forwarding idle spans."""
        network = self.network
        end = network.cycle + cycles
        while network.cycle < end:
            if self._maybe_skip(end - network.cycle):
                continue
            self.injector.tick(network.cycle)
            network.step()

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
        timer = self._obs.timer if self._obs is not None else None
        t0 = time.perf_counter() if timer is not None else 0.0
        self._advance(warmup)
        if timer is not None:
            t1 = time.perf_counter()
            timer.add("warmup", t1 - t0)
            t0 = t1
        start = self.network.cycle
        self.stats.open_window(start, start + measure)
        self._advance(measure)
        if timer is not None:
            t1 = time.perf_counter()
            timer.add("measure", t1 - t0)
            t0 = t1
        drained_cycles = 0
        while self.stats.outstanding and drained_cycles < drain_limit:
            skipped = self._maybe_skip(drain_limit - drained_cycles)
            if skipped:
                drained_cycles += skipped
                continue
            self._step()
            drained_cycles += 1
        if timer is not None:
            timer.add("drain", time.perf_counter() - t0)
        stats = self.stats
        counters = self.network.counters.snapshot()
        if timer is not None:
            # Spans only appear when profiling is on, so the default
            # counters dict stays byte-identical to pre-observability runs.
            counters.update(timer.counter_items())
        tracer = self._obs.tracer if self._obs is not None else None
        if tracer is not None and tracer.dropped:
            # Loud truncation: a wrapped trace ring surfaces in the
            # counters (and from there the [perf_counters] footer).  Only
            # with tracing on, so the default counters stay unchanged.
            counters["trace_dropped_events"] = tracer.dropped
        metrics = None
        if self._obs is not None:
            metrics = self._obs.finalize(
                self.network,
                allocator=self.config.router.allocator,
                virtual_inputs=self.config.router.effective_virtual_inputs,
                topology=self.config.topology,
                injection_rate=self.injector.rate,
                seed=self._seed,
            )
        return SimulationResult(
            allocator=self.config.router.allocator,
            topology=self.config.topology,
            injection_rate=self.injector.rate,
            packet_length=self.injector.packet_length,
            avg_latency=stats.avg_latency(),
            throughput_flits=stats.throughput_flits_per_cycle(),
            throughput_packets_per_node=stats.throughput_packets_per_node(),
            fairness=stats.fairness_max_min_ratio(),
            packets_created=stats.packets_created,
            packets_ejected=stats.packets_ejected,
            drained=stats.outstanding == 0,
            cycles=self.network.cycle,
            per_source_ejected=list(stats.per_source_ejected),
            counters=counters,
            latency_p50=stats.latency_percentile(50),
            latency_p95=stats.latency_percentile(95),
            latency_p99=stats.latency_percentile(99),
            metrics=metrics,
        )


def run_simulation(
    config: NetworkConfig,
    *,
    pattern: TrafficPattern | str = "uniform",
    injection_rate: float = 0.1,
    packet_length: int | None = None,
    seed: int = 1,
    warmup: int = 1000,
    measure: int = 3000,
    drain_limit: int | None = None,
    burst_length: float = 1.0,
    fast_injection: bool = False,
    activity_gating: bool = True,
    obs: ObservabilityConfig | None = None,
    engine: str | None = None,
    partition=None,
) -> SimulationResult:
    """One-call convenience wrapper around :class:`Simulation`.

    ``fast_injection`` swaps per-cycle Bernoulli draws for geometric-gap
    sampling (statistically equivalent, bit-different RNG stream);
    ``activity_gating=False`` restores the dense every-component scan —
    useful only as the equivalence/benchmark baseline.  ``obs`` defaults
    to the environment-resolved observability config (off by default).

    ``engine`` picks the execution backend by registry name (``dense``,
    ``gated``, ``vectorized``; see :mod:`repro.sim.engines`).  An explicit
    name is strict — an unsupported scheme on the vectorized engine
    raises.  ``None`` consults the ``REPRO_ENGINE`` environment default
    *leniently*: a non-vectorizable configuration falls back to the gated
    object engine with a ``RuntimeWarning`` instead of failing, so a sweep
    mixing VIX with packet-chaining jobs can still run under
    ``REPRO_ENGINE=vectorized``.  When neither names an engine the
    built-in default applies: ``vectorized`` for every configuration the
    SoA kernel can run (and numpy importable), ``gated`` for the rest,
    ``dense`` when ``activity_gating=False`` — all byte-identical.
    :func:`repro.sim.engines.resolve_engine` is that rule.

    ``partition`` (a :class:`~repro.network.links.PartitionConfig`)
    selects the ``partitioned`` engine with that domain decomposition; it
    conflicts with any other explicit ``engine``.  Naming
    ``engine="partitioned"`` (or ``REPRO_ENGINE=partitioned``) without a
    config resolves one from the ``REPRO_PARTITION*`` environment.
    """
    from repro.sim.engines import make_engine, resolve_engine

    chosen = resolve_engine(
        config, engine, partition=partition, activity_gating=activity_gating
    )
    sim_kwargs = dict(
        pattern=pattern,
        injection_rate=injection_rate,
        packet_length=packet_length,
        seed=seed,
        burst_length=burst_length,
        fast_injection=fast_injection,
        obs=obs,
    )
    if chosen == "partitioned":
        sim_kwargs["partition"] = partition
    sim = make_engine(chosen, config, **sim_kwargs)
    return sim.run(warmup=warmup, measure=measure, drain_limit=drain_limit)


def saturation_throughput(
    config: NetworkConfig,
    *,
    pattern: TrafficPattern | str = "uniform",
    packet_length: int | None = None,
    seed: int = 1,
    warmup: int = 1000,
    measure: int = 3000,
) -> SimulationResult:
    """Accepted throughput with every source saturated (rate = 1)."""
    return run_simulation(
        config,
        pattern=pattern,
        injection_rate=1.0,
        packet_length=packet_length,
        seed=seed,
        warmup=warmup,
        measure=measure,
        drain_limit=0,
    )


def is_saturated(result: SimulationResult) -> bool:
    """Heuristic saturation test: latency diverged or measured packets lost."""
    return (not result.drained) or math.isnan(result.avg_latency)
