"""The monolithic object engine and the one-call entry points.

:class:`Simulation` wires a network, a traffic injector, and a statistics
collector together; the warmup / measure / drain methodology it runs is
:class:`repro.sim.runloop.RunLoop`, shared with every other engine.  What
lives here is what is specific to stepping one object
:class:`~repro.network.network.Network`: the constructor wiring, one
cycle (``_step``), the quiescence test behind fast-forwarding
(``_maybe_skip``) and the counters snapshot.

:func:`run_simulation` resolves an engine by name (see
:mod:`repro.sim.engines`), builds it and runs it.
"""

from __future__ import annotations

import math

from repro.network.config import NetworkConfig
from repro.network.network import Network
from repro.obs import Observability, ObservabilityConfig
from repro.sim.runloop import RunLoop, SimulationResult
from repro.sim.stats import StatsCollector
from repro.traffic.injector import TrafficInjector
from repro.traffic.patterns import TrafficPattern, make_pattern


class Simulation(RunLoop):
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
        )
        self.stats = StatsCollector(config.num_terminals)
        self.network.stats = self.stats
        self.injector.stats = self.stats

    @property
    def cycle(self) -> int:
        return self.network.cycle

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
        if self.injector.next_active_cycle(now) is not None:
            return 0
        wake = network.next_event_time()
        # Nothing scheduled at all: the remaining budget is all idle.
        target = now + budget if wake is None else min(wake, now + budget)
        network.skip_to(target)
        return target - now

    def _final_counters(self) -> dict:
        return self.network.counters.snapshot()


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
    activity_gating: bool = True,
    obs: ObservabilityConfig | None = None,
    engine: str | None = None,
    partition=None,
) -> SimulationResult:
    """One-call convenience wrapper around :class:`Simulation`.

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
