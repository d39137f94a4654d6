"""The monolithic object engines and the one-call entry points.

:class:`Simulation` is the ``gated`` (and, without activity gating, the
``dense``) engine: a :class:`~repro.sim.partition.PartitionedSimulation`
over one domain that owns the whole topology, stepped by object routers —
the 1x1 partition with a fixed domain engine, as
:class:`~repro.sim.vec.engine.VectorizedSimulation` is on the SoA kernel.
Wiring, stepping, idle skip, counters and flow-state export are the
partition driver's; the warmup / measure / drain methodology is
:class:`repro.sim.runloop.RunLoop`'s, shared with every other engine.

:func:`run_simulation` resolves an engine by name (see
:mod:`repro.sim.engines`), builds it and runs it.
"""

from __future__ import annotations

import math

from repro.network.config import NetworkConfig
from repro.network.links import PartitionConfig
from repro.obs import ObservabilityConfig
from repro.sim.partition.engine import PartitionedSimulation
from repro.sim.runloop import SimulationResult
from repro.traffic.patterns import TrafficPattern

#: One domain owning everything, stepped by object routers: activity-gated,
#: or visiting every router and NI every cycle.
_GATED = PartitionConfig(dims=(1, 1), domain_engine="gated")
_DENSE = PartitionConfig(dims=(1, 1), domain_engine="dense")


class Simulation(PartitionedSimulation):
    """One network + injector + stats run on object routers."""

    def __init__(
        self, config: NetworkConfig, *, activity_gating: bool = True, **sim_kwargs
    ) -> None:
        """``sim_kwargs`` are :class:`PartitionedSimulation`'s, minus
        ``partition``; ``activity_gating=False`` picks the dense loop."""
        partition = _GATED if activity_gating else _DENSE
        super().__init__(config, partition=partition, **sim_kwargs)


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
    config resolves one with :meth:`PartitionConfig.from_env`.
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
