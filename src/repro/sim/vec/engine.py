"""The vectorized simulation engine: the 1x1 kernel fabric.

:class:`VectorizedSimulation` is a
:class:`~repro.sim.partition.PartitionedSimulation` over one domain that
owns the whole topology, stepped by the SoA kernel — a 1x1
:class:`~repro.sim.vec.domain.VecFabric`.  Stepping, idle skip,
counters and flow-state export are the partition engine's, and the
per-cycle work is the fabric's:

* the real NIs, :class:`~repro.traffic.TrafficInjector` (same
  Mersenne-Twister stream, same draw order) and
  :class:`~repro.sim.stats.StatsCollector` run unchanged in Python;
* router stepping — flit delivery, VC allocation, switch allocation, grant
  application — runs on the :class:`~repro.sim.vec.state.SoAState`
  tensors through :mod:`repro.sim.vec.kernels`; no object router exists;
* events ride a fixed-size ring of array chunks (all latencies are
  bounded by ``max(pipeline_stages, credit_delay, 1)``).

A single-domain partition keeps the monolithic seed, packet ids and
counter keys, so results are byte-identical to the object engines'.

The class always steps the kernel.  Whether a ``vectorized`` request is
better served by the gated object engine (metrics/trace observability, or
too little offered load for whole-network array ops to pay) is decided
before anything is built, by the ``vectorized`` factory in
:mod:`repro.sim.engines`.  Configurations outside the kernel's scheme
coverage raise through :func:`~repro.sim.vec.support.require_vectorizable`
at construction; lenient fallback (the ``REPRO_ENGINE`` preference and the
built-in default) is :func:`repro.sim.engines.resolve_engine`'s.
"""

from __future__ import annotations

from repro.network.config import NetworkConfig
from repro.network.links import PartitionConfig
from repro.sim.partition.engine import PartitionedSimulation

#: One domain owning everything, stepped by the kernel.
_WHOLE_TOPOLOGY = PartitionConfig(dims=(1, 1), domain_engine="vectorized")


class VectorizedSimulation(PartitionedSimulation):
    """One network + injector + stats run on the SoA kernel."""

    def __init__(self, config: NetworkConfig, **sim_kwargs) -> None:
        """``sim_kwargs`` are :class:`~repro.sim.engine.Simulation`'s,
        minus ``activity_gating``."""
        super().__init__(config, partition=_WHOLE_TOPOLOGY, **sim_kwargs)
