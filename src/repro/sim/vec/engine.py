"""The vectorized simulation engine.

:class:`VectorizedSimulation` is a :class:`~repro.sim.engine.Simulation`
whose per-router work of a cycle runs as numpy array ops.  Byte-identical
results fall out of reusing the object engine's components wherever
cycle-accurate state is subtle and cheap, and vectorizing only what is hot:

* the **real** :class:`~repro.network.network.Network` is built (topology
  wiring, NIs) and its NIs, the real :class:`~repro.traffic.TrafficInjector`
  (same Mersenne-Twister stream, same draw order) and the real
  :class:`~repro.sim.stats.StatsCollector` run unchanged in Python — the
  inherited constructor wiring;
* router stepping — flit delivery, VC allocation, switch allocation, grant
  application — runs on the :class:`~repro.sim.vec.state.SoAState` tensors
  through :mod:`repro.sim.vec.kernels`;
* events ride a fixed-size ring of array chunks instead of the network's
  dict-of-lists wheel (all latencies are bounded by
  ``max(pipeline_stages, credit_delay, 1)``).

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

import time

from repro.network.config import NetworkConfig
from repro.sim.engine import Simulation

from .state import SoAState
from .stepping import VecStepper
from .support import require_vectorizable


class VectorizedSimulation(Simulation):
    """One network + injector + stats run on the SoA kernel."""

    def __init__(self, config: NetworkConfig, **sim_kwargs) -> None:
        """``sim_kwargs`` are :class:`Simulation`'s, minus ``activity_gating``."""
        require_vectorizable(config)
        super().__init__(config, activity_gating=True, **sim_kwargs)
        if self.obs_config.metrics or self.obs_config.trace:
            # The probes and tracers hook object allocators/routers the
            # SoA kernel never calls: they would report zero grants.
            raise ValueError(
                "metrics/trace observability is not collected by the SoA "
                "kernel; build the engine with make_engine('vectorized', ...) "
                "(which observes on the byte-identical 'gated' engine) or "
                "pick 'gated' directly"
            )
        self.s = SoAState(self.network)
        # The per-cycle phases (event ring, delivery, NI phase, kernels)
        # live in the stepper, shared with the partitioned VecDomain.
        self._stepper = VecStepper(self.network, self.s)
        self._kernel_seconds = 0.0

    def _step(self) -> None:
        network = self.network
        now = network.cycle
        self.injector.tick(now)
        t0 = time.perf_counter() if self._obs is not None else 0.0
        stepper = self._stepper
        stepper.deliver(now)
        stepper.ni_phase(now)
        stepper.allocate(now)
        stepper.kernel_cycles += 1
        if self._obs is not None:
            self._kernel_seconds += time.perf_counter() - t0
        network.counters.cycles += 1
        network.cycle = now + 1

    def flow_state(self) -> dict:
        """Flow-control snapshot (see :mod:`repro.network.state`).

        Same schema as ``Simulation.flow_state()``; byte-equal dicts after
        identical runs are the engines' no-drift contract.
        """
        return self.s.export_flow_state(self.network.cycle)

    def _maybe_skip(self, budget: int) -> int:
        network = self.network
        if self._stepper.busy_vcs or network._active_nis:
            return 0
        now = network.cycle
        if self.injector.next_active_cycle(now) is not None:
            return 0
        wake = self._stepper.next_event_time(now)
        target = now + budget if wake is None else min(wake, now + budget)
        network.skip_to(target)
        return target - now

    def _final_counters(self) -> dict:
        if self._obs is not None:  # profile-only here: the timer exists
            self._obs.timer.add("kernel", self._kernel_seconds)
        # Flush the SoA link counters into the network (report surface).
        link_counts = self.network._link_counts
        for r, row in enumerate(self.s.links.tolist()):
            counts = link_counts[r]
            for p, c in enumerate(row):
                counts[p] += c
        counters = self.network.counters.snapshot()
        counters["vec_kernel_cycles"] = self._stepper.kernel_cycles
        return counters
