"""The vectorized simulation engine.

:class:`VectorizedSimulation` is a drop-in replacement for
:class:`~repro.sim.engine.Simulation` that batches the per-router work of a
cycle into numpy array ops.  Byte-identical results fall out of reusing the
object engine's components wherever cycle-accurate state is subtle and
cheap, and vectorizing only what is hot:

* the **real** :class:`~repro.network.network.Network` is built (topology
  wiring, NIs) and its NIs, the real :class:`~repro.traffic.TrafficInjector`
  (same Mersenne-Twister stream, same draw order) and the real
  :class:`~repro.sim.stats.StatsCollector` run unchanged in Python;
* router stepping — flit delivery, VC allocation, switch allocation, grant
  application — runs on the :class:`~repro.sim.vec.state.SoAState` tensors
  through :mod:`repro.sim.vec.kernels`;
* events ride a fixed-size ring of array chunks instead of the network's
  dict-of-lists wheel (all latencies are bounded by
  ``max(pipeline_stages, credit_delay, 1)``).

Two situations delegate the whole run to the activity-gated object engine
(still byte-identical, so this is purely a performance decision):

* metrics/trace observability — the probes hook object allocators;
* expected injected flits/cycle below ``REPRO_VEC_MIN_FLITS`` (default 6)
  — at low load the gated engine's visit-only-active-components loop beats
  any whole-network array op.

Configurations outside the kernel's scheme coverage raise through
:func:`~repro.sim.vec.support.require_vectorizable` at construction;
lenient fallback (for the ``REPRO_ENGINE`` preference and the built-in
default) is decided before construction, by
:func:`repro.sim.engines.resolve_engine`.
"""

from __future__ import annotations

import os
import time

from repro.network.config import NetworkConfig
from repro.network.network import Network
from repro.obs import Observability, ObservabilityConfig
from repro.sim.engine import Simulation, SimulationResult
from repro.sim.stats import StatsCollector
from repro.traffic.injector import TrafficInjector
from repro.traffic.patterns import TrafficPattern, make_pattern

from .state import SoAState
from .stepping import VecStepper
from .support import require_vectorizable

#: Environment knob: minimum expected injected flits/cycle for the SoA
#: kernel to be worth it; below this the run delegates to the gated engine.
MIN_FLITS_ENV = "REPRO_VEC_MIN_FLITS"
_DEFAULT_MIN_FLITS = 6.0


def _min_flits_threshold() -> float:
    raw = os.environ.get(MIN_FLITS_ENV, "").strip()
    if not raw:
        return _DEFAULT_MIN_FLITS
    try:
        return float(raw)
    except ValueError:
        return _DEFAULT_MIN_FLITS


class VectorizedSimulation:
    """One network + injector + stats run on the SoA kernel."""

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
        obs: ObservabilityConfig | None = None,
    ) -> None:
        require_vectorizable(config)
        self.config = config
        obs_config = obs if obs is not None else ObservabilityConfig.from_env()
        plen = packet_length if packet_length is not None else config.packet_length
        expected_flits = (
            min(max(injection_rate, 0.0), 1.0) * config.num_terminals * plen
        )
        self._delegate: Simulation | None = None
        # Matching-efficiency probes and flit tracers hook the object
        # allocators/routers, and low-activity runs are faster on the gated
        # visit-only-active loop than on whole-network array ops; both cases
        # delegate wholesale (results stay byte-identical either way).
        if (
            obs_config.metrics
            or obs_config.trace
            or expected_flits < _min_flits_threshold()
        ):
            self._delegate = Simulation(
                config,
                pattern=pattern,
                injection_rate=injection_rate,
                packet_length=packet_length,
                seed=seed,
                burst_length=burst_length,
                fast_injection=fast_injection,
                activity_gating=True,
                obs=obs,
            )
            self.network = self._delegate.network
            self.stats = self._delegate.stats
            self.injector = self._delegate.injector
            return

        self.network = Network(config)
        self.obs_config = obs_config
        self._obs: Observability | None = None
        if obs_config.enabled:  # profile-only here (metrics/trace delegated)
            self._obs = Observability(obs_config)
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

        s = SoAState(self.network)
        self.s = s
        # The per-cycle phases (event ring, delivery, NI phase, kernels)
        # live in the stepper, shared with the partitioned VecDomain.
        self._stepper = VecStepper(self.network, s)
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
        if self._delegate is not None:
            return self._delegate.flow_state()
        return self.s.export_flow_state(self.network.cycle)

    # --- run control (mirrors Simulation.run exactly) -----------------------

    def _maybe_skip(self, budget: int) -> int:
        network = self.network
        if self._stepper.busy_vcs or network._active_nis:
            return 0
        now = network.cycle
        wake = self.injector.next_active_cycle(now)
        if wake is not None and wake <= now:
            return 0
        nxt = self._stepper.next_event_time(now)
        if nxt is not None and (wake is None or nxt < wake):
            wake = nxt
        target = now + budget if wake is None else min(wake, now + budget)
        network.skip_to(target)
        return target - now

    def _advance(self, cycles: int) -> None:
        network = self.network
        end = network.cycle + cycles
        while network.cycle < end:
            if self._maybe_skip(end - network.cycle):
                continue
            self._step()

    def run(
        self,
        warmup: int = 1000,
        measure: int = 3000,
        drain_limit: int | None = None,
    ) -> SimulationResult:
        """Run the three-phase methodology; see ``Simulation.run``."""
        if self._delegate is not None:
            return self._delegate.run(
                warmup=warmup, measure=measure, drain_limit=drain_limit
            )
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
            timer.add("kernel", self._kernel_seconds)
        # Flush the SoA link counters into the network (report surface).
        link_counts = self.network._link_counts
        for r, row in enumerate(self.s.links.tolist()):
            counts = link_counts[r]
            for p, c in enumerate(row):
                counts[p] += c
        stats = self.stats
        counters = self.network.counters.snapshot()
        counters["vec_kernel_cycles"] = self._stepper.kernel_cycles
        if timer is not None:
            counters.update(timer.counter_items())
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
