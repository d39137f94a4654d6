"""Activity gating: dense-vs-gated equivalence, the event wheel, wake/sleep
bookkeeping, and the injector's idle fast path.

The contract under test: activity-gated stepping must produce
**byte-identical** ``SimulationResult``s to the dense every-component
loop — same RNG stream, same latencies, same activity counters (modulo the new ``router_wakeups`` / ``cycles_skipped``
bookkeeping, which measures the gating itself).
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.network.config import NetworkConfig, RouterConfig
from repro.network.network import Network
from repro.sim.engine import run_simulation
from repro.traffic.injector import TrafficInjector
from repro.traffic.patterns import make_pattern

#: Counters introduced by the gating work: allowed to differ between the
#: dense and gated runs (the dense loop never sleeps, so it never wakes).
GATING_COUNTERS = ("router_wakeups", "cycles_skipped")

ALLOCATORS = ("input_first", "vix", "ideal_vix")

#: (label, injection rate).  "saturation" drives every source at rate 1.
RATES = (("0.05", 0.05), ("0.2", 0.2), ("saturation", 1.0))

#: "single" is a 1x1 concentrated mesh: one router, four terminals — the
#: smallest Network that exercises injection, allocation, and ejection.
TOPOLOGIES = (("mesh", "mesh", 16), ("single", "cmesh", 4))

SEEDS = (1, 2)


def _config(allocator: str, topology: str, num_terminals: int) -> NetworkConfig:
    return NetworkConfig(
        topology=topology,
        num_terminals=num_terminals,
        router=RouterConfig(
            num_vcs=4,
            allocator=allocator,
            virtual_inputs=2,
            vc_policy="vix_dimension" if allocator != "input_first" else "max_credit",
        ),
    )


def _comparable(result) -> dict:
    """SimulationResult as a dict, gating-only counters removed."""
    d = dataclasses.asdict(result)
    for key in GATING_COUNTERS:
        d["counters"].pop(key, None)
    return d


class TestDenseGatedEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("topo_label,topology,terminals", TOPOLOGIES,
                             ids=[t[0] for t in TOPOLOGIES])
    @pytest.mark.parametrize("rate_label,rate", RATES, ids=[r[0] for r in RATES])
    @pytest.mark.parametrize("allocator", ALLOCATORS)
    def test_matrix(self, allocator, rate_label, rate, topo_label, topology,
                    terminals, seed):
        cfg = _config(allocator, topology, terminals)
        kwargs = dict(
            injection_rate=rate, seed=seed, warmup=100, measure=300,
            drain_limit=300,
        )
        dense = run_simulation(cfg, activity_gating=False, **kwargs)
        # Named: with no engine given, activity_gating=True is the built-in
        # default, which steps vectorizable configs on the SoA kernel.
        gated = run_simulation(cfg, engine="gated", **kwargs)
        assert _comparable(dense) == _comparable(gated)

    def test_gated_run_reports_wakeups(self):
        cfg = _config("vix", "mesh", 16)
        res = run_simulation(cfg, injection_rate=0.05, seed=1,
                             warmup=100, measure=300, engine="gated")
        assert res.counters["router_wakeups"] > 0
        # Per-cycle Bernoulli injection at rate > 0 keeps the injector
        # active every cycle, so gating alone never skips cycles.
        assert res.counters["cycles_skipped"] == 0


class TestEventWheel:
    def _net(self) -> Network:
        return Network(_config("input_first", "mesh", 16))

    def test_empty_wheel(self):
        net = self._net()
        assert net.next_event_time() is None

    def test_next_event_time_is_min(self):
        net = self._net()
        net._schedule(7, ("x",))
        net._schedule(3, ("y",))
        net._schedule(7, ("z",))
        assert net.next_event_time() == 3

    def test_delivery_pops_the_time(self):
        net = self._net()
        # A returning credit is the simplest event to deliver by hand.
        target = next(o for o in net.routers[1].outputs
                      if o is not None and not o.is_ejection)
        target.out_vcs[0].credits -= 1
        net._schedule(net.cycle, (1, target, 0, False))  # _CREDIT tuple
        assert net.next_event_time() == net.cycle
        net._deliver(net.cycle)
        assert net.next_event_time() is None

    def test_skip_to_counts_cycles(self):
        net = self._net()
        net.skip_to(250)
        assert net.cycle == 250
        assert net.counters.cycles == 250
        assert net.counters.cycles_skipped == 250
        net.skip_to(100)  # backwards: no-op
        assert net.cycle == 250
        assert net.counters.cycles == 250


class TestWakeSleep:
    def test_idle_network_has_no_active_work(self):
        net = Network(_config("input_first", "mesh", 16))
        assert not net.has_active_work()
        net.step()
        assert not net.has_active_work()

    def test_injection_wakes_and_drain_sleeps(self):
        net = Network(_config("input_first", "mesh", 16))
        from repro.network.flit import Packet

        assert net.inject(Packet(0, src=0, dst=15, num_flits=2, created_cycle=0))
        assert net.has_active_work()
        for _ in range(200):
            net.step()
            if not net.has_active_work() and net.next_event_time() is None:
                break
        assert net.idle()
        assert not net._active_routers and not net._active_nis
        assert net.counters.packets_ejected == 1
        assert net.counters.router_wakeups > 0


class TestInjectorFastPaths:
    def _injector(self, rate, *, seed=1, terminals=16):
        net = Network(_config("input_first", "mesh", terminals))
        pattern = make_pattern("uniform", terminals)
        return TrafficInjector(net, pattern, rate, seed=seed)

    def test_rate_zero_returns_immediately(self):
        inj = self._injector(0.0)
        assert inj.tick(0) == 0
        assert inj.packets_created == 0
        assert inj.next_active_cycle(5) is None

    def test_bernoulli_mode_polls_every_cycle(self):
        assert self._injector(0.01).next_active_cycle(7) == 7

    @pytest.mark.parametrize("seed", (1, 2))
    def test_injection_attempts_match_bernoulli_law(self, seed):
        """Attempts over N*T trials must sit inside 5 sigma of Binomial."""
        rate, cycles, terminals = 0.1, 4000, 16
        inj = self._injector(rate, seed=seed, terminals=terminals)
        for cycle in range(cycles):
            inj.tick(cycle)
        attempts = inj.packets_created + inj.packets_refused
        trials = cycles * terminals
        mean = trials * rate
        sigma = math.sqrt(trials * rate * (1 - rate))
        assert abs(attempts - mean) < 5 * sigma


class TestEngineFastForward:
    def test_zero_rate_run_is_all_skips(self):
        cfg = _config("input_first", "mesh", 16)
        res = run_simulation(cfg, injection_rate=0.0, seed=1,
                             warmup=500, measure=1500)
        assert res.cycles == 2000
        assert res.counters["cycles_skipped"] == 2000
        assert math.isnan(res.avg_latency)

    def test_dense_mode_never_skips(self):
        cfg = _config("input_first", "mesh", 16)
        res = run_simulation(cfg, injection_rate=0.0, seed=1, warmup=500,
                             measure=1000, activity_gating=False)
        assert res.counters["cycles_skipped"] == 0
