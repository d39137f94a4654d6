"""Partition invariants: flit conservation and credit accounting, checked
cycle-by-cycle on a live 2x2-partitioned 8x8 mesh.

These are the properties that make the domain decomposition trustworthy:
no flit is ever lost or duplicated crossing a cut, and every source-side
credit counter still mirrors its destination buffer exactly (the boundary
credit contract).  The checkers run mid-flight through the engine's
``on_cycle`` hook — a violation would surface at the first bad cycle,
not as a skewed end-of-run statistic.
"""

from __future__ import annotations

import pytest

from repro.network.config import NetworkConfig, RouterConfig
from repro.network.links import PartitionConfig
from repro.sim.partition import (
    PartitionedSimulation,
    PartitionInvariantError,
    check_credit_accounting,
    check_flit_conservation,
    check_invariants,
)


def _sim(
    topology: str = "mesh",
    allocator: str = "input_first",
    injection_rate: float = 0.1,
    **partition_kwargs,
) -> PartitionedSimulation:
    cfg = NetworkConfig(
        topology=topology,
        num_terminals=64,
        router=RouterConfig(num_vcs=4, allocator=allocator),
    )
    partition = PartitionConfig(dims=(2, 2), **partition_kwargs)
    return PartitionedSimulation(
        cfg, partition=partition, injection_rate=injection_rate, seed=1
    )


class TestInvariantsHold:
    def test_throughout_a_2x2_run(self):
        sim = _sim(link_latency=2)
        checked = 0

        def hook(s):
            nonlocal checked
            if s.cycle % 7 == 0:
                check_invariants(s)
                checked += 1

        sim.on_cycle = hook
        result = sim.run(warmup=100, measure=300, drain_limit=400)
        check_invariants(sim)
        assert checked > 0
        assert result.packets_ejected > 0

    def test_with_serialized_narrow_links(self):
        sim = _sim(link_latency=1, link_width=2)
        sim.on_cycle = lambda s: s.cycle % 11 or check_invariants(s)
        sim.run(warmup=50, measure=200, drain_limit=300)
        check_invariants(sim)

    def test_at_saturation_with_outstanding_flits(self):
        sim = _sim()
        sim.run(warmup=50, measure=100, drain_limit=0)
        # Flits are still in flight everywhere; the books must balance.
        check_flit_conservation(sim)
        check_credit_accounting(sim)

    def test_with_asymmetric_credit_latency(self):
        """Slow forward path, fast credit return: the loop stays closed."""
        sim = _sim(link_latency=3, link_credit_latency=1)
        sim.on_cycle = lambda s: s.cycle % 5 or check_invariants(s)
        sim.run(warmup=50, measure=200, drain_limit=300)
        check_invariants(sim)

    def test_with_slow_credit_return(self):
        """Credit latency above the forward latency (the worst case for
        an over-release bug: credits linger on the wire longest)."""
        sim = _sim(link_latency=1, link_credit_latency=6, link_width=2)
        sim.on_cycle = lambda s: s.cycle % 5 or check_invariants(s)
        sim.run(warmup=50, measure=200, drain_limit=300)
        check_invariants(sim)

    def test_vectorized_domains_throughout_a_run(self):
        pytest.importorskip("numpy")
        sim = _sim(link_latency=2, link_width=2, domain_engine="vectorized")
        checked = 0

        def hook(s):
            nonlocal checked
            if s.cycle % 7 == 0:
                check_invariants(s)
                checked += 1

        sim.on_cycle = hook
        result = sim.run(warmup=100, measure=300, drain_limit=400)
        check_invariants(sim)
        assert checked > 0
        assert result.packets_ejected > 0

    def test_vectorized_domains_asymmetric_credit_latency(self):
        pytest.importorskip("numpy")
        sim = _sim(link_latency=3, link_credit_latency=1, domain_engine="vectorized")
        sim.on_cycle = lambda s: s.cycle % 5 or check_invariants(s)
        sim.run(warmup=50, measure=200, drain_limit=300)
        check_invariants(sim)

    def test_vectorized_domains_at_saturation(self):
        """The chiplet benchmark's operating point (CMesh, VIX, saturated
        sources, link latency 4, no drain) on one shared SoA state."""
        pytest.importorskip("numpy")
        sim = _sim(
            topology="cmesh",
            allocator="vix",
            injection_rate=1.0,
            link_latency=4,
            domain_engine="vectorized",
        )
        sim.on_cycle = lambda s: s.cycle % 5 or check_invariants(s)
        result = sim.run(warmup=50, measure=150, drain_limit=0)
        check_invariants(sim)
        assert result.counters["interchip_flits"] > 0


class TestViolationsDetected:
    """The checkers must actually fail when the books are cooked."""

    def test_lost_flit_detected(self):
        sim = _sim()
        sim.run(warmup=50, measure=100, drain_limit=0)
        dom = sim.domains[0]
        dom.counters.flits_ejected += 1  # phantom ejection
        with pytest.raises(PartitionInvariantError, match="conservation"):
            check_flit_conservation(sim)

    def test_leaked_credit_detected(self):
        sim = _sim(domain_engine="gated")  # the object ports are cooked below
        sim.run(warmup=50, measure=100, drain_limit=0)
        link = sim.links[0]
        out = sim.domains[
            sim.plan.router_domain[link.spec.src_router]
        ].routers[link.spec.src_router].outputs[link.spec.src_port]
        out.out_vcs[0].credits += 1  # conjured credit
        with pytest.raises(PartitionInvariantError, match="credit"):
            check_credit_accounting(sim)

    def test_leaked_credit_detected_on_kernel_domains(self):
        """An interior link of a kernel domain: the checker must find it
        without router objects to walk."""
        sim = _sim(domain_engine="vectorized")
        sim.run(warmup=50, measure=100, drain_limit=0)
        rd = sim.plan.router_domain
        spec = next(
            s for s in sim.topology.links() if rd[s.src_router] == rd[s.dst_router]
        )
        check_credit_accounting(sim)
        sim.domains[0].s.ocred[spec.src_router, spec.src_port, 0] += 1
        with pytest.raises(PartitionInvariantError, match="credit"):
            check_credit_accounting(sim)

    def test_error_is_an_assertion(self):
        assert issubclass(PartitionInvariantError, AssertionError)
