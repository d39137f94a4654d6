"""Inter-chip links: config validation, serialization width, environment
resolution, and the event-kind constants shared with the network core.
"""

from __future__ import annotations

import pytest

from repro.network import network as network_module
from repro.network.config import NetworkConfig
from repro.network.links import (
    InterChipLink,
    LinkConfig,
    LinkIngress,
    PartitionConfig,
)
from repro.network.links import _ARRIVAL as LINK_ARRIVAL
from repro.network.links import _CREDIT as LINK_CREDIT
from repro.network.network import Network
from repro.topology import make_topology
from repro.topology.partition import grid_partition


class TestEventKindSync:
    def test_constants_match_network_module(self):
        """links.py duplicates the wheel event kinds to avoid an import
        cycle; this is the guard that keeps the copies in sync."""
        assert LINK_ARRIVAL == network_module._ARRIVAL
        assert LINK_CREDIT == network_module._CREDIT


class TestLinkConfig:
    def test_defaults_model_an_on_chip_hop(self):
        cfg = LinkConfig()
        assert cfg.latency == 0
        assert cfg.width == 0
        assert cfg.effective_credit_latency == 0

    def test_credit_latency_mirrors_latency_by_default(self):
        assert LinkConfig(latency=7).effective_credit_latency == 7
        assert LinkConfig(latency=7, credit_latency=2).effective_credit_latency == 2

    @pytest.mark.parametrize(
        "kwargs",
        [dict(latency=-1), dict(width=-2), dict(credit_latency=-1)],
    )
    def test_negative_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LinkConfig(**kwargs)

    def test_min_cross_delay_is_the_conservative_epoch(self):
        cfg = LinkConfig(latency=4)
        # min(pipeline + latency, credit_delay + credit_latency)
        assert cfg.min_cross_delay(3, 2) == min(3 + 4, 2 + 4)
        assert LinkConfig().min_cross_delay(3, 2) == 2
        assert LinkConfig(latency=10, credit_latency=0).min_cross_delay(3, 2) == 2


def _linked_pair(link_config: LinkConfig):
    """Two neighbouring domains of a 2x1-partitioned 4x4 mesh plus the
    first cut link between them, wired for in-process stepping."""
    config = NetworkConfig(topology="mesh", num_terminals=16)
    topo = make_topology("mesh", 16)
    plan = grid_partition(topo, (2, 1))
    domains = [Network(config, topo, plan=plan, domain=d) for d in range(2)]
    spec = next(s for s in plan.cut_links if plan.router_domain[s.src_router] == 0)
    link = InterChipLink(
        0, spec, link_config, src_net=domains[0], dst_net=domains[1]
    )
    domains[0].attach_egress(link)
    domains[1].attach_ingress(link)
    return domains, spec, link


class TestInterChipLink:
    def test_domain_outside_the_plan_is_rejected(self):
        config = NetworkConfig(topology="mesh", num_terminals=16)
        topo = make_topology("mesh", 16)
        plan = grid_partition(topo, (2, 1))
        with pytest.raises(ValueError, match=r"domain 2 outside plan \(2 domains\)"):
            Network(config, topo, plan=plan, domain=plan.num_domains)

    def test_no_plan_is_the_one_domain_owning_everything(self):
        net = Network(NetworkConfig(topology="mesh", num_terminals=16))
        assert net.plan.num_domains == 1 and net.plan.cut_links == ()
        assert None not in net.routers and None not in net.interfaces

    def test_wiring_installs_port_link_and_ingress(self):
        domains, spec, link = _linked_pair(LinkConfig())
        out = domains[0].routers[spec.src_router].outputs[spec.src_port]
        assert out.link is link
        up = domains[1].routers[spec.dst_router].upstream[spec.dst_port]
        assert isinstance(up, LinkIngress)
        assert up.owner == -2
        assert up.link is link

    def test_zero_latency_flit_timing_matches_monolith(self):
        domains, spec, link = _linked_pair(LinkConfig())
        pipe = domains[0].config.router.pipeline_stages
        link.send_flit(100, 0, object())
        ((when, events),) = list(domains[1]._events.items())
        assert when == 100 + pipe
        assert events[0][0] == LINK_ARRIVAL
        assert link.flits_carried == 1

    def test_latency_adds_to_pipeline(self):
        domains, spec, link = _linked_pair(LinkConfig(latency=6))
        pipe = domains[0].config.router.pipeline_stages
        link.send_flit(100, 0, object())
        assert min(domains[1]._events) == 100 + pipe + 6

    def test_width_serializes_back_to_back_flits(self):
        domains, spec, link = _linked_pair(LinkConfig(width=3))
        pipe = domains[0].config.router.pipeline_stages
        for _ in range(3):
            link.send_flit(100, 0, object())
        # Slots 100, 103, 106: one flit per `width` cycles.
        assert sorted(domains[1]._events) == [100 + pipe, 103 + pipe, 106 + pipe]

    def test_width_leq_one_never_serializes(self):
        domains, spec, link = _linked_pair(LinkConfig(width=1))
        pipe = domains[0].config.router.pipeline_stages
        link.send_flit(100, 0, object())
        link.send_flit(100, 1, object())
        assert list(domains[1]._events) == [100 + pipe]
        assert len(domains[1]._events[100 + pipe]) == 2

    def test_credit_timing_matches_monolith(self):
        domains, spec, link = _linked_pair(LinkConfig())
        delay = domains[0].config.router.credit_delay
        link.send_credit(200, 1, True)
        ((when, events),) = list(domains[0]._events.items())
        assert when == 200 + delay
        kind, sink, vc, release = events[0]
        assert kind == LINK_CREDIT
        assert sink is domains[0].routers[spec.src_router].outputs[spec.src_port]
        assert (vc, release) == (1, True)
        assert link.credits_returned == 1

    def test_detached_dst_buffers_flits_in_outbox(self):
        """Worker mode, source side: the remote destination is severed, so
        granted flits buffer in the outbox until the coordinator ferries."""
        domains, spec, link = _linked_pair(LinkConfig())
        link.dst_net = None
        link.send_flit(10, 0, object())
        assert link.pending() == 1
        msgs = link.drain_outbox()
        assert len(msgs) == 1 and link.outbox == []
        # The destination-side copy ingests the ferried batch.
        link.dst_net = domains[1]
        link.ingest(msgs)
        assert any(
            e[0] == LINK_ARRIVAL for evs in domains[1]._events.values() for e in evs
        )
        assert link.pending() == 0

    def test_detached_src_buffers_credits_in_outbox(self):
        """Worker mode, destination side: the remote source is severed, so
        returning credits buffer in the outbox (flit-count stays zero)."""
        domains, spec, link = _linked_pair(LinkConfig())
        link.src_net = None
        link.send_credit(10, 1, True)
        assert link.pending() == 0
        msgs = link.drain_outbox()
        assert len(msgs) == 1
        link.src_net = domains[0]
        link.ingest(msgs)
        assert any(
            e[0] == LINK_CREDIT for evs in domains[0]._events.values() for e in evs
        )


class TestPartitionConfig:
    def test_accepts_vectorized_domain_engine(self):
        assert PartitionConfig(domain_engine="vectorized").domain_engine == "vectorized"

    def test_rejects_unknown_domain_engine(self):
        with pytest.raises(ValueError, match="domain_engine.*'simd'"):
            PartitionConfig(domain_engine="simd")

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError, match="dims"):
            PartitionConfig(dims=(0, 2))

    def test_spec_excludes_workers(self):
        a = PartitionConfig(workers=1)
        b = PartitionConfig(workers="auto")
        assert a.spec() == b.spec()
        assert "workers" not in a.spec()

    def test_link_config_carries_latency_and_width(self):
        cfg = PartitionConfig(link_latency=4, link_width=2).link_config()
        assert (cfg.latency, cfg.width) == (4, 2)

    def test_link_config_carries_credit_latency(self):
        cfg = PartitionConfig(link_latency=4, link_credit_latency=1).link_config()
        assert cfg.effective_credit_latency == 1

    def test_credit_latency_defaults_to_forward_latency(self):
        cfg = PartitionConfig(link_latency=4).link_config()
        assert cfg.effective_credit_latency == 4

    def test_spec_includes_credit_latency(self):
        a = PartitionConfig(link_latency=4)
        b = PartitionConfig(link_latency=4, link_credit_latency=1)
        assert a.spec() != b.spec()
        assert b.spec()["link_credit_latency"] == 1

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARTITION", "4x2")
        monkeypatch.setenv("REPRO_DOMAIN_ENGINE", "dense")
        assert PartitionConfig.from_env() == PartitionConfig(
            dims=(4, 2), domain_engine="dense"
        )

    def test_from_env_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARTITION", raising=False)
        monkeypatch.delenv("REPRO_DOMAIN_ENGINE", raising=False)
        assert PartitionConfig.from_env() == PartitionConfig()

    def test_from_env_rejects_malformed_grid(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARTITION", "2by2")
        with pytest.raises(ValueError, match="REPRO_PARTITION"):
            PartitionConfig.from_env()
