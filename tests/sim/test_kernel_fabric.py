"""One kernel fabric with no object routers under it.

The SoA kernel owns every router's state: the monolithic ``vectorized``
engine is the 1x1 partition of a ``VecFabric``, and kernel domains build
no :class:`~repro.network.router.Router`.  Configuration validation must
therefore not ride on router construction: an invalid ``RouterConfig``
fails the same way on every engine, kernel or object.
"""

from __future__ import annotations

import pytest

from repro.network.config import NetworkConfig, RouterConfig
from repro.network.links import PartitionConfig
from repro.network.router import Router
from repro.sim.engines import make_engine

pytest.importorskip("numpy")


def _config(**router) -> NetworkConfig:
    return NetworkConfig(
        topology="mesh", num_terminals=16, router=RouterConfig(**router)
    )


def _build(engine: str, config: NetworkConfig):
    """Build ``engine`` at saturation; ``2x2-<engine>`` partitions the
    mesh into four domains stepped by ``<engine>``."""
    kwargs = dict(injection_rate=1.0, seed=1)
    if engine.startswith("2x2-"):
        kwargs["partition"] = PartitionConfig(
            dims=(2, 2), link_latency=2, domain_engine=engine[4:]
        )
        return make_engine("partitioned", config, **kwargs)
    return make_engine(engine, config, **kwargs)


@pytest.fixture(autouse=True)
def _no_env(monkeypatch):
    monkeypatch.delenv("REPRO_VEC_MIN_FLITS", raising=False)
    monkeypatch.delenv("REPRO_ENGINE", raising=False)


@pytest.mark.parametrize(
    "engine,routers",
    # gated: the counting hook is live (one Router per router id).
    [("vectorized", 0), ("2x2-vectorized", 0), ("gated", 16)],
)
def test_kernel_engines_build_no_object_router(engine, routers, monkeypatch):
    built = []
    init = Router.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Router, "__init__", counting_init)
    sim = _build(engine, _config(num_vcs=4, allocator="vix", virtual_inputs=2))
    result = sim.run(warmup=50, measure=100, drain_limit=0)
    assert result.packets_ejected > 0
    assert len(built) == routers
    assert (result.counters.get("vec_kernel_cycles", 0) > 0) == (routers == 0)


#: RouterConfigs that construct (field checks pass) but that no allocator
#: or VC policy accepts.
INVALID = {
    "vix-one-virtual-input": dict(num_vcs=4, allocator="vix", virtual_inputs=1),
    "vix-more-inputs-than-vcs": dict(num_vcs=4, allocator="vix", virtual_inputs=8),
    "vix-uneven-groups": dict(num_vcs=6, allocator="vix", virtual_inputs=4),
    "unknown-vc-policy": dict(num_vcs=4, vc_policy="no_such_policy"),
}
ENGINES = ("dense", "gated", "vectorized", "2x2-gated", "2x2-vectorized")


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("router", list(INVALID.values()), ids=list(INVALID))
def test_invalid_config_raises_on_every_engine(router, engine):
    with pytest.raises(ValueError):
        _build(engine, _config(**router))


@pytest.mark.parametrize("drain_limit", [0, 2000])
def test_cut_links_keep_one_packet_slot_per_packet(drain_limit):
    """A packet that crosses a cut keeps its source-side slot, and both
    the slot and its cut-link entry are released when its tail ejects."""
    config = _config(num_vcs=4, allocator="vix", virtual_inputs=2)
    sim = _build("2x2-vectorized", config)
    result = sim.run(warmup=100, measure=300, drain_limit=drain_limit)
    assert result.counters["interchip_flits"] > 0
    fabric = sim._fabric
    live = [p for p in fabric.s.packets if p is not None]
    assert all(p.ejected_cycle < 0 for p in live)
    for pid, idx in fabric.pk_index.items():
        packet = fabric.s.packets[idx]
        assert packet is not None and packet.pid == pid
        assert packet.ejected_cycle < 0
    # Every slot still held is a packet still in flight, once each.
    assert len({p.pid for p in live}) == len(live)
    assert len(live) <= sum(dom.outstanding_flits() for dom in sim.domains)


def test_packet_table_holds_what_is_in_flight():
    """Released slots are reused: after a saturation run that ejects more
    packets than the table's first chunk holds, the table is no longer
    than the packets still in flight plus that one chunk."""
    chunk = 4096  # the packet table's initial capacity
    sim = _build("vectorized", _config(num_vcs=4, allocator="vix", virtual_inputs=2))
    result = sim.run(warmup=200, measure=2000, drain_limit=0)
    s = sim._fabric.s
    live = sum(p is not None for p in s.packets)
    assert result.counters["packets_ejected"] > live + chunk
    assert len(s.packets) <= live + chunk
    assert s.pk_dst.size == chunk
