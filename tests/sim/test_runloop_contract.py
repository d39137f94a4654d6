"""One run loop behind every engine (ISSUE 22 tentpole).

Warmup / measure / drain is written once, in :mod:`repro.sim.runloop`;
these tests hold every way of obtaining an engine to the same contract:
argument validation, the drain budget, the phase spans, trace-ring
truncation reporting, and the full engine surface — including whatever
the ``vectorized`` factory hands back when it picks the gated engine.
"""

from __future__ import annotations

import pytest

from repro.network.config import NetworkConfig, RouterConfig
from repro.network.links import PartitionConfig
from repro.obs import ObservabilityConfig
from repro.sim.engines import make_engine
from repro.sim.partition import PartitionedSimulation
from repro.sim.runloop import RunLoop

pytest.importorskip("numpy")

CFG = NetworkConfig(
    topology="mesh",
    num_terminals=16,
    router=RouterConfig(num_vcs=4, allocator="input_first"),
)

#: name -> (engine, injection rate, partition dims, domain engine).  On 16
#: terminals a 0.02 load is below the kernel's break-even (the factory
#: picks gated) and 1.0 is far above it.
ENGINES = {
    "dense": ("dense", 0.3, None, None),
    "gated": ("gated", 0.3, None, None),
    "vectorized-saturated": ("vectorized", 1.0, None, None),
    "vectorized-low-load": ("vectorized", 0.02, None, None),
    "partitioned-1x1-gated": ("partitioned", 0.3, (1, 1), "gated"),
    "partitioned-2x2-gated": ("partitioned", 0.3, (2, 2), "gated"),
    "partitioned-1x1-vectorized": ("partitioned", 0.3, (1, 1), "vectorized"),
    "partitioned-2x2-vectorized": ("partitioned", 0.3, (2, 2), "vectorized"),
    # No domain engine named: the kernel here, gated domains once a trace
    # is asked for (so it is in CAN_TRACE, unlike the named kernel).
    "partitioned-2x2-unnamed": ("partitioned", 0.3, (2, 2), None),
}
#: Engines stepped by object routers: probes and tracers can attach.
CAN_TRACE = [name for name, spec in ENGINES.items() if spec[3] != "vectorized"]


@pytest.fixture(autouse=True)
def _default_threshold(monkeypatch):
    monkeypatch.delenv("REPRO_VEC_MIN_FLITS", raising=False)
    monkeypatch.delenv("REPRO_ENGINE", raising=False)


def build(name: str, obs: ObservabilityConfig | None = None):
    engine, rate, dims, domain_engine = ENGINES[name]
    kwargs = dict(injection_rate=rate, seed=3, obs=obs)
    if dims is not None:
        kwargs["partition"] = PartitionConfig(
            dims=dims, link_latency=2, domain_engine=domain_engine
        )
    return make_engine(engine, CFG, **kwargs)


@pytest.mark.parametrize("name", ENGINES)
class TestEveryEngine:
    def test_shares_the_one_driver(self, name):
        sim = build(name)
        assert type(sim).run is RunLoop.run
        assert type(sim)._advance is RunLoop._advance
        # The engine half of the loop is the partition driver's, too: every
        # engine is a partition of it, none steps through its own copy.
        for hook in ("_step", "_maybe_skip", "_final_counters", "flow_state"):
            assert getattr(type(sim), hook) is getattr(PartitionedSimulation, hook)

    @pytest.mark.parametrize("window", [dict(warmup=-1, measure=10),
                                        dict(warmup=10, measure=0)])
    def test_bad_windows_raise_the_same_error(self, name, window):
        with pytest.raises(ValueError, match="warmup must be >= 0 and measure > 0"):
            build(name).run(**window)

    def test_zero_drain_budget_ends_on_the_window(self, name):
        sim = build(name)
        result = sim.run(warmup=40, measure=60, drain_limit=0)
        assert result.cycles == sim.cycle == 100

    def test_zero_warmup_runs(self, name):
        result = build(name).run(warmup=0, measure=80, drain_limit=200)
        assert result.cycles >= 80 and result.packets_ejected > 0

    def test_profile_only_spans(self, name):
        sim = build(name, ObservabilityConfig(profile=True))
        counters = sim.run(warmup=20, measure=60, drain_limit=100).counters
        for phase in ("warmup", "measure", "drain"):
            assert f"span_{phase}_us" in counters
        # Every run that steps the kernel times it, partitioned ones too.
        assert ("span_kernel_us" in counters) == (
            counters.get("vec_kernel_cycles", 0) > 0
        )
        assert "trace_dropped_events" not in counters

    def test_engine_surface(self, name):
        sim = build(name)
        for attr in ("config", "obs_config", "pattern", "stats", "injector", "cycle"):
            assert hasattr(sim, attr), attr
        assert sim.injector.rate == ENGINES[name][1]
        assert all(net.config is CFG for net in sim.domains)
        result = sim.run(warmup=10, measure=30, drain_limit=50)
        assert sim.flow_state()["cycle"] == sim.cycle
        if name == "partitioned-2x2-unnamed":
            assert result.counters["vec_kernel_cycles"] > 0


@pytest.mark.parametrize("name", CAN_TRACE)
def test_tiny_trace_ring_reports_its_drops(name):
    sim = build(name, ObservabilityConfig(trace=True, trace_buffer=8))
    result = sim.run(warmup=20, measure=60, drain_limit=100)
    assert result.counters["trace_dropped_events"] > 0


@pytest.mark.parametrize("name", sorted(set(ENGINES) - set(CAN_TRACE)))
def test_kernel_domains_refuse_to_trace(name):
    with pytest.raises(ValueError, match="domain_engine='gated'"):
        build(name, ObservabilityConfig(trace=True, trace_buffer=8))


def test_low_load_vectorized_request_is_a_whole_gated_engine():
    """The factory's gated pick is a plain ``Simulation``: at the parent
    commit it was a wrapper without ``obs_config``/``pattern``/``_seed``."""
    from repro.sim.engine import Simulation

    sim = build("vectorized-low-load")
    assert type(sim) is Simulation and sim.domains[0].gating
    result = sim.run(warmup=20, measure=60, drain_limit=100)
    assert "vec_kernel_cycles" not in result.counters
