"""Partitioned engine: monolithic equivalence and mode invariance.

The contract under test (ISSUE 9 tentpole):

* a **1x1 partition with zero-latency links** is the monolithic network
  executed through the domain machinery — its ``SimulationResult`` must
  be *fully identical* to the gated engine's (same counters, same
  latency percentiles, same RNG stream) and report-identical to the
  dense engine's, and its merged flow-state snapshot must be byte-equal
  to the monolith's;
* **worker processes are an execution choice, not a model choice**: a
  multi-domain run must produce the identical result at any worker
  count, including saturation runs with no drain phase;
* per-domain engine selection composes: gated vs dense domains agree,
  and (ISSUE 10 tentpole) **vectorized domains** — SoA-kernel stepping
  behind the same SimDomain contract — are byte-identical to the
  monolithic vectorized engine at 1x1 and report-identical to gated
  domains on every supported allocator, at any worker count; schemes
  the SoA kernel cannot express fail loudly naming the object-engine
  fallbacks.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.network.config import NetworkConfig, RouterConfig
from repro.network.links import PartitionConfig
from repro.sim.engine import Simulation, run_simulation
from repro.sim.partition import PartitionedSimulation, check_invariants
from repro.sim.vec.support import SUPPORTED_ALLOCATORS

#: Counters measuring the engines themselves (scheduling bookkeeping).
ENGINE_COUNTERS = ("router_wakeups", "cycles_skipped", "vec_kernel_cycles")

WINDOWS = dict(warmup=100, measure=300, drain_limit=400)


def _config(
    allocator: str = "input_first",
    num_terminals: int = 64,
    topology: str = "mesh",
    **router,
) -> NetworkConfig:
    return NetworkConfig(
        topology=topology,
        num_terminals=num_terminals,
        router=RouterConfig(allocator=allocator, **{"num_vcs": 4, **router}),
    )


def _comparable(result, *, with_counters: bool = True) -> dict:
    d = dataclasses.asdict(result)
    if with_counters:
        for key in ENGINE_COUNTERS:
            d["counters"].pop(key, None)
    else:
        d.pop("counters")
    return d


def _partition(dims=(1, 1), **kwargs) -> PartitionConfig:
    return PartitionConfig(dims=dims, **kwargs)


class Test1x1Monolithic:
    """The golden-output gate: 1x1 + zero-latency == the monolith."""

    @pytest.mark.parametrize("allocator", ["input_first", "vix"])
    def test_identical_to_gated(self, allocator):
        cfg = _config(allocator)
        kwargs = dict(injection_rate=0.1, seed=1, **WINDOWS)
        part = run_simulation(
            cfg, partition=_partition((1, 1), domain_engine="gated"), **kwargs
        )
        gated = run_simulation(cfg, engine="gated", **kwargs)
        assert dataclasses.asdict(part) == dataclasses.asdict(gated)

    def test_report_identical_to_dense(self):
        cfg = _config()
        kwargs = dict(injection_rate=0.1, seed=1, **WINDOWS)
        part = run_simulation(cfg, partition=_partition((1, 1)), **kwargs)
        dense = run_simulation(cfg, engine="dense", **kwargs)
        assert _comparable(part, with_counters=False) == _comparable(
            dense, with_counters=False
        )

    def test_flow_state_matches_monolith(self):
        cfg = _config()
        mono = Simulation(cfg, injection_rate=0.1, seed=1)
        part = PartitionedSimulation(
            cfg, partition=_partition((1, 1)), injection_rate=0.1, seed=1
        )
        mono.run(warmup=50, measure=150, drain_limit=0)
        part.run(warmup=50, measure=150, drain_limit=0)
        from repro.network.state import export_flow_state

        assert part.flow_state() == export_flow_state(mono.network)

    def test_1x1_counters_carry_no_partition_keys(self):
        cfg = _config()
        res = run_simulation(
            cfg, partition=_partition((1, 1)), injection_rate=0.1, seed=1, **WINDOWS
        )
        assert "partition_domains" not in res.counters
        assert "interchip_flits" not in res.counters


class TestMultiDomain:
    def test_2x2_reports_partition_counters(self):
        cfg = _config()
        res = run_simulation(
            cfg,
            partition=_partition((2, 2), link_latency=4),
            injection_rate=0.1,
            seed=1,
            **WINDOWS,
        )
        assert res.counters["partition_domains"] == 4
        assert res.counters["interchip_flits"] > 0
        assert res.counters["interchip_credits"] > 0
        for d in range(4):
            assert f"domain{d}_flits_ejected" in res.counters
        assert res.packets_ejected > 0

    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_match_serial(self, workers):
        cfg = _config()
        kwargs = dict(injection_rate=0.1, seed=1, **WINDOWS)
        serial = run_simulation(
            cfg, partition=_partition((2, 2), link_latency=4), **kwargs
        )
        parallel = run_simulation(
            cfg,
            partition=_partition((2, 2), link_latency=4, workers=workers),
            **kwargs,
        )
        # cycles_skipped is the one documented serial/worker divergence
        # (it never feeds a reported metric); everything else is equal.
        assert _comparable(serial) == _comparable(parallel)

    def test_workers_match_serial_at_saturation(self):
        """No drain phase: the epoch-barrier path with outstanding flits."""
        cfg = _config()
        kwargs = dict(
            injection_rate=1.0, seed=1, warmup=50, measure=150, drain_limit=0
        )
        serial = run_simulation(cfg, partition=_partition((2, 2)), **kwargs)
        parallel = run_simulation(
            cfg, partition=_partition((2, 2), workers=2), **kwargs
        )
        assert _comparable(serial) == _comparable(parallel)

    def test_domain_engine_dense_matches_gated(self):
        cfg = _config()
        kwargs = dict(injection_rate=0.1, seed=1, **WINDOWS)
        gated = run_simulation(
            cfg, partition=_partition((2, 2), domain_engine="gated"), **kwargs
        )
        dense = run_simulation(
            cfg, partition=_partition((2, 2), domain_engine="dense"), **kwargs
        )
        assert _comparable(gated) == _comparable(dense)


class TestEngineSelection:
    def test_partition_forces_partitioned_engine(self):
        cfg = _config(num_terminals=16)
        with pytest.raises(ValueError, match="partitioned"):
            run_simulation(
                cfg,
                engine="dense",
                partition=_partition((1, 1)),
                injection_rate=0.1,
                warmup=10,
                measure=10,
            )

    def test_explicit_partitioned_engine_accepts_partition(self):
        cfg = _config(num_terminals=16)
        res = run_simulation(
            cfg,
            engine="partitioned",
            partition=_partition((2, 2)),
            injection_rate=0.1,
            seed=1,
            warmup=50,
            measure=100,
            drain_limit=200,
        )
        assert res.counters["partition_domains"] == 4

    def test_unknown_domain_engine_rejected(self):
        with pytest.raises(ValueError, match="gated.*dense.*vectorized|domain_engine"):
            _partition((2, 2), domain_engine="simd")

    def test_engine_env_partitioned(self, monkeypatch):
        """REPRO_ENGINE=partitioned resolves the grid from REPRO_PARTITION."""
        monkeypatch.setenv("REPRO_ENGINE", "partitioned")
        monkeypatch.setenv("REPRO_PARTITION", "2x2")
        cfg = _config()
        res = run_simulation(
            cfg, injection_rate=0.1, seed=1, warmup=50, measure=100, drain_limit=200
        )
        assert res.counters["partition_domains"] == 4


SHORT_WINDOWS = dict(warmup=20, measure=60, drain_limit=200)

#: Operating points of the vectorized-domain cases: the low-load mesh;
#: the benchmark's ``cmesh16_chiplet`` point (CMesh, VIX, saturation,
#: link latency 4, no drain phase) on a small fabric; the low-load mesh
#: behind narrow (2-flit-serialised) links; and VIX with its dimension-
#: aware VC policy on 6 VCs, narrow links and a fast credit return.
#: ``allocator`` is for the worker-count case, which does not sweep it;
#: ``router`` overrides the 4-VC default router.
VEC_POINTS = {
    "mesh-low": dict(
        topology="mesh",
        allocator="input_first",
        injection_rate=0.1,
        windows=WINDOWS,
        link=dict(link_latency=4),
    ),
    "cmesh-sat": dict(
        topology="cmesh",
        allocator="vix",
        injection_rate=1.0,
        windows=dict(warmup=50, measure=150, drain_limit=0),
        link=dict(link_latency=4),
    ),
    "mesh-narrow": dict(
        topology="mesh",
        injection_rate=0.1,
        windows=SHORT_WINDOWS,
        link=dict(link_latency=2, link_width=2),
    ),
    "vix6-credit": dict(
        topology="mesh",
        injection_rate=0.08,
        windows=SHORT_WINDOWS,
        link=dict(link_latency=4, link_width=2, link_credit_latency=1),
        router=dict(num_vcs=6, vc_policy="vix_dimension"),
    ),
}


def _at_vec_points(values, names=("mesh-low", "cmesh-sat")) -> list:
    """``(value, point)`` cases; the low-load mesh keeps the bare value id."""
    return [
        pytest.param(
            v, VEC_POINTS[name], id=str(v) if name == "mesh-low" else f"{v}-{name}"
        )
        for v in values
        for name in names
    ]


class TestVectorizedDomains:
    """ISSUE 10: SoA-kernel domains behind the SimDomain contract.

    ISSUE 16: sibling domains share one SoA state and one stepper, so a
    fabric cycle is one kernel call however many domains it spans.
    """

    @pytest.fixture(autouse=True)
    def _numpy(self):
        pytest.importorskip("numpy")

    def test_1x1_identical_to_monolithic_vectorized(self):
        from repro.sim.vec.engine import VectorizedSimulation

        cfg = _config("vix")
        kwargs = dict(injection_rate=0.1, seed=1)
        mono = VectorizedSimulation(cfg, **kwargs)
        part = PartitionedSimulation(
            cfg,
            partition=_partition((1, 1), domain_engine="vectorized"),
            **kwargs,
        )
        r1 = mono.run(**WINDOWS)
        r2 = part.run(**WINDOWS)
        assert dataclasses.asdict(r2) == dataclasses.asdict(r1)
        assert part.flow_state() == mono.flow_state()

    def test_dropped_fabric_frees_its_tables_without_the_cycle_collector(self):
        """Only the engine holds the fabric strongly: once a finished run's
        engine is dropped, its tables go at once, not at the cycle
        collector's next pass (the domains themselves stay cyclic)."""
        import gc
        import weakref

        gc.disable()
        try:
            sim = PartitionedSimulation(
                _config("vix"),
                partition=_partition((2, 2), domain_engine="vectorized"),
                injection_rate=0.1,
            )
            sim.run(warmup=20, measure=40, drain_limit=0)
            tables = weakref.ref(sim._fabric.s)
            del sim
            assert tables() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "allocator, point",
        _at_vec_points(SUPPORTED_ALLOCATORS, ("mesh-low", "cmesh-sat", "mesh-narrow"))
        + _at_vec_points(["vix"], ("vix6-credit",)),
    )
    def test_2x2_matches_gated_domains(self, allocator, point):
        """Gated, vectorized and unnamed domains agree, with flit
        conservation and credit accounting checked every 25 cycles."""
        cfg = _config(allocator, topology=point["topology"], **point.get("router", {}))
        results = []
        for de in ("gated", "vectorized", None):
            sim = PartitionedSimulation(
                cfg,
                partition=_partition((2, 2), domain_engine=de, **point["link"]),
                injection_rate=point["injection_rate"],
                seed=1,
            )
            sim.on_cycle = lambda s: s.cycle % 25 or check_invariants(s)
            results.append(_comparable(sim.run(**point["windows"])))
            check_invariants(sim)
        assert results[0] == results[1] == results[2]

    def test_2x2_flow_state_matches_gated_domains(self):
        # VIX at both points; the port-level matchers (priority diagonal,
        # per-port VC pointers) at one each.
        cases = [("vix", name) for name in VEC_POINTS]
        cases += [("wavefront", "mesh-low"), ("augmenting_path", "cmesh-sat")]
        for allocator, name in cases:
            point = VEC_POINTS[name]
            cfg = _config(allocator, topology=point["topology"])
            sims = {}
            for de in ("gated", "vectorized", None):
                sim = PartitionedSimulation(
                    cfg,
                    partition=_partition((2, 2), link_latency=2, domain_engine=de),
                    injection_rate=point["injection_rate"],
                    seed=1,
                )
                sim.run(warmup=50, measure=150, drain_limit=0)
                sims[de] = sim
            assert (
                sims["vectorized"].flow_state()
                == sims["gated"].flow_state()
                == sims[None].flow_state()
            ), (allocator, name)

    @pytest.mark.parametrize("workers, point", _at_vec_points([2, 4]))
    def test_workers_match_serial(self, workers, point):
        cfg = _config(point["allocator"], topology=point["topology"])
        kwargs = dict(
            injection_rate=point["injection_rate"], seed=1, **point["windows"]
        )
        serial = run_simulation(
            cfg,
            partition=_partition((2, 2), domain_engine="vectorized", **point["link"]),
            **kwargs,
        )
        parallel = run_simulation(
            cfg,
            partition=_partition(
                (2, 2), domain_engine="vectorized", workers=workers, **point["link"]
            ),
            **kwargs,
        )
        assert _comparable(serial) == _comparable(parallel)

    def test_asymmetric_credit_latency_matches_gated(self):
        cfg = _config()
        kwargs = dict(injection_rate=0.1, seed=1, **WINDOWS)
        results = [
            run_simulation(
                cfg,
                partition=_partition(
                    (2, 2),
                    link_latency=3,
                    link_credit_latency=1,
                    domain_engine=de,
                ),
                **kwargs,
            )
            for de in ("gated", "vectorized")
        ]
        assert _comparable(results[0]) == _comparable(results[1])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_kernel_call_per_fabric_cycle(self, workers, monkeypatch):
        """Stacking guard, as a count: sibling domains share one stepper.

        Stepping each domain through its own kernel call would make four
        ``va_kernel`` calls per cycle (two per worker at ``workers=2``) and
        report four kernel cycles per fabric cycle.
        """
        import multiprocessing as mp

        from repro.sim.vec import stepping

        calls = mp.get_context("fork").Value("i", 0)  # forked workers count too
        va_kernel = stepping.va_kernel

        def counted(s):
            with calls.get_lock():
                calls.value += 1
            return va_kernel(s)

        monkeypatch.setattr(stepping, "va_kernel", counted)
        res = run_simulation(
            _config("vix"),
            partition=_partition(
                (2, 2), link_latency=4, domain_engine="vectorized", workers=workers
            ),
            injection_rate=0.1,
            seed=1,
            **WINDOWS,
        )
        stepped = res.counters["cycles"] - res.counters["cycles_skipped"]
        assert res.counters["vec_kernel_cycles"] == stepped
        assert 0 < calls.value <= workers * stepped

    def test_unnamed_domain_engine_is_worked_out(self, monkeypatch):
        """No engine named: the kernel where it can run and pays, gated
        domains elsewhere — the predicate the ``vectorized`` factory uses."""
        from repro.network.domain import DomainNetwork
        from repro.obs import ObservabilityConfig
        from repro.sim.vec.domain import VecDomain

        monkeypatch.delenv("REPRO_DOMAIN_ENGINE", raising=False)
        monkeypatch.delenv("REPRO_VEC_MIN_FLITS", raising=False)

        def domain_type(allocator="vix", rate=0.1, obs=None):
            sim = PartitionedSimulation(
                _config(allocator, topology="cmesh"),
                partition=_partition((2, 2), link_latency=4),
                injection_rate=rate,
                seed=1,
                obs=obs,
            )
            return type(sim.domains[0])

        assert domain_type() is VecDomain
        assert domain_type(obs=ObservabilityConfig(profile=True)) is VecDomain
        assert domain_type(obs=ObservabilityConfig(metrics=True)) is DomainNetwork
        assert domain_type(obs=ObservabilityConfig(trace=True)) is DomainNetwork
        assert domain_type("packet_chaining") is DomainNetwork
        assert domain_type(rate=0.001) is DomainNetwork  # under the threshold
        assert PartitionConfig.from_env().domain_engine is None
        assert _partition((2, 2)).spec()["domain_engine"] is None

    def test_metrics_and_trace_rejected_by_name(self):
        """Probes hook object allocators the kernel never calls: asking for
        them must fail at construction, not report zero grants."""
        from repro.obs import ObservabilityConfig

        kwargs = dict(
            partition=_partition((2, 2), domain_engine="vectorized"),
            injection_rate=0.1,
            seed=1,
        )
        for obs in (ObservabilityConfig(metrics=True), ObservabilityConfig(trace=True)):
            with pytest.raises(ValueError, match="domain_engine='gated'"):
                PartitionedSimulation(_config("vix"), obs=obs, **kwargs)
        PartitionedSimulation(
            _config("vix"), obs=ObservabilityConfig(profile=True), **kwargs
        )

    def test_unsupported_scheme_fails_loudly(self):
        """Non-vectorizable allocators must name the object fallbacks."""
        from repro.registry import UnknownSchemeError

        cfg = _config("packet_chaining")
        with pytest.raises(UnknownSchemeError, match="dense.*gated|gated.*dense"):
            PartitionedSimulation(
                cfg,
                partition=_partition((2, 2), domain_engine="vectorized"),
                injection_rate=0.1,
                seed=1,
            )
