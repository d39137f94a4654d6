"""Vectorized engine: byte-identical results, state drift guard, capability
gating, and the engine axis in cache identities.

The contract under test (ISSUE 7 tentpole): for every configuration the
SoA kernel supports, ``engine="vectorized"`` must produce **byte-identical**
``SimulationResult``s to the dense object loop — same RNG stream, same
latencies, same activity counters (modulo the scheduling bookkeeping that
measures the engines themselves).  Everything it cannot support must fail
loudly with the registry-style error naming the engines that can.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core import make_allocator
from repro.core.arbiter import rr_winner
from repro.core.matching import hopcroft_karp, matching_size
from repro.core.requests import RequestMatrix
from repro.network.config import NetworkConfig, RouterConfig
from repro.registry import UnknownSchemeError
from repro.sim.engine import run_simulation
from repro.sim.vec import (
    SUPPORTED_ALLOCATORS,
    kernels,
    vectorization_unsupported_reason,
)
from repro.sim.vec.engine import VectorizedSimulation
from repro.sim.vec.kernels import rr_pick
from repro.sim.vec.state import ACTIVE, SoAState
from repro.topology import make_topology

#: Counters measuring the engines themselves: allowed to differ (the dense
#: loop never sleeps or runs the kernel, so it never counts either).
ENGINE_COUNTERS = ("router_wakeups", "cycles_skipped", "vec_kernel_cycles")

#: (allocator, vc_policy, virtual_inputs) points covering both separable
#: phases, the VIX sub-group axis, the ideal (per-VC) crossbar, and the
#: two port-level matchers.
SCHEMES = (
    ("input_first", "max_credit", 1),
    ("input_first", "vix_dimension", 1),
    ("output_first", "max_credit", 1),
    ("vix", "vix_dimension", 2),
    ("ideal_vix", "vix_dimension", 4),
    ("wavefront", "max_credit", 1),
    ("augmenting_path", "max_credit", 1),
)
#: One point per set of allocator pointers the flow-state schema carries.
STATE_SCHEMES = SCHEMES[:5:2] + SCHEMES[5:]

RATES = (("0.05", 0.05), ("saturation", 1.0))
SEEDS = (1, 2)


def _config(
    allocator: str,
    vc_policy: str,
    virtual_inputs: int,
    topology: str = "mesh",
    num_terminals: int = 16,
) -> NetworkConfig:
    return NetworkConfig(
        topology=topology,
        num_terminals=num_terminals,
        router=RouterConfig(
            num_vcs=4,
            allocator=allocator,
            virtual_inputs=virtual_inputs,
            vc_policy=vc_policy,
        ),
    )


def _comparable(result) -> dict:
    """SimulationResult as a dict, engine-bookkeeping counters removed."""
    d = dataclasses.asdict(result)
    for key in ENGINE_COUNTERS:
        d["counters"].pop(key, None)
    return d


WINDOWS = dict(warmup=100, measure=300, drain_limit=300)


@pytest.fixture(autouse=True)
def _no_delegation(monkeypatch):
    """Force the SoA kernel even at low load (delegation is tested apart)."""
    monkeypatch.setenv("REPRO_VEC_MIN_FLITS", "0")


class TestDenseVectorizedEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("rate_label,rate", RATES, ids=[r[0] for r in RATES])
    @pytest.mark.parametrize(
        "allocator,vc_policy,virtual_inputs",
        SCHEMES,
        ids=[f"{s[0]}-{s[1]}" for s in SCHEMES],
    )
    def test_matrix(self, allocator, vc_policy, virtual_inputs, rate_label,
                    rate, seed):
        cfg = _config(allocator, vc_policy, virtual_inputs)
        kwargs = dict(injection_rate=rate, seed=seed, **WINDOWS)
        dense = run_simulation(cfg, engine="dense", **kwargs)
        vec = run_simulation(cfg, engine="vectorized", **kwargs)
        assert _comparable(dense) == _comparable(vec)

    def test_concentrated_mesh(self):
        cfg = _config("vix", "vix_dimension", 2, topology="cmesh",
                      num_terminals=16)
        kwargs = dict(injection_rate=1.0, seed=3, **WINDOWS)
        dense = run_simulation(cfg, engine="dense", **kwargs)
        vec = run_simulation(cfg, engine="vectorized", **kwargs)
        assert _comparable(dense) == _comparable(vec)

    @pytest.mark.parametrize("topology,num_terminals",
                             [("cmesh", 16), ("fbfly", 64)])
    @pytest.mark.parametrize("allocator", ["wavefront", "augmenting_path"])
    def test_port_level_matchers_beyond_radix_5(self, allocator, topology,
                                                num_terminals):
        """Radix 8 and 10: more waves, and a request matrix wider than one
        64-bit word (the augmenting-path memo key is bytes, not an int)."""
        cfg = _config(allocator, "max_credit", 1, topology=topology,
                      num_terminals=num_terminals)
        kwargs = dict(injection_rate=1.0, seed=3, **WINDOWS)
        dense = run_simulation(cfg, engine="dense", **kwargs)
        vec = run_simulation(cfg, engine="vectorized", **kwargs)
        assert vec.counters["vec_kernel_cycles"] > 0
        assert _comparable(dense) == _comparable(vec)

    def test_kernel_actually_ran(self):
        cfg = _config("input_first", "max_credit", 1)
        vec = run_simulation(cfg, engine="vectorized", injection_rate=1.0,
                             seed=1, **WINDOWS)
        assert vec.counters["vec_kernel_cycles"] > 0


class TestFlowStateDriftGuard:
    """Engines must agree on *state*, not just results: byte-identical
    output could in principle hide compensating credit/pointer errors."""

    @pytest.mark.parametrize("allocator,vc_policy,virtual_inputs",
                             STATE_SCHEMES, ids=[s[0] for s in STATE_SCHEMES])
    def test_state_matches_after_identical_runs(self, allocator, vc_policy,
                                                virtual_inputs):
        from repro.sim.engine import Simulation

        cfg = _config(allocator, vc_policy, virtual_inputs)
        kwargs = dict(pattern="uniform", injection_rate=1.0, seed=5)
        dense = Simulation(cfg, activity_gating=False, **kwargs)
        dense.run(**WINDOWS)
        vec = VectorizedSimulation(cfg, **kwargs)
        vec.run(**WINDOWS)
        state = vec.flow_state()
        # The guard must actually see the allocator's pointers.
        assert all(r["sa_pointers"] is not None for r in state["routers"])
        assert dense.flow_state() == state

    def test_roundtrip(self):
        import json

        from repro.network.state import export_flow_state, import_flow_state
        from repro.sim.engine import Simulation

        for scheme in (("vix", "vix_dimension", 2), ("wavefront", "max_credit", 1),
                       ("augmenting_path", "max_credit", 1)):
            cfg = _config(*scheme)
            sim = Simulation(cfg, injection_rate=0.5, seed=2)
            sim.run(**WINDOWS)
            state = sim.flow_state()
            json.dumps(state)  # plain data, serializable as-is
            fresh = Simulation(cfg, injection_rate=0.5, seed=2)
            power_on = export_flow_state(fresh.domains[0])
            assert [r["sa_pointers"] for r in power_on["routers"]] != [
                r["sa_pointers"] for r in state["routers"]
            ], scheme[0]
            import_flow_state(fresh.domains[0], state)
            assert export_flow_state(fresh.domains[0]) == state, scheme[0]

    def test_import_rejects_mismatched_shape(self):
        from repro.network.state import import_flow_state
        from repro.sim.engine import Simulation

        small = Simulation(_config("input_first", "max_credit", 1,
                                   num_terminals=4))
        big = Simulation(_config("input_first", "max_credit", 1))
        with pytest.raises(ValueError, match="routers"):
            import_flow_state(big.domains[0], small.flow_state())


class TestCapabilityGating:
    @pytest.mark.parametrize("allocator", ("sparoflo", "packet_chaining"))
    def test_unsupported_allocator_raises(self, allocator):
        cfg = NetworkConfig(
            topology="mesh",
            num_terminals=16,
            router=RouterConfig(num_vcs=4, allocator=allocator),
        )
        with pytest.raises(UnknownSchemeError) as exc:
            run_simulation(cfg, engine="vectorized", injection_rate=0.1,
                           warmup=10, measure=10)
        # The error names the engines that *can* run the configuration.
        assert "dense" in str(exc.value) and "gated" in str(exc.value)

    def test_torus_dateline_masking_raises(self):
        cfg = NetworkConfig(
            topology="torus",
            num_terminals=16,
            router=RouterConfig(num_vcs=4, allocator="input_first"),
        )
        assert vectorization_unsupported_reason(cfg) is not None
        with pytest.raises(UnknownSchemeError, match="allowed_vcs"):
            run_simulation(cfg, engine="vectorized", injection_rate=0.1,
                           warmup=10, measure=10)

    def test_supported_reason_is_none(self):
        for allocator, vc_policy, virtual_inputs in SCHEMES:
            cfg = _config(allocator, vc_policy, virtual_inputs)
            assert vectorization_unsupported_reason(cfg) is None
        assert set(a for a, _, _ in SCHEMES) == set(SUPPORTED_ALLOCATORS)

    def test_env_default_falls_back_leniently(self, monkeypatch):
        """REPRO_ENGINE=vectorized must not break non-vectorizable schemes:
        the environment default is a preference, not a hard selection —
        but the substitution is announced with a RuntimeWarning."""
        monkeypatch.setenv("REPRO_ENGINE", "vectorized")
        cfg = NetworkConfig(
            topology="mesh",
            num_terminals=16,
            router=RouterConfig(num_vcs=4, allocator="sparoflo"),
        )
        with pytest.warns(RuntimeWarning, match="'gated' engine instead"):
            result = run_simulation(cfg, injection_rate=0.1, seed=1, warmup=50,
                                    measure=100, drain_limit=200)
        assert result.packets_ejected > 0

    def test_engine_alias_canonicalizes(self):
        cfg = _config("input_first", "max_credit", 1)
        kwargs = dict(injection_rate=0.3, seed=1, **WINDOWS)
        via_alias = run_simulation(cfg, engine="vec", **kwargs)
        via_name = run_simulation(cfg, engine="vectorized", **kwargs)
        assert _comparable(via_alias) == _comparable(via_name)


class TestDelegation:
    """Kernel or gated is the ``vectorized`` factory's choice, not a wrapper."""

    def test_low_load_delegates_to_gated(self, monkeypatch):
        from repro.sim.engine import Simulation
        from repro.sim.engines import make_engine

        monkeypatch.delenv("REPRO_VEC_MIN_FLITS", raising=False)
        cfg = _config("input_first", "max_credit", 1)
        sim = make_engine("vectorized", cfg, injection_rate=0.01, seed=1)
        assert type(sim) is Simulation and sim.domains[0].gating
        result = sim.run(**WINDOWS)
        assert "vec_kernel_cycles" not in result.counters
        dense = run_simulation(cfg, engine="dense", injection_rate=0.01,
                               seed=1, **WINDOWS)
        assert _comparable(result) == _comparable(dense)

    def test_saturation_does_not_delegate(self, monkeypatch):
        from repro.sim.engines import make_engine

        monkeypatch.delenv("REPRO_VEC_MIN_FLITS", raising=False)
        cfg = _config("input_first", "max_credit", 1, num_terminals=64)
        sim = make_engine("vectorized", cfg, injection_rate=1.0, seed=1)
        assert type(sim) is VectorizedSimulation

    @pytest.mark.parametrize("bad", ("six", "-1", "nan"))
    def test_malformed_threshold_raises(self, monkeypatch, bad):
        from repro.sim.engines import make_engine

        monkeypatch.setenv("REPRO_VEC_MIN_FLITS", bad)
        cfg = _config("input_first", "max_credit", 1)
        with pytest.raises(ValueError, match="REPRO_VEC_MIN_FLITS") as exc:
            make_engine("vectorized", cfg, injection_rate=1.0, seed=1)
        assert repr(bad) in str(exc.value)

    def test_class_always_runs_the_kernel(self):
        """Built directly, the class never swaps engines: low load steps
        the kernel, and observability it cannot feed is a named error."""
        from repro.obs import ObservabilityConfig

        cfg = _config("input_first", "max_credit", 1)
        sim = VectorizedSimulation(cfg, injection_rate=0.01, seed=1)
        assert sim.run(**WINDOWS).counters["vec_kernel_cycles"] > 0
        with pytest.raises(ValueError, match="gated"):
            VectorizedSimulation(cfg, obs=ObservabilityConfig(metrics=True))


#: The twin tests' fabric: a 2x2 mesh (4 routers, radix 5) with 4 VCs.
TWIN_R, TWIN_P, TWIN_V = 4, 5, 4
PORT_LEVEL = ("wavefront", "augmenting_path")
#: Output requested by each (router, port, vc), -1 for none; about half
#: the VCs request, so most routers are contended.
_TABLE = st.lists(
    st.one_of(st.just(-1), st.integers(-1, TWIN_P - 1)),
    min_size=TWIN_R * TWIN_P * TWIN_V,
    max_size=TWIN_R * TWIN_P * TWIN_V,
)


def _twin_state(allocator: str) -> SoAState:
    cfg = _config(allocator, "max_credit", 1, num_terminals=4)
    s = SoAState(make_topology(cfg.topology, cfg.num_terminals), cfg)
    assert (s.R, s.P, s.V) == (TWIN_R, TWIN_P, TWIN_V)
    return s


def _assert_twin(s: SoAState, allocator: str, requests: list[int]) -> None:
    """One kernel call on ``requests`` vs one object allocator per router."""
    table = np.array(requests).reshape(TWIN_R, TWIN_P, TWIN_V)
    s.st[:] = np.where(table >= 0, ACTIVE, 0)
    s.occ[:] = table >= 0
    s.outp[:] = table
    s.outv[:] = 0
    before = s.export_flow_state(0)["routers"]
    grants = getattr(kernels, f"sa_{allocator}")(s)
    got = set()
    if grants is not None:
        for fi, out in zip(*(a.tolist() for a in grants)):
            got.add((fi // s.PV, fi // s.V % s.P, fi % s.V, out))
    after = s.export_flow_state(0)["routers"]
    for r in range(TWIN_R):
        twin = make_allocator(allocator, TWIN_P, TWIN_P, TWIN_V)
        twin.import_pointers(before[r]["sa_pointers"])
        matrix = RequestMatrix(TWIN_P, TWIN_P, TWIN_V)
        for p, v in zip(*np.nonzero(table[r] >= 0)):
            matrix.add(int(p), int(v), int(table[r, p, v]))
        # The router calls its allocator only when something requests.
        expected = twin.allocate(matrix) if matrix.has_requests() else []
        mine = {g[1:] for g in got if g[0] == r}
        assert mine == {tuple(g) for g in expected}, (allocator, r)
        assert after[r]["sa_pointers"] == twin.export_pointers(), (allocator, r)
        if allocator == "augmenting_path":
            adj = [sorted(outs) for outs in matrix.port_request_sets()]
            best = matching_size(hopcroft_karp(TWIN_P, TWIN_P, adj))
            assert len(mine) == best, r


class TestArbiterDriftGuard:
    """The batched round-robin rule is pinned to the scalar definition."""

    def test_rr_pick_matches_rr_winner(self):
        rng = np.random.default_rng(0)
        n = 7
        mask = rng.random((64, n)) < 0.4
        ptr = rng.integers(0, n, 64)
        picked = rr_pick(mask, ptr, n)
        for row in range(64):
            requests = np.flatnonzero(mask[row]).tolist()
            expected = rr_winner(int(ptr[row]), requests, n)
            if expected is None:
                continue  # no requester: rr_pick's 0 is masked by callers
            assert picked[row] == expected

    @settings(max_examples=60, deadline=None)
    @given(
        allocator=st.sampled_from(PORT_LEVEL),
        requests=_TABLE,
        vc_pointers=st.lists(st.integers(0, TWIN_V - 1), min_size=TWIN_R * TWIN_P,
                             max_size=TWIN_R * TWIN_P),
        diagonals=st.lists(st.integers(0, TWIN_P - 1), min_size=TWIN_R,
                           max_size=TWIN_R),
    )
    def test_port_level_kernels_match_object_allocators(
        self, allocator, requests, vc_pointers, diagonals
    ):
        """Grants and post-state of ``sa_wavefront`` / ``sa_augmenting_path``
        equal their object allocator's, router by router, from any pointer
        state; augmenting-path grants a maximum matching."""
        s = _twin_state(allocator)
        s.vc_ptr1[:] = vc_pointers
        if allocator == "wavefront":
            s.wf_diag[:] = diagonals
        _assert_twin(s, allocator, requests)

    def test_augmenting_path_memo_is_bounded(self, monkeypatch):
        """A tiny cap forces evictions mid-run: grants stay the object
        allocator's, the memo never outgrows the cap, and its values are
        immutable."""
        monkeypatch.setattr(kernels, "AP_MEMO_CAP", 3)
        s = _twin_state("augmenting_path")
        rng = np.random.default_rng(7)
        keys = set()
        for _ in range(40):
            table = rng.integers(-1, TWIN_P, TWIN_R * TWIN_P * TWIN_V)
            table[rng.random(table.size) < 0.5] = -1
            _assert_twin(s, "augmenting_path", table.tolist())
            assert 0 < len(s.ap_memo) <= 3
            keys.update(s.ap_memo)
        assert len(keys) > 3  # more distinct matrices than the memo holds
        assert all(type(v) is bytes for v in s.ap_memo.values())


class TestEngineInCacheIdentity:
    def test_sim_job_key_includes_engine(self):
        from repro.parallel import SimJob

        cfg = _config("input_first", "max_credit", 1)
        base = SimJob(cfg, injection_rate=0.1)
        vec = SimJob(cfg, injection_rate=0.1, engine="vectorized")
        alias = SimJob(cfg, injection_rate=0.1, engine="vec")
        assert base.key() != vec.key()
        assert alias.key() == vec.key()  # aliases share one cache identity
        assert vec.spec()["engine"] == "vectorized"

    def test_scenario_spec_engine_roundtrip(self):
        from repro.experiments.spec import ExperimentSpec, ScenarioSpec

        scenario = ScenarioSpec(key=("x",), engine="vec")
        assert scenario.engine == "vectorized"  # canonicalized at build
        rebuilt = ScenarioSpec.from_dict(scenario.to_dict())
        assert rebuilt == scenario
        assert scenario.to_dict()["engine"] == "vectorized"
        spec = ExperimentSpec(name="t", scenarios=(scenario,))
        other = ExperimentSpec(
            name="t", scenarios=(ScenarioSpec(key=("x",), engine="dense"),)
        )
        assert spec.content_key() != other.content_key()
        assert "vectorized" in spec.canonical_json()

    def test_scenario_spec_default_engine_is_runtime(self):
        from repro.experiments.spec import ScenarioSpec

        scenario = ScenarioSpec(key=("x",))
        assert scenario.engine == ""
        assert scenario.sim_job(10, 10, 1).engine is None
