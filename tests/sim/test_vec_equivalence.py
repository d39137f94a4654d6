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
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core import make_allocator
from repro.core.arbiter import rr_rotate, rr_winner
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
from repro.sim.vec.state import ACTIVE, SoAState, rr_tables
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
#: The separable kernels' twins, with their virtual inputs per port.
SEPARABLE = {"input_first": 1, "output_first": 1, "vix": 2, "ideal_vix": 4}
#: Output requested by each (router, port, vc), -1 for none; about half
#: the VCs request, so most routers are contended.
_TABLE = st.lists(
    st.one_of(st.just(-1), st.integers(-1, TWIN_P - 1)),
    min_size=TWIN_R * TWIN_P * TWIN_V,
    max_size=TWIN_R * TWIN_P * TWIN_V,
)


def _twin_state(allocator: str, k: int = 1) -> SoAState:
    cfg = _config(allocator, "max_credit", k, num_terminals=4)
    s = SoAState(make_topology(cfg.topology, cfg.num_terminals), cfg)
    assert (s.R, s.P, s.V) == (TWIN_R, TWIN_P, TWIN_V)
    return s


def _assert_twin(s: SoAState, allocator: str, requests: list[int], k: int = 1):
    """One kernel call on ``requests`` vs one object allocator per router."""
    table = np.array(requests).reshape(TWIN_R, TWIN_P, TWIN_V)
    s.st[:] = np.where(table >= 0, ACTIVE, 0)
    s.occ[:] = table >= 0
    s.outp[:] = table
    s.outv[:] = 0
    before = s.export_flow_state(0)["routers"]
    grants = getattr(kernels, s.sa_kernel)(s)
    got = set()
    if grants is not None:
        for fi, out in zip(*(a.tolist() for a in grants)):
            got.add((fi // s.PV, fi // s.V % s.P, fi % s.V, out))
    after = s.export_flow_state(0)["routers"]
    for r in range(TWIN_R):
        twin = make_allocator(allocator, TWIN_P, TWIN_P, TWIN_V, virtual_inputs=k)
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

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), width=st.integers(1, 9), banks=st.integers(1, 6),
           multi=st.booleans())
    def test_rr_arbitrate_matches_rr_winner(self, data, width, banks, multi):
        """Each group's sorted run is its arbiter's grant sequence: round r
        wins ``rr_winner`` over what earlier rounds left, from the pointer
        they left (``rr_rotate``), and the pointer ends one past the last
        granted round; arbiters nobody asked keep theirs.  One round
        returns just the heads, one per group asked, in group order."""
        cells = st.tuples(st.integers(0, banks - 1), st.integers(0, width - 1))
        requests = data.draw(st.permutations(sorted(data.draw(
            st.sets(cells, min_size=1, max_size=banks * width)))))
        ptr0 = np.array(data.draw(st.lists(
            st.integers(0, width - 1), min_size=banks, max_size=banks)))
        slots = {g: [q for h, q in requests if h == g] for g in range(banks)}
        asked = [g for g in range(banks) if slots[g]]
        rounds = None
        if multi:
            rounds = np.array([
                data.draw(st.integers(1, max(1, len(slots[g]))))
                for g in range(banks)
            ])
        s = SimpleNamespace(rr={width: rr_tables(width)}, _arN=np.arange(64))
        group = np.array([g for g, _ in requests])
        slot = np.array([q for _, q in requests])
        ptr = ptr0.copy()
        got = kernels.rr_arbitrate(s, group, slot, ptr, width, rounds)
        if rounds is None:
            assert group[got].tolist() == asked
            runs = {g: [q] for g, q in zip(group[got].tolist(), slot[got].tolist())}
        else:
            order, rank = got
            run_group = group[order]
            runs = {g: slot[order][run_group == g].tolist() for g in asked}
            for g in asked:
                assert rank[run_group == g].tolist() == list(range(len(slots[g])))
        for g in range(banks):
            if not slots[g]:
                assert ptr[g] == ptr0[g]
                continue
            pointer, left, sequence = int(ptr0[g]), list(slots[g]), []
            while left:
                winner = rr_winner(pointer, left, width)
                sequence.append(winner)
                left.remove(winner)
                pointer = rr_rotate(winner, width)
            assert runs[g] == sequence[: len(runs[g])]
            granted = 1 if rounds is None else int(rounds[g])
            assert ptr[g] == rr_rotate(sequence[granted - 1], width)

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

    @settings(max_examples=80, deadline=None)
    @given(allocator=st.sampled_from(sorted(SEPARABLE)), requests=_TABLE,
           seed=st.integers(0, 2**32 - 1))
    def test_separable_kernels_match_object_allocators(
        self, allocator, requests, seed
    ):
        """``sa_input_first`` (IF, VIX k=2, ideal VIX k=4) and
        ``sa_output_first``: grants and post-state equal the object
        allocator's, router by router, from random phase-1/phase-2
        pointers."""
        k = SEPARABLE[allocator]
        s = _twin_state(allocator, k)
        if s.output_first:
            banks = ((s.of_out_ptr1, s.PV), (s.of_in_ptr1, s.P))
        else:
            banks = ((s.in_ptr1, s.gs), (s.out_ptr1, s.Pk))
        rng = np.random.default_rng(seed)
        for ptr, width in banks:
            ptr[:] = rng.integers(0, width, ptr.size)
        _assert_twin(s, allocator, requests, k)

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
