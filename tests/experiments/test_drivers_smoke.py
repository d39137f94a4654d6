"""Smoke tests: every experiment driver runs end to end and its report
renders.  Run lengths are shrunk via the runner's FAST preset so the whole
file stays fast; the paper-shape assertions live in the benchmark harness.
"""

import math

import pytest

import repro.experiments.runner as runner
from repro.experiments import (
    EXPERIMENTS,
    ablations,
    fig7_single_router,
    fig8_mesh,
    fig9_fairness,
    fig10_packet_chaining,
    fig11_energy,
    fig12_virtual_inputs,
    get_experiment,
    table1_delays,
    table3_allocator_delays,
    table4_applications,
)

TINY = runner.RunLengths(
    warmup=100,
    measure=300,
    single_router_cycles=300,
    manycore_warmup=100,
    manycore_measure=300,
)


@pytest.fixture(autouse=True)
def tiny_runs(monkeypatch):
    monkeypatch.setattr(runner, "FAST", TINY)
    monkeypatch.delenv("REPRO_FULL", raising=False)


class TestStaticExperiments:
    def test_t1_matches_paper_exactly(self):
        rows = table1_delays.run()
        for row in rows:
            va, sa, xb = table1_delays.PAPER_VALUES[row.design]
            assert (row.va_ps, row.sa_ps, row.xbar_ps) == (va, sa, xb)
        assert "Mesh with VIX" in table1_delays.report(rows)

    def test_t3_matches_paper(self):
        values = table3_allocator_delays.run()
        assert values["input_first"] == 280.0
        assert values["wavefront"] == 390.0
        assert math.isinf(values["augmenting_path"])
        assert "Infeasible" in table3_allocator_delays.report(values)


class TestSimulationExperiments:
    def test_f7_runs_and_ranks(self):
        res = fig7_single_router.run(fast=True, seed=2)
        for radix in fig7_single_router.RADICES:
            assert res.throughput[(radix, "vix")] > res.throughput[(radix, "input_first")]
        assert "Radix-5" in fig7_single_router.report(res)

    def test_f8_curves_and_saturation(self):
        res = fig8_mesh.run(
            rates=(0.02,), allocators=("input_first", "vix"), fast=True, seed=2
        )
        assert res.curves["input_first"][0].drained
        assert res.saturation_flits_per_node("vix") > 0
        assert res.throughput_gain("vix") > 0
        assert "Figure 8" in fig8_mesh.report(res)

    def test_f9_fairness_values_sane(self):
        res = fig9_fairness.run(fast=True, seed=2)
        for alloc, value in res.fairness.items():
            assert value >= 1.0
        assert "Max/Min" in fig9_fairness.report(res)

    def test_f10_single_flit_comparison(self):
        res = fig10_packet_chaining.run(fast=True, seed=2)
        assert res.gain_over_if("vix") > 0
        assert res.gain_over_if("packet_chaining") > 0
        assert "single-flit" in fig10_packet_chaining.report(res)

    def test_f11_energy_breakdown(self):
        res = fig11_energy.run(fast=True, seed=2)
        assert 0.0 < res.vix_total_overhead() < 0.15
        base = res.breakdowns["input_first"].per_bit_components()
        vix = res.breakdowns["vix"].per_bit_components()
        assert vix["crossbar"] > base["crossbar"]
        assert "pJ/bit" in fig11_energy.report(res)

    @pytest.mark.parametrize("engine", ["dense", "gated", "vectorized"])
    def test_f11_energy_on_every_engine(self, engine, monkeypatch):
        """Whatever an engine adds to ``counters`` about itself (kernel
        cycles, profile spans) must not reach the energy model."""
        monkeypatch.setenv("REPRO_ENGINE", engine)
        monkeypatch.setenv("REPRO_PROFILE", "1")
        res = fig11_energy.run(fast=True, seed=2)
        assert 0.0 < res.vix_total_overhead() < 0.15

    def test_f12_subset_sweep(self):
        res = fig12_virtual_inputs.run(
            topologies=("mesh",), vc_counts=(4,), fast=True, seed=2
        )
        assert res.gain("mesh", 4) > 0
        assert res.throughput[("mesh", 4, "ideal VIX")] >= res.throughput[
            ("mesh", 4, "no VIX")
        ]
        assert "mesh" in fig12_virtual_inputs.report(res)

    def test_ablations_run_and_report(self):
        res = ablations.run(fast=True, seed=2)
        # Every study produced values and the report renders them.
        studies = {key[0] for key in res.values}
        assert studies == {
            "vc_policy", "pointer", "partition", "sparoflo", "vinputs", "phase_order",
        }
        text = ablations.report(res)
        assert "SPAROFLO" in text and "pointer" in text.lower()

    def test_t4_single_mix(self):
        res = table4_applications.run(mixes=("Mix8",), fast=True, seed=2)
        assert res.speedup("Mix8") > 0.9
        assert res.avg_mpki["Mix8"] == pytest.approx(66.9, abs=0.1)
        assert "Mix8" in table4_applications.report(res)


class TestRegistry:
    def test_every_id_resolves(self):
        for key in EXPERIMENTS:
            module = get_experiment(key)
            assert hasattr(module, "run")
            assert hasattr(module, "report")
            assert hasattr(module, "main")

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            get_experiment("f99")


class TestRunner:
    def test_run_lengths_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert runner.run_lengths() is runner.FULL
        monkeypatch.setenv("REPRO_FULL", "0")
        assert runner.run_lengths() is runner.FAST
        assert runner.run_lengths(fast=False) is runner.FULL

    def test_format_table_alignment(self):
        text = runner.format_table(["a", "bb"], [["x", 1], ["yyy", 2.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            runner.format_table(["a"], [["x", "y"]])

    def test_improvement(self):
        assert runner.improvement(1.16, 1.0) == pytest.approx(0.16)
        with pytest.raises(ValueError):
            runner.improvement(1.0, 0.0)
