"""Tests for the vix-repro command-line interface."""

import pytest

import repro.experiments.runner as runner
from repro.cli import main


@pytest.fixture(autouse=True)
def tiny_runs(monkeypatch):
    monkeypatch.setattr(
        runner,
        "FAST",
        runner.RunLengths(
            warmup=50,
            measure=150,
            single_router_cycles=150,
            manycore_warmup=50,
            manycore_measure=150,
        ),
    )
    monkeypatch.delenv("REPRO_FULL", raising=False)


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "t1" in out and "f12" in out
        # Allocators with an SoA kernel are starred, and the engine a run
        # gets when none is named is stated.
        assert "wavefront* (wf)" in out and "augmenting_path* (ap)" in out
        assert "packet_chaining (pc)" in out
        assert "unnamed = vectorized where it can run, else gated" in out

    def test_static_experiment(self, capsys):
        assert main(["t1"]) == 0
        out = capsys.readouterr().out
        assert "Mesh with VIX" in out

    def test_simulation_experiment_with_seed(self, capsys):
        assert main(["f7", "--seed", "3"]) == 0
        assert "Radix-5" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["f99"]) == 2

    def test_case_insensitive(self, capsys):
        assert main(["T3"]) == 0
        assert "Infeasible" in capsys.readouterr().out
