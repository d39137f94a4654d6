"""The chiplet experiment driver: spec shape and a small end-to-end run."""

from __future__ import annotations

from repro.experiments import fig_chiplet
from repro.experiments.spec import ExperimentSpec


class TestSpec:
    def test_default_spec_shape(self):
        spec = fig_chiplet.spec()
        assert isinstance(spec, ExperimentSpec)
        assert spec.name == "chiplet"
        # 2 sizes x 2 allocators x 3 latencies, every point partitioned.
        assert len(spec.scenarios) == 12
        for s in spec.scenarios:
            assert s.key[0] == "sat"
            assert s.topology == "cmesh"
            assert s.partition.link_latency == s.key[3]
            assert s.injection_rate == 1.0
            assert s.drain_limit == 0
        sizes = {s.key[1] for s in spec.scenarios}
        assert sizes == {16, 32}
        by_size = {s.key[1]: s for s in spec.scenarios}
        assert by_size[16].partition.dims == (2, 2)
        assert by_size[16].num_terminals == 16 * 16 * 4
        assert by_size[32].partition.dims == (4, 4)
        assert by_size[32].num_terminals == 32 * 32 * 4
        assert {s.key[3] for s in spec.scenarios} == {0, 4, 8}

    def test_spec_round_trips(self):
        spec = fig_chiplet.spec(sizes=(16,), latencies=(0, 8))
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_registered_as_chiplet(self):
        from repro.experiments import EXPERIMENTS

        assert EXPERIMENTS["chiplet"] is fig_chiplet


class TestSmallRun:
    def test_8x8_single_latency_runs_and_reports(self):
        # An 8x8 CMesh (256 terminals, 2x2 chiplets) keeps the end-to-end
        # path cheap; the real figure sizes (16/32) run from the CLI.
        result = fig_chiplet.run(
            sizes=(8,), latencies=(4,), allocators=("input_first", "vix"), fast=True
        )
        text = fig_chiplet.report(result)
        assert "8x8 CMesh" in text
        assert "partitioned engine" in text
        for alloc in ("input_first", "vix"):
            assert result.throughput(8, alloc, 4) > 0
