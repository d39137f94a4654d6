"""Scenario specs across every registered topology: serialization
round-trips, stable content keys, and 2x2 partitionability.

ISSUE 9 satellite: the spec layer grew partition fields, so the
round-trip contract is re-pinned over the *whole* topology registry —
any future topology automatically inherits the guarantee — and every
regular-grid topology must accept the 2x2 grid partitioner with a
boundary-port count matching its cut edges.
"""

from __future__ import annotations

import pytest

from repro.experiments.spec import ExperimentSpec, ScenarioSpec
from repro.network.links import PartitionConfig
from repro.registry import topologies
from repro.topology import make_topology
from repro.topology.partition import grid_partition

ALL_TOPOLOGIES = [info.name for info in topologies.infos()]


def _scenario(topology: str, **overrides) -> ScenarioSpec:
    kwargs = dict(
        key=("t", topology),
        allocator="vix",
        topology=topology,
        num_terminals=64,
        injection_rate=0.08,
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestRoundTripEveryTopology:
    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_plain_scenario_round_trips(self, topology):
        spec = _scenario(topology)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_partitioned_scenario_round_trips(self, topology):
        spec = _scenario(
            topology,
            partition=PartitionConfig(
                dims=(2, 2), link_latency=4, link_width=2, link_credit_latency=1
            ),
        )
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.partition == spec.partition

    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_content_key_stable_across_round_trip(self, topology):
        spec = ExperimentSpec(
            name="rt",
            scenarios=(
                _scenario(topology),
                _scenario(
                    topology,
                    key=("p", topology),
                    partition=PartitionConfig(link_latency=2),
                ),
            ),
        )
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.content_key() == spec.content_key()

    def test_partition_fields_change_the_key(self):
        base = ExperimentSpec(name="k", scenarios=(_scenario("mesh"),))
        cut = ExperimentSpec(
            name="k", scenarios=(_scenario("mesh", partition=PartitionConfig()),)
        )
        assert base.content_key() != cut.content_key()

    def test_workers_stay_out_of_the_content_key(self):
        def key(workers):
            scenario = _scenario("mesh", partition=PartitionConfig(workers=workers))
            return ExperimentSpec(name="k", scenarios=(scenario,)).content_key()

        assert key(1) == key("auto")

    def test_sim_job_carries_the_scenario_partition(self):
        spec = _scenario("mesh", partition=PartitionConfig(dims=(2, 1), link_latency=3))
        assert spec.sim_job(10, 20, seed=1).partition is spec.partition

    def test_monolithic_scenario_has_no_partition_config(self):
        scenario = _scenario("mesh")
        assert scenario.partition is None
        assert scenario.sim_job(10, 20, seed=1).partition is None


class TestEveryGridTopologyPartitions:
    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_2x2_boundary_ports_match_cut_edges(self, topology):
        topo = make_topology(topology, 64)
        plan = grid_partition(topo, (2, 2))
        assert plan.num_domains == 4
        egress = sum(len(plan.boundary_ports(d)["egress"]) for d in range(4))
        ingress = sum(len(plan.boundary_ports(d)["ingress"]) for d in range(4))
        assert egress == len(plan.cut_links)
        assert ingress == len(plan.cut_links)
        assert len(plan.cut_links) > 0
