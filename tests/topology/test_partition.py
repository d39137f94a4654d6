"""Partition plans: grid cuts, degenerate 1x1, and boundary-port algebra.

The ``grid`` partitioner (ISSUE 9 tentpole) slices a router grid into
``px x py`` rectangular chiplet domains.  These tests pin the pure-data
contract everything downstream consumes: a total router->domain
assignment, terminals following their routers, cut links exactly the
inter-domain topology links, and boundary ports in one-to-one
correspondence with cut-link endpoints.
"""

from __future__ import annotations

import pytest

from repro.registry import topologies
from repro.topology import make_topology
from repro.topology.partition import grid_partition


def _mesh64():
    return make_topology("mesh", 64)


class TestGridPartition:
    def test_2x2_mesh_assignment(self):
        topo = _mesh64()
        plan = grid_partition(topo, (2, 2))
        assert plan.num_domains == 4
        assert plan.dims == (2, 2)
        # Every domain owns a 4x4 quadrant of the 8x8 router grid.
        assert all(len(routers) == 16 for routers in plan.domain_routers)
        # The assignment is total and consistent with the per-domain sets.
        assert len(plan.router_domain) == topo.num_routers
        for dom, routers in enumerate(plan.domain_routers):
            for rid in routers:
                assert plan.router_domain[rid] == dom
        # Router 0 is in the top-left quadrant, router 63 bottom-right.
        assert plan.router_domain[0] == 0
        assert plan.router_domain[63] == 3

    def test_terminals_follow_their_router(self):
        topo = _mesh64()
        plan = grid_partition(topo, (2, 2))
        for dom, terminals in enumerate(plan.domain_terminals):
            for t in terminals:
                assert plan.router_domain[topo.router_of(t)[0]] == dom
        total = sum(len(t) for t in plan.domain_terminals)
        assert total == topo.num_terminals

    def test_cut_links_are_exactly_the_boundary(self):
        topo = _mesh64()
        plan = grid_partition(topo, (2, 2))
        expected = [
            spec
            for spec in topo.links()
            if plan.router_domain[spec.src_router] != plan.router_domain[spec.dst_router]
        ]
        assert list(plan.cut_links) == expected
        # 8x8 mesh cut into quadrants: one vertical and one horizontal
        # seam, 8 bidirectional channel pairs each -> 32 directed links.
        assert len(plan.cut_links) == 32

    def test_boundary_ports_match_cut_endpoints(self):
        topo = _mesh64()
        plan = grid_partition(topo, (2, 2))
        egress_total = 0
        ingress_total = 0
        for dom in range(plan.num_domains):
            ports = plan.boundary_ports(dom)
            egress_total += len(ports["egress"])
            ingress_total += len(ports["ingress"])
            for rid, _port in ports["egress"]:
                assert plan.router_domain[rid] == dom
            for rid, _port in ports["ingress"]:
                assert plan.router_domain[rid] == dom
        assert egress_total == len(plan.cut_links)
        assert ingress_total == len(plan.cut_links)

    def test_asymmetric_grid(self):
        topo = _mesh64()
        plan = grid_partition(topo, (4, 1))
        assert plan.num_domains == 4
        # Four 2x8 column slabs: three vertical seams x 8 rows x 2 dirs.
        assert all(len(r) == 16 for r in plan.domain_routers)
        assert len(plan.cut_links) == 48


class TestDegenerate1x1:
    @pytest.mark.parametrize("name", [i.name for i in topologies.infos()])
    def test_1x1_owns_everything_no_cuts(self, name):
        topo = make_topology(name, 64)
        plan = grid_partition(topo, (1, 1))
        assert plan.num_domains == 1
        assert plan.domain_routers[0] == tuple(range(topo.num_routers))
        assert plan.domain_terminals[0] == tuple(range(topo.num_terminals))
        assert plan.cut_links == ()
        assert plan.boundary_ports(0) == {"egress": (), "ingress": ()}


class TestErrors:
    def test_non_dividing_grid_rejected(self):
        with pytest.raises(ValueError, match="does not divide"):
            grid_partition(_mesh64(), (3, 2))

    def test_degenerate_dims_rejected(self):
        with pytest.raises(ValueError, match=">= 1x1"):
            grid_partition(_mesh64(), (0, 1))
