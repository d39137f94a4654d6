"""``Topology.route_table()``: one DOR route table per topology.

The table must agree with the per-call :meth:`Topology.route` for every
(router, terminal) pair on every registered topology, and every consumer's
copy (the object routers' rows, the SoA kernel's static tensors) must equal
what the per-element definitions they replaced would have built.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import paper_config
from repro.network.network import Network
from repro.topology import (
    TOPOLOGY_NAMES,
    CMeshTopology,
    FlattenedButterflyTopology,
    MeshTopology,
    TorusTopology,
    make_topology,
)

#: Two terminal counts per registered topology (cmesh/fbfly attach 4
#: terminals per router, so theirs are 4 x a square).
SIZES = {"mesh": (16, 36), "torus": (16, 25), "cmesh": (16, 64), "fbfly": (16, 64)}


def assert_table_matches_route(topo) -> None:
    table = topo.route_table()
    assert len(table.next_port) == topo.num_routers
    for r in range(topo.num_routers):
        expected = [topo.route(r, t) for t in range(topo.num_terminals)]
        assert list(table.terminal_row(r)) == expected, f"router {r}"


def test_every_registered_topology_is_sized():
    assert set(SIZES) == set(TOPOLOGY_NAMES)


@pytest.mark.parametrize(
    "name,terminals", [(n, t) for n in sorted(SIZES) for t in SIZES[n]]
)
def test_route_table_matches_route(name, terminals):
    assert_table_matches_route(make_topology(name, terminals))


@given(
    kind=st.sampled_from(["mesh", "cmesh", "fbfly", "torus"]),
    width=st.integers(3, 6),
    height=st.integers(3, 6),
    concentration=st.integers(1, 4),
)
@settings(max_examples=30, deadline=None)
def test_property_route_table_matches_route_on_any_grid(
    kind, width, height, concentration
):
    topo = {
        "mesh": lambda: MeshTopology(width, height),
        "cmesh": lambda: CMeshTopology(width, height, concentration),
        "fbfly": lambda: FlattenedButterflyTopology(width, height, concentration),
        "torus": lambda: TorusTopology(width, height),
    }[kind]()
    assert_table_matches_route(topo)


def test_single_router_cmesh():
    assert_table_matches_route(CMeshTopology(1, 1, 3))


@pytest.mark.parametrize("name", sorted(SIZES))
def test_tables_are_built_once_per_instance(name):
    topo = make_topology(name, 16)
    assert topo.route_table() is topo.route_table()
    links = topo.links()
    assert isinstance(links, tuple)
    assert topo.links() is links


# --- consumers: the per-element definitions the table replaced ------------

#: (allocator, topology, terminals): both VIX sub-group shapes of the
#: vix_bonus table, concentration 1 and 4, and the torus fallback rows.
FABRICS = (
    ("vix", "mesh", 16),
    ("input_first", "cmesh", 64),
    ("vix", "fbfly", 16),
    ("ideal_vix", "torus", 9),
)


def _config(allocator, topology, terminals):
    return dataclasses.replace(
        paper_config(allocator, topology=topology), num_terminals=terminals
    )


@pytest.mark.parametrize("allocator,topology,terminals", FABRICS)
def test_router_rows_match_per_terminal_route(allocator, topology, terminals):
    net = Network(_config(allocator, topology, terminals))
    topo = net.topology
    for router in net.routers:
        assert list(router._route_table) == [
            topo.route(router.rid, t) for t in range(topo.num_terminals)
        ]


@pytest.mark.parametrize("allocator,topology,terminals", FABRICS)
def test_soa_tables_match_per_element_definitions(allocator, topology, terminals):
    np = pytest.importorskip("numpy")
    from repro.sim.vec.state import SoAState

    net = Network(_config(allocator, topology, terminals))
    s = SoAState(net)
    topo = net.topology
    R, P, T, C, V = s.R, s.P, s.T, s.C, s.V

    route_tab = np.array(
        [[topo.route(r, t) for t in range(T)] for r in range(R)], dtype=np.int64
    )
    cls_arr = np.array(
        [
            -1 if topo.is_local_port(p) else topo.port_direction_class(p)
            for p in range(P)
        ],
        dtype=np.int64,
    )
    la_tab = np.full((R, P, T), -1, dtype=np.int64)
    for r in range(R):
        for p in range(C, P):
            nb = topo.neighbor(r, p)
            if nb is None:
                continue
            nxt = route_tab[nb[0]]
            la_tab[r, p] = np.where(nxt < C, -1, cls_arr[nxt])
    rof = [topo.router_of(t) for t in range(T)]
    ni_fi1 = np.array([(r * P + p) * V for r, p in rof], dtype=np.int64)
    ni_dir1 = cls_arr[route_tab][
        np.array([r for r, _ in rof], dtype=np.int64)
    ].reshape(-1)
    term_tab = np.array(
        [[topo.terminal_of(r, p) for p in range(C)] for r in range(R)],
        dtype=np.int64,
    )
    bonus = (V * (s.sumcap + s.depth) + 1) * s._m2
    vix_bonus = np.zeros((T + 2, V), dtype=np.int64)
    for d in range(T + 1):
        vix_bonus[d + 1] = (s.gof == s.dirmap[d + 1]) * bonus

    for name, expected in (
        ("route_tab", route_tab),
        ("la_tab", la_tab),
        ("ni_fi1", ni_fi1),
        ("ni_dir1", ni_dir1),
        ("term_tab", term_tab),
        ("vix_bonus", vix_bonus),
    ):
        got = getattr(s, name)
        assert got.dtype == expected.dtype, name
        assert got.shape == expected.shape, name
        assert np.array_equal(got, expected), name
    # The kernels read flat views of these tables.
    assert np.shares_memory(s.route1, s.route_tab)
    assert np.shares_memory(s.la1, s.la_tab)
