"""Partitioning a topology into chiplet simulation domains.

A :class:`PartitionPlan` is the pure-data answer to "which router lives
on which chiplet": a router→domain assignment, the induced terminal
assignment, and the list of *cut links* — directed topology links whose
endpoints fall in different domains.  Everything downstream (the domain
:class:`~repro.network.network.Network` builders, the
:class:`~repro.network.links.InterChipLink` construction, the invariant
checkers) consumes the plan; nothing re-derives the cut.

:func:`grid_partition` is the one way to cut a topology, mirroring
fpgagraphlib's partitioning of one logical network onto an FPGA grid: the
router grid is sliced into ``px x py`` equal rectangles, one domain per
rectangle.  It applies to every registered topology that exposes grid
coordinates (``width`` / ``height`` / ``coords``), which is all of them —
mesh, cmesh, torus, and the flattened butterfly (whose row/column express
links simply produce more cut links per domain boundary).  A ``1x1`` grid
degenerates to one domain owning everything and needs no coordinates at
all, so the monolithic-equivalence gate works for any topology.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import LinkSpec, Topology


@dataclass(frozen=True)
class PartitionPlan:
    """One topology cut into simulation domains (pure data, no behaviour)."""

    #: Partition grid dimensions ``(px, py)``.
    dims: tuple[int, int]
    #: ``router id -> domain index`` for every router of the topology.
    router_domain: tuple[int, ...]
    #: Per-domain owned router ids, ascending.
    domain_routers: tuple[tuple[int, ...], ...]
    #: Per-domain owned terminal ids, ascending.
    domain_terminals: tuple[tuple[int, ...], ...]
    #: Directed topology links crossing a domain boundary, in
    #: ``topology.links()`` order (the inter-chip links to build).
    cut_links: tuple[LinkSpec, ...]

    @property
    def num_domains(self) -> int:
        return len(self.domain_routers)

    def boundary_ports(self, domain: int) -> dict[str, tuple[tuple[int, int], ...]]:
        """The domain's boundary ports as ``(router, port)`` pairs.

        ``egress`` ports source a cut link (the domain's routers send
        through them); ``ingress`` ports sink one (flits arrive on them
        from another domain).  One cut link contributes exactly one
        egress port (at its source domain) and one ingress port (at its
        destination domain), so ``sum(len(egress))`` over all domains
        equals ``len(cut_links)``.
        """
        rd = self.router_domain
        egress = tuple(
            (spec.src_router, spec.src_port)
            for spec in self.cut_links
            if rd[spec.src_router] == domain
        )
        ingress = tuple(
            (spec.dst_router, spec.dst_port)
            for spec in self.cut_links
            if rd[spec.dst_router] == domain
        )
        return {"egress": egress, "ingress": ingress}


def _plan_from_assignment(
    topology: Topology, dims: tuple[int, int], router_domain: list[int]
) -> PartitionPlan:
    """Derive the per-domain sets and the cut from a router assignment."""
    num_domains = dims[0] * dims[1]
    domain_routers: list[list[int]] = [[] for _ in range(num_domains)]
    for rid, dom in enumerate(router_domain):
        domain_routers[dom].append(rid)
    empty = [d for d, routers in enumerate(domain_routers) if not routers]
    if empty:
        raise ValueError(
            f"partition {dims[0]}x{dims[1]} leaves domain(s) {empty} without "
            f"routers on this {topology.num_routers}-router topology"
        )
    domain_terminals: list[list[int]] = [[] for _ in range(num_domains)]
    for t in range(topology.num_terminals):
        domain_terminals[router_domain[topology.router_of(t)[0]]].append(t)
    cut = tuple(
        spec
        for spec in topology.links()
        if router_domain[spec.src_router] != router_domain[spec.dst_router]
    )
    return PartitionPlan(
        dims=(dims[0], dims[1]),
        router_domain=tuple(router_domain),
        domain_routers=tuple(tuple(r) for r in domain_routers),
        domain_terminals=tuple(tuple(t) for t in domain_terminals),
        cut_links=cut,
    )


def grid_partition(topology: Topology, dims: tuple[int, int]) -> PartitionPlan:
    """Cut a grid topology into ``px x py`` rectangular chiplet domains.

    Domains are numbered row-major over the partition grid (domain
    ``gy * px + gx``).  ``px`` and ``py`` must divide the router grid's
    width and height so every chiplet is the same size — uneven chiplets
    would silently skew any per-domain comparison.  The ``1x1`` grid is
    topology-agnostic: one domain owns every router.
    """
    px, py = int(dims[0]), int(dims[1])
    if px < 1 or py < 1:
        raise ValueError(f"partition grid must be >= 1x1, got {px}x{py}")
    if px == 1 and py == 1:
        return _plan_from_assignment(topology, (1, 1), [0] * topology.num_routers)
    width = getattr(topology, "width", None)
    height = getattr(topology, "height", None)
    if width is None or height is None or not hasattr(topology, "coords"):
        raise ValueError(
            f"{type(topology).__name__} exposes no router grid "
            f"(width/height/coords); only a 1x1 partition applies"
        )
    if width % px or height % py:
        raise ValueError(
            f"partition grid {px}x{py} does not divide the "
            f"{width}x{height} router grid"
        )
    cw, ch = width // px, height // py
    router_domain = []
    for rid in range(topology.num_routers):
        x, y = topology.coords(rid)
        router_domain.append((y // ch) * px + (x // cw))
    return _plan_from_assignment(topology, (px, py), router_domain)


__all__ = ["PartitionPlan", "grid_partition"]
