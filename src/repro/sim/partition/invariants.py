"""Cross-domain correctness invariants for partitioned runs.

Two families of checks fence the boundary machinery (serial mode, where
every domain is inspectable in-process):

* **flit conservation** — every flit the injectors ever created is
  either ejected, somewhere inside a domain (NI queue, injection
  channel, router buffer, event wheel), or sitting in a link outbox.  A
  flit lost or duplicated at a boundary breaks the global sum
  immediately.
* **credit accounting** — for every wired non-ejection (port, VC) pair,
  upstream credits + downstream buffer occupancy + in-flight arrivals +
  in-flight returning credits + link-outbox messages equals
  ``buffer_depth`` exactly.  This is the boundary credit contract: an
  inter-chip link must keep the loop *closed* (longer, but lossless),
  so partitioning can never overrun a buffer or leak credits.

Both are O(state) scans intended for tests and the CI smoke, not the
hot loop; :func:`check_invariants` runs both and raises
:class:`PartitionInvariantError` with a precise locus on violation.
"""

from __future__ import annotations

from repro.network.links import MSG_CREDIT, MSG_FLIT


class PartitionInvariantError(AssertionError):
    """A conservation or credit-accounting invariant was violated."""


def check_flit_conservation(sim) -> None:
    """Every created flit is ejected, in some domain, or on a link."""
    created = sim.total_created_flits()
    ejected = sum(dom.counter_snapshot()["flits_ejected"] for dom in sim.domains)
    in_network = sum(dom.outstanding_flits() for dom in sim.domains)
    on_links = sum(link.pending() for link in sim.links)
    total = ejected + in_network + on_links
    if total != created:
        raise PartitionInvariantError(
            f"flit conservation violated at cycle {sim.cycle}: created "
            f"{created} != ejected {ejected} + in-network {in_network} + "
            f"on-links {on_links} (= {total})"
        )


def _outbox_counts(link):
    """Pending outbox messages by (kind, vc)."""
    flits: dict[int, int] = {}
    creds: dict[int, int] = {}
    for msg in link.outbox:
        if msg[0] == MSG_FLIT:
            flits[msg[2]] = flits.get(msg[2], 0) + 1
        elif msg[0] == MSG_CREDIT:
            creds[msg[2]] = creds.get(msg[2], 0) + 1
    return flits, creds


def check_credit_accounting(sim) -> None:
    """Closed credit loops on every wired (port, VC), boundaries included.

    All state is read through the engine-neutral accessors — credits via
    ``credit_of``/``ni_credit_of``, buffer occupancy via
    ``occupancy_of``, pending events via ``pending_event_index`` (which
    keys credit sinks *structurally*: ``(router, port, vc)`` for router
    output ports, ``("ni", terminal, vc)`` for injection channels) — and
    the links to check come from ``sim.topology.links()``, so the same
    scan fences object and vectorized domains alike.
    """
    depth = sim.config.router.buffer_depth
    num_vcs = sim.config.router.num_vcs
    rd = sim.plan.router_domain
    indexed = [dom.pending_event_index() for dom in sim.domains]

    def check_pair(
        label: str,
        src_dom: int,
        sink_key: tuple,
        dst_dom: int,
        dst_router: int,
        dst_port: int,
        link=None,
    ) -> None:
        src_net = sim.domains[src_dom]
        dst_net = sim.domains[dst_dom]
        dst_arrivals, _ = indexed[dst_dom]
        _, src_credits = indexed[src_dom]
        out_flits, out_creds = _outbox_counts(link) if link is not None else ({}, {})
        for vc in range(num_vcs):
            if sink_key[0] == "ni":
                upstream_credits = src_net.ni_credit_of(sink_key[1], vc)
            else:
                upstream_credits = src_net.credit_of(sink_key[0], sink_key[1], vc)
            occupancy = dst_net.occupancy_of(dst_router, dst_port, vc)
            in_flight = dst_arrivals.get((dst_router, dst_port, vc), 0)
            returning = src_credits.get((*sink_key, vc), 0)
            boundary = out_flits.get(vc, 0) + out_creds.get(vc, 0)
            total = upstream_credits + occupancy + in_flight + returning + boundary
            if total != depth:
                raise PartitionInvariantError(
                    f"credit accounting violated at cycle {sim.cycle} on "
                    f"{label} vc {vc}: credits {upstream_credits} + buffered "
                    f"{occupancy} + arriving {in_flight} + returning "
                    f"{returning} + on-link {boundary} = {total}, expected "
                    f"buffer depth {depth}"
                )

    # Interior router-to-router links, read from the topology (a kernel
    # domain has no router objects to walk), then NI injection channels.
    for spec in sim.topology.links():
        d = rd[spec.src_router]
        if rd[spec.dst_router] != d:
            continue  # a cut link: checked with its link below
        check_pair(
            f"link r{spec.src_router}.p{spec.src_port}->r{spec.dst_router}",
            d,
            (spec.src_router, spec.src_port),
            d,
            spec.dst_router,
            spec.dst_port,
        )
    for d, dom in enumerate(sim.domains):
        for ni in dom.iter_interfaces():
            check_pair(
                f"injection t{ni.terminal}->r{ni.router_id}",
                d,
                ("ni", ni.terminal),
                d,
                ni.router_id,
                ni.local_port,
            )
    # Cut links: the credit loop spans two domains and the link itself.
    for link in sim.links:
        spec = link.spec
        src_dom, dst_dom = rd[spec.src_router], rd[spec.dst_router]
        check_pair(
            f"cut link r{spec.src_router}.p{spec.src_port}->r{spec.dst_router}",
            src_dom,
            (spec.src_router, spec.src_port),
            dst_dom,
            spec.dst_router,
            spec.dst_port,
            link=link,
        )


def check_invariants(sim) -> None:
    """Run every partition invariant against a (serial) simulation."""
    check_flit_conservation(sim)
    check_credit_accounting(sim)


__all__ = [
    "PartitionInvariantError",
    "check_credit_accounting",
    "check_flit_conservation",
    "check_invariants",
]
