"""A partition domain's slice of the network (one chiplet's SimDomain).

:class:`DomainNetwork` *is a* :class:`~repro.network.network.Network` —
same event wheel, same step/step_dense loops, same counters — that only
instantiates the routers and NIs its :class:`~repro.topology.partition.
PartitionPlan` domain owns.  Unowned ids stay ``None`` holes in the
full-length id-indexed lists, so every id-based lookup (routing tables,
event targets, upstream wiring) works unchanged; the per-cycle loops
iterate the compact ``_live_*`` aliases and never see a hole.

Boundary wiring is left open by ``_wire_link`` (cut links are skipped)
and closed by the partition engine, which threads one
:class:`~repro.network.links.InterChipLink` per cut link through
:meth:`attach_egress` / :meth:`attach_ingress`; the link returns its
credits to the port :meth:`egress_port` names.  After that the domain
satisfies the SimDomain contract the partitioned engine steps against:

* own routers / NIs / flow state (``step``, ``step_dense``, ``inject``,
  occupancy queries, ``export_flow_state``);
* a local activity flag (``has_active_work`` + ``next_event_time``) that
  the engine reduces into the fpgagraphlib-style global-quiescence test.
"""

from __future__ import annotations

from repro.topology import Topology
from repro.topology.partition import PartitionPlan

from .config import NetworkConfig
from .interface import NetworkInterface
from .links import InterChipLink, LinkIngress
from .network import Network
from .router import Router


class DomainNetwork(Network):
    """The sub-network owned by one partition domain."""

    def __init__(
        self,
        config: NetworkConfig,
        plan: PartitionPlan,
        domain: int,
        topology: Topology | None = None,
    ) -> None:
        if not 0 <= domain < plan.num_domains:
            raise ValueError(f"domain {domain} outside plan ({plan.num_domains} domains)")
        #: This domain's index in the plan (also its row-major grid slot).
        self.domain_index = domain
        self.plan = plan
        self._owned_routers = frozenset(plan.domain_routers[domain])
        self._owned_terminals = frozenset(plan.domain_terminals[domain])
        super().__init__(config, topology)

    # --- builder seams -----------------------------------------------------

    def _build_routers(self, rc) -> list[Router | None]:
        owned = self._owned_routers
        return [
            Router(r, rc, self.topology) if r in owned else None
            for r in range(self.topology.num_routers)
        ]

    def _build_interfaces(self, rc) -> list[NetworkInterface | None]:
        owned = self._owned_terminals
        return [
            NetworkInterface(
                t,
                *self.topology.router_of(t),
                config=rc,
                policy=self.vc_policy,
                topology=self.topology,
            )
            if t in owned
            else None
            for t in range(self.topology.num_terminals)
        ]

    def _wire_link(self, spec) -> None:
        # Interior link: both endpoints owned, wire as the monolith does.
        # Cut links stay unwired here; attach_egress/attach_ingress close
        # them with an InterChipLink once the peer domains exist.
        if (
            self.routers[spec.src_router] is not None
            and self.routers[spec.dst_router] is not None
        ):
            super()._wire_link(spec)

    # --- boundary wiring ---------------------------------------------------

    def egress_port(self, spec):
        """Our output port at the source of cut link ``spec``: the sink
        the link returns its credits to."""
        out = self.routers[spec.src_router].outputs[spec.src_port]
        if out is None:
            raise RuntimeError(
                f"domain {self.domain_index}: cut link {spec} has no egress port"
            )
        return out

    def attach_egress(self, link: InterChipLink) -> None:
        """Hook a cut link's source side to our boundary output port."""
        self.egress_port(link.spec).link = link

    def attach_ingress(self, link: InterChipLink) -> None:
        """Hook a cut link's destination side to our boundary input port.

        The :class:`LinkIngress` proxy takes the upstream slot, so credits
        freed at this input port travel back across the link instead of
        being scheduled locally.
        """
        spec = link.spec
        self.routers[spec.dst_router].upstream[spec.dst_port] = LinkIngress(link)


__all__ = ["DomainNetwork"]
