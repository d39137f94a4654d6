"""Topology abstraction.

A topology defines the routers, their port numbering, the directed links
between ports, the terminal-to-router attachment, and the deterministic
(DOR) routing function.  Port indices are used symmetrically: output port
``i`` of a router and input port ``i`` of the same router sit on the same
physical channel direction.

Terminal ``t`` attaches at ``divmod(t, concentration)`` on every topology:
``(router, local port)``, the inverse of :meth:`Topology.terminal_of`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class LinkSpec:
    """A directed inter-router channel."""

    src_router: int
    src_port: int
    dst_router: int
    dst_port: int


@dataclass(frozen=True, slots=True)
class RouteTable:
    """The DOR next hop of every (router, destination router) pair.

    ``next_port[r][d]`` is the output port router ``r`` takes toward router
    ``d``.  The diagonal ``d == r`` holds 0 and is never read: there the
    destination terminal's own local port applies.  One byte per entry, so
    ports must be below 256.
    """

    concentration: int
    next_port: tuple[bytes, ...]

    def terminal_row(self, router: int) -> bytes:
        """``route(router, t)`` for every terminal ``t``, as one row.

        Each router entry repeats once per attached terminal, and the
        router's own terminals get their local ports.
        """
        c = self.concentration
        row = self.next_port[router]
        out = bytearray(len(row) * c)
        for local in range(c):
            out[local::c] = row
        out[router * c : (router + 1) * c] = range(c)
        return bytes(out)


class Topology(ABC):
    """Base class for network topologies.

    Subclasses fix ``num_routers``, ``num_terminals``, ``concentration``
    (terminals per router) and ``radix`` (ports per router, locals
    included), and implement the port-level queries below.
    """

    name: str = "base"
    num_routers: int
    num_terminals: int
    concentration: int
    radix: int

    # --- structure -------------------------------------------------------

    @abstractmethod
    def neighbor(self, router: int, port: int) -> tuple[int, int] | None:
        """Router and input port on the far side of output ``port``.

        Returns ``None`` for local (terminal) ports and for mesh edge ports
        that have no neighbor.
        """

    def links(self) -> tuple[LinkSpec, ...]:
        """Every directed inter-router link (built once per instance)."""
        links = self.__dict__.get("_links")
        if links is None:
            links = self._links = tuple(
                LinkSpec(r, p, *nb)
                for r in range(self.num_routers)
                for p in range(self.radix)
                if (nb := self.neighbor(r, p)) is not None
            )
        return links

    def is_local_port(self, port: int) -> bool:
        """True when ``port`` attaches a terminal rather than a router."""
        return port < self.concentration

    @abstractmethod
    def router_of(self, terminal: int) -> tuple[int, int]:
        """``(router, local_port)`` a terminal attaches to."""

    def terminal_of(self, router: int, local_port: int) -> int:
        """Terminal attached to ``(router, local_port)``."""
        if not self.is_local_port(local_port):
            raise ValueError(f"port {local_port} is not a local port")
        term = router * self.concentration + local_port
        if term >= self.num_terminals:
            raise ValueError(f"({router}, {local_port}) has no terminal")
        return term

    # --- routing ---------------------------------------------------------

    @abstractmethod
    def route(self, router: int, dst_terminal: int) -> int:
        """DOR output port at ``router`` toward ``dst_terminal``.

        Returns the destination's local port when ``router`` is the
        destination router.
        """

    def route_table(self) -> RouteTable:
        """:meth:`route` for every router pair (built once per instance).

        Routers and the SoA state read their routing rows from this one
        table instead of calling :meth:`route` per (router, terminal).
        """
        table = self.__dict__.get("_route_table")
        if table is None:
            table = self._route_table = RouteTable(
                self.concentration, tuple(self._route_rows())
            )
        return table

    def _route_rows(self) -> list[bytes]:
        """The rows of :meth:`route_table`: one :meth:`route` call per pair.

        Topologies whose DOR is closed-form arithmetic on coordinates
        override this to build each row without calling :meth:`route`.
        """
        c = self.concentration
        n = self.num_routers
        return [
            bytes(0 if d == r else self.route(r, d * c) for d in range(n))
            for r in range(n)
        ]

    @abstractmethod
    def port_direction_class(self, port: int) -> int | None:
        """Dimension class of a port: 0 for X, 1 for Y, ``None`` for local.

        Used by the Section 2.3 VC assignment policy.
        """

    @abstractmethod
    def min_hops(self, src_terminal: int, dst_terminal: int) -> int:
        """Router-to-router hops on the DOR path between two terminals."""

    def allowed_vcs(
        self,
        router: int,
        out_port: int,
        src_terminal: int,
        dst_terminal: int,
        num_vcs: int,
    ) -> list[int] | None:
        """Downstream VCs a packet may be assigned when crossing ``out_port``.

        ``None`` means no restriction (the default).  Topologies that need
        VC classes for deadlock freedom (e.g. the torus datelines) override
        this; the router's VC allocator filters its candidates through it.
        """
        return None

    # --- convenience -----------------------------------------------------

    def lookahead_direction(self, router: int, out_port: int, dst_terminal: int) -> int | None:
        """Direction class of the port the packet will take *downstream*.

        ``out_port`` is the port the packet is about to cross at ``router``;
        the return value classifies its next hop after that (``None`` when
        it ejects at the downstream router, or when ``out_port`` is already
        the ejection port).
        """
        if self.is_local_port(out_port):
            return None
        nb = self.neighbor(router, out_port)
        if nb is None:
            raise ValueError(f"output port {out_port} of router {router} is a dead end")
        next_port = self.route(nb[0], dst_terminal)
        return self.port_direction_class(next_port)

    def path(self, src_terminal: int, dst_terminal: int) -> list[int]:
        """Router sequence of the DOR path (for tests/analysis)."""
        router, _ = self.router_of(src_terminal)
        seq = [router]
        guard = 0
        while True:
            port = self.route(router, dst_terminal)
            if self.is_local_port(port):
                return seq
            nb = self.neighbor(router, port)
            if nb is None:
                raise RuntimeError(
                    f"route from router {router} to terminal {dst_terminal} "
                    f"fell off the network at port {port}"
                )
            router = nb[0]
            seq.append(router)
            guard += 1
            if guard > self.num_routers:
                raise RuntimeError("routing loop detected")
