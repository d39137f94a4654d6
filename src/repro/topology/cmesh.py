"""Concentrated mesh (CMesh) topology — Balfour & Dally, ICS 2006.

A CMesh attaches ``c`` terminals to every mesh router, shrinking the router
grid by the concentration factor.  The paper's 64-terminal CMesh uses a
4x4 router grid with 4:1 concentration, giving radix-8 routers
(4 local + E/W/N/S).

Port numbering: 0..c-1 = Local0..Local3, then c+0 = East, c+1 = West,
c+2 = North, c+3 = South.
"""

from __future__ import annotations

from repro.routing.dor import (
    MeshDirection,
    mesh_hops,
    mesh_next_direction,
    mesh_route_rows,
)

from .base import Topology

_DIR_OFFSET = {
    MeshDirection.EAST: 0,
    MeshDirection.WEST: 1,
    MeshDirection.NORTH: 2,
    MeshDirection.SOUTH: 3,
}
_OPPOSITE_OFFSET = {0: 1, 1: 0, 2: 3, 3: 2}


class CMeshTopology(Topology):
    """``width x height`` mesh of routers with ``concentration`` terminals each."""

    name = "cmesh"

    def __init__(self, width: int = 4, height: int = 4, concentration: int = 4) -> None:
        if width < 1 or height < 1:
            raise ValueError(f"cmesh needs width, height >= 1; got {width}x{height}")
        if concentration < 1:
            raise ValueError(f"concentration must be >= 1, got {concentration}")
        self.width = width
        self.height = height
        self.concentration = concentration
        self.num_routers = width * height
        self.num_terminals = self.num_routers * concentration
        self.radix = concentration + 4

    def coords(self, router: int) -> tuple[int, int]:
        """Grid coordinates ``(x, y)`` of a router; y grows southward."""
        if not 0 <= router < self.num_routers:
            raise ValueError(f"router {router} out of range")
        return router % self.width, router // self.width

    def router_at(self, x: int, y: int) -> int:
        """Router id at grid coordinates."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"({x}, {y}) outside {self.width}x{self.height} cmesh")
        return y * self.width + x

    def _mesh_port(self, direction: MeshDirection) -> int:
        return self.concentration + _DIR_OFFSET[direction]

    def neighbor(self, router: int, port: int) -> tuple[int, int] | None:
        if self.is_local_port(port):
            return None
        offset = port - self.concentration
        if not 0 <= offset < 4:
            raise ValueError(f"port {port} out of range for radix-{self.radix} router")
        x, y = self.coords(router)
        step = {0: (1, 0), 1: (-1, 0), 2: (0, -1), 3: (0, 1)}[offset]
        nx, ny = x + step[0], y + step[1]
        if not (0 <= nx < self.width and 0 <= ny < self.height):
            return None  # mesh edge
        return (
            self.router_at(nx, ny),
            self.concentration + _OPPOSITE_OFFSET[offset],
        )

    def router_of(self, terminal: int) -> tuple[int, int]:
        if not 0 <= terminal < self.num_terminals:
            raise ValueError(f"terminal {terminal} out of range")
        return terminal // self.concentration, terminal % self.concentration

    def route(self, router: int, dst_terminal: int) -> int:
        dst_router, local = self.router_of(dst_terminal)
        cx, cy = self.coords(router)
        dx, dy = self.coords(dst_router)
        direction = mesh_next_direction(cx, cy, dx, dy)
        if direction is MeshDirection.LOCAL:
            return local
        return self._mesh_port(direction)

    def _route_rows(self) -> list[bytes]:
        ports = {d: self._mesh_port(d) for d in _DIR_OFFSET}
        return mesh_route_rows(self.width, self.height, ports)

    def port_direction_class(self, port: int) -> int | None:
        if self.is_local_port(port):
            return None
        offset = port - self.concentration
        if offset in (0, 1):
            return 0
        if offset in (2, 3):
            return 1
        raise ValueError(f"port {port} out of range for radix-{self.radix} router")

    def min_hops(self, src_terminal: int, dst_terminal: int) -> int:
        sx, sy = self.coords(self.router_of(src_terminal)[0])
        dx, dy = self.coords(self.router_of(dst_terminal)[0])
        return mesh_hops(sx, sy, dx, dy)
