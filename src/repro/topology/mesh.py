"""2D mesh topology (radix-5 routers, one terminal each).

Port numbering: 0 = Local, 1 = East, 2 = West, 3 = North, 4 = South.
The paper's main evaluation network is the 8x8 (64-node) mesh.
"""

from __future__ import annotations

from repro.routing.dor import (
    MeshDirection,
    mesh_hops,
    mesh_next_direction,
    mesh_route_rows,
)

from .base import Topology

PORT_LOCAL = 0
PORT_EAST = 1
PORT_WEST = 2
PORT_NORTH = 3
PORT_SOUTH = 4

_DIRECTION_TO_PORT = {
    MeshDirection.EAST: PORT_EAST,
    MeshDirection.WEST: PORT_WEST,
    MeshDirection.NORTH: PORT_NORTH,
    MeshDirection.SOUTH: PORT_SOUTH,
    MeshDirection.LOCAL: PORT_LOCAL,
}

#: Input port on the far router that faces back along each output port.
_OPPOSITE = {
    PORT_EAST: PORT_WEST,
    PORT_WEST: PORT_EAST,
    PORT_NORTH: PORT_SOUTH,
    PORT_SOUTH: PORT_NORTH,
}


class MeshTopology(Topology):
    """``width x height`` 2D mesh with one terminal per router."""

    name = "mesh"

    def __init__(self, width: int = 8, height: int = 8) -> None:
        if width < 2 or height < 2:
            raise ValueError(f"mesh needs width, height >= 2; got {width}x{height}")
        self.width = width
        self.height = height
        self.num_routers = width * height
        self.num_terminals = self.num_routers
        self.concentration = 1
        self.radix = 5

    def coords(self, router: int) -> tuple[int, int]:
        """Grid coordinates ``(x, y)`` of a router; y grows southward."""
        if not 0 <= router < self.num_routers:
            raise ValueError(f"router {router} out of range")
        return router % self.width, router // self.width

    def router_at(self, x: int, y: int) -> int:
        """Router id at grid coordinates."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"({x}, {y}) outside {self.width}x{self.height} mesh")
        return y * self.width + x

    def neighbor(self, router: int, port: int) -> tuple[int, int] | None:
        x, y = self.coords(router)
        if port == PORT_LOCAL:
            return None
        if port == PORT_EAST and x + 1 < self.width:
            return self.router_at(x + 1, y), _OPPOSITE[port]
        if port == PORT_WEST and x - 1 >= 0:
            return self.router_at(x - 1, y), _OPPOSITE[port]
        if port == PORT_NORTH and y - 1 >= 0:
            return self.router_at(x, y - 1), _OPPOSITE[port]
        if port == PORT_SOUTH and y + 1 < self.height:
            return self.router_at(x, y + 1), _OPPOSITE[port]
        if port in _OPPOSITE:
            return None  # mesh edge
        raise ValueError(f"port {port} out of range for radix-5 mesh router")

    def router_of(self, terminal: int) -> tuple[int, int]:
        if not 0 <= terminal < self.num_terminals:
            raise ValueError(f"terminal {terminal} out of range")
        return terminal, PORT_LOCAL

    def route(self, router: int, dst_terminal: int) -> int:
        dst_router, _ = self.router_of(dst_terminal)
        cx, cy = self.coords(router)
        dx, dy = self.coords(dst_router)
        return _DIRECTION_TO_PORT[mesh_next_direction(cx, cy, dx, dy)]

    def _route_rows(self) -> list[bytes]:
        return mesh_route_rows(self.width, self.height, _DIRECTION_TO_PORT)

    def port_direction_class(self, port: int) -> int | None:
        if port == PORT_LOCAL:
            return None
        if port in (PORT_EAST, PORT_WEST):
            return 0
        if port in (PORT_NORTH, PORT_SOUTH):
            return 1
        raise ValueError(f"port {port} out of range for radix-5 mesh router")

    def min_hops(self, src_terminal: int, dst_terminal: int) -> int:
        sx, sy = self.coords(self.router_of(src_terminal)[0])
        dx, dy = self.coords(self.router_of(dst_terminal)[0])
        return mesh_hops(sx, sy, dx, dy)
