"""Deterministic dimension-order (X-then-Y) routing helpers.

All three topologies in the paper route with DOR (Section 3), which is
deadlock-free on meshes and on the single-hop-per-dimension flattened
butterfly.  The helpers here work on router grid coordinates; topology
classes translate the returned abstract direction into their own port
numbering.
"""

from __future__ import annotations

from collections.abc import Mapping
from enum import IntEnum


class MeshDirection(IntEnum):
    """Abstract mesh hop directions (before port numbering)."""

    EAST = 0
    WEST = 1
    NORTH = 2
    SOUTH = 3
    LOCAL = 4


def mesh_next_direction(
    cur_x: int, cur_y: int, dst_x: int, dst_y: int
) -> MeshDirection:
    """Next DOR hop on a mesh grid: fully resolve X before touching Y.

    The Y axis grows southward (row 0 is the north edge), matching the
    usual NoC floorplan convention.
    """
    if dst_x > cur_x:
        return MeshDirection.EAST
    if dst_x < cur_x:
        return MeshDirection.WEST
    if dst_y > cur_y:
        return MeshDirection.SOUTH
    if dst_y < cur_y:
        return MeshDirection.NORTH
    return MeshDirection.LOCAL


def mesh_route_rows(
    width: int, height: int, ports: Mapping[MeshDirection, int]
) -> list[bytes]:
    """:func:`mesh_next_direction` from every router toward every router.

    Routers are numbered row-major (``y * width + x``) and ``ports`` maps
    each hop direction to its port number.  X before Y makes each row
    closed-form: the router at ``(cx, cy)`` goes west to every column left
    of ``cx``, east to every column right of it, and in column ``cx`` north
    to the ``cy`` grid rows above, south to the rows below.  The entry for
    the router itself is 0 (see :class:`repro.topology.base.RouteTable`).
    """
    west = bytes((ports[MeshDirection.WEST],))
    east = bytes((ports[MeshDirection.EAST],))
    north = bytes((ports[MeshDirection.NORTH],))
    south = bytes((ports[MeshDirection.SOUTH],))
    rows = []
    for cy in range(height):
        for cx in range(width):
            left, right = west * cx, east * (width - cx - 1)
            rows.append(
                (left + north + right) * cy
                + left + b"\0" + right
                + (left + south + right) * (height - cy - 1)
            )
    return rows


def mesh_hops(cur_x: int, cur_y: int, dst_x: int, dst_y: int) -> int:
    """Router-to-router hop count under DOR on a mesh (Manhattan distance)."""
    return abs(dst_x - cur_x) + abs(dst_y - cur_y)


def fbfly_next_dimension(
    cur_x: int, cur_y: int, dst_x: int, dst_y: int
) -> tuple[int, int] | None:
    """Next DOR hop on a flattened butterfly.

    Returns ``(dimension, target)`` — dimension 0 hops directly to column
    ``target``, dimension 1 to row ``target`` — or ``None`` at the
    destination router.  Each dimension is crossed in a single express hop.
    """
    if dst_x != cur_x:
        return (0, dst_x)
    if dst_y != cur_y:
        return (1, dst_y)
    return None


def fbfly_hops(cur_x: int, cur_y: int, dst_x: int, dst_y: int) -> int:
    """Router hops on a flattened butterfly (at most one per dimension)."""
    return (1 if dst_x != cur_x else 0) + (1 if dst_y != cur_y else 0)
