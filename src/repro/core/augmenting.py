"""Augmenting-path (AP) switch allocation.

The AP scheme computes a *maximum* bipartite matching between input ports
and output ports each cycle (Ford–Fulkerson augmenting paths, the paper's
reference [8]).  It achieves optimal port-level matching, but — like every
conventional crossbar scheme — still grants at most one flit per input
physical port, so it cannot fix the input-port constraint (Section 1 of the
paper makes exactly this point).

The paper also observes (Section 4.3) that AP "follows a greedy approach,
making optimal decisions locally while making sub-optimal decisions at the
network level, leading to high levels of unfairness".  We reproduce that
behaviour faithfully: the matching is computed in fixed, deterministic port
order with no rotating priority, so when several maximum matchings exist the
same ports win cycle after cycle.  VC selection within a granted port pair
is round-robin (which VC wins does not affect port-level fairness).

AP is "infeasible" at router cycle times (Table 3); Section 4.1 nonetheless
evaluates it at equal cycle time to bound achievable matching quality.
"""

from __future__ import annotations

from .allocator import SwitchAllocator
from .arbiter import RoundRobinArbiter
from .matching import kuhn_matching
from .requests import Grant, RequestMatrix


class AugmentingPathAllocator(SwitchAllocator):
    """Maximum-matching (augmenting path) allocator over ports."""

    name = "AP"

    def __init__(self, num_inputs: int, num_outputs: int, num_vcs: int) -> None:
        super().__init__(num_inputs, num_outputs, num_vcs)
        self._vc_arbiters = [RoundRobinArbiter(num_vcs) for _ in range(num_inputs)]

    def allocate_fast(self, reqs: list[tuple[int, int, int]]) -> list[Grant] | None:
        """Forced-move allocation for a conflict-free request set.

        With one request per input port and distinct outputs, the
        port-level graph is itself a matching, so the maximum matching
        grants every pair and only the per-port VC arbiters rotate (the
        matching itself is stateless).  Returns ``None`` on any port or
        output collision.
        """
        busy_ports: set[int] = set()
        busy_outputs: set[int] = set()
        for p, _vc, out in reqs:
            if p in busy_ports or out in busy_outputs:
                return None
            busy_ports.add(p)
            busy_outputs.add(out)
        vc_arbiters = self._vc_arbiters
        v = self.num_vcs
        for p, vc, _out in reqs:
            vc_arbiters[p]._pointer = (vc + 1) % v
        return reqs

    def allocate(self, matrix: RequestMatrix) -> list[Grant]:
        port_requests = matrix.port_request_sets()
        adj = [sorted(reqs) for reqs in port_requests]
        match_left = kuhn_matching(self.num_inputs, self.num_outputs, adj)

        grants: list[Grant] = []
        for i, o in enumerate(match_left):
            if o == -1:
                continue
            vcs = matrix.vcs_requesting(i, o)
            vc = self._vc_arbiters[i].grant(vcs)
            assert vc is not None
            grants.append(Grant(i, vc, o))
        probe = self.probe
        if probe is not None:
            requesting_ports = sum(1 for reqs in port_requests if reqs)
            if requesting_ports:
                # AP *is* the maximum matching, so kills = ports the
                # optimum could not cover and achieved == maximal — the
                # probe's efficiency reads 1.0 by construction.
                probe.record(
                    matrix.total_requests(),
                    requesting_ports,
                    len(grants),
                    len(grants),
                )
        return grants

    def export_pointers(self) -> dict:
        """Snapshot of the per-port VC pointers (the matching is stateless).

        The grant-relevant state the vectorized engine mirrors
        (``SoAState.vc_ptr``), in the flow-state schema.
        """
        return {"vc": [arb.pointer for arb in self._vc_arbiters]}

    def import_pointers(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_pointers`."""
        for arb, pointer in zip(self._vc_arbiters, state["vc"]):
            arb._pointer = pointer % arb.num_requesters

    def reset(self) -> None:
        for arb in self._vc_arbiters:
            arb.reset()
