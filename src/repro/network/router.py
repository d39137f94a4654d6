"""Cycle-level router with the paper's 3-stage pipeline (Fig. 6(b)).

Per cycle a router performs, in order:

1. **VC allocation (VA).**  Input VCs whose head flit has been routed
   (lookahead) compete for a free VC at the downstream router, chosen by the
   configured :class:`~repro.core.vc_policy.VCSelectionPolicy`.
2. **Switch allocation (SA).**  Every buffered VC with an output VC and a
   downstream credit requests its output port; the configured allocator
   (IF / WF / AP / PC / VIX) produces this cycle's crossbar grants.

Switch traversal and link traversal are modelled as fixed latency applied by
the :class:`~repro.network.network.Network` when it moves granted flits, so
a hop costs ``pipeline_stages`` cycles end to end.
"""

from __future__ import annotations

from repro.core import RequestMatrix, RoundRobinArbiter
from repro.registry import allocators as _allocators, vc_policies as _vc_policies
from repro.core.requests import Grant
from repro.topology.base import Topology

from .buffer import InputVC, OutVC, VCState
from .config import RouterConfig

#: Cache-miss sentinel distinct from a legitimate ``None`` direction.
_MISS = object()


class OutputPort:
    """One router output port and its downstream credit state."""

    __slots__ = (
        "index",
        "is_ejection",
        "dest_router",
        "dest_port",
        "out_vcs",
        "owner",
        "terminal",
        "link",
    )

    def __init__(
        self,
        index: int,
        *,
        is_ejection: bool,
        dest_router: int,
        dest_port: int,
        num_vcs: int,
        buffer_depth: int,
        owner: int = -1,
        terminal: int = -1,
    ) -> None:
        self.index = index
        self.is_ejection = is_ejection
        self.dest_router = dest_router
        self.dest_port = dest_port
        #: Router that owns this port (wakes on credit return), -1 if unwired.
        self.owner = owner
        #: Ejecting terminal for ejection ports (resolved once at wiring
        #: time so the hot loop never calls ``terminal_of``), else -1.
        self.terminal = terminal
        #: Inter-chip link carrying this port's flits when the downstream
        #: router lives in another simulation domain; ``None`` on-chip.
        self.link = None
        # Ejection ports sink flits directly (the NI always accepts), so they
        # carry no credit state.
        self.out_vcs: list[OutVC] = (
            [] if is_ejection else [OutVC(buffer_depth) for _ in range(num_vcs)]
        )


class Router:
    """A radix-P router instance inside a :class:`Network`."""

    __slots__ = (
        "rid",
        "radix",
        "config",
        "topology",
        "inputs",
        "outputs",
        "upstream",
        "allocator",
        "vc_policy",
        "_va_arbiters",
        "_matrix",
        "_va_pending",
        "_sa_active",
        "_eff_virtual_inputs",
        "_route_table",
        "_lookahead_cache",
        "_alloc_fast",
        "tracer",
    )

    def __init__(self, rid: int, config: RouterConfig, topology: Topology) -> None:
        self.rid = rid
        self.radix = topology.radix
        self.config = config
        self.topology = topology
        v = config.num_vcs
        self.inputs: list[list[InputVC]] = [
            [InputVC(p, i, config.buffer_depth) for i in range(v)]
            for p in range(self.radix)
        ]
        # Output ports are wired by the Network after all routers exist.
        self.outputs: list[OutputPort | None] = [None] * self.radix
        # Upstream credit sinks per input port (OutputPort or NI), or None
        # for dead-edge ports that can never receive flits.
        self.upstream: list[object | None] = [None] * self.radix
        self.allocator = _allocators.create(
            config.allocator,
            self.radix,
            self.radix,
            v,
            config.virtual_inputs,
        )
        self.vc_policy = _vc_policies.create(config.vc_policy)
        # Bound method (or None) resolved once: the allocator's forced-move
        # entry point, consulted before building a request matrix.
        self._alloc_fast = self.allocator.allocate_fast
        # Resolved once: config.effective_virtual_inputs canonicalises the
        # allocator name on every access, too slow for the VA loop.
        self._eff_virtual_inputs = config.effective_virtual_inputs
        self._va_arbiters = [RoundRobinArbiter(self.radix * v) for _ in range(self.radix)]
        self._matrix = RequestMatrix(self.radix, self.radix, v)
        # Routing is a pure function of (router, destination): this
        # router's row of the topology's route table turns the per-head
        # route call into an index.  Lookahead directions are memoized on
        # first use (keyed by output port and destination).
        self._route_table = topology.route_table().terminal_row(rid)
        self._lookahead_cache: dict[tuple[int, int], int | None] = {}
        #: Optional FlitTracer (set via ``Observability.attach``); records
        #: VA grants.  ``None`` keeps the hooks dead branches.
        self.tracer = None
        # VCs waiting for VC allocation, in arrival order.
        self._va_pending: list[InputVC] = []
        # ACTIVE VCs: the only ones switch allocation needs to look at.
        # Entries are appended on the transition to ACTIVE and compacted out
        # after release, so idle ports cost nothing in the per-cycle scan.
        self._sa_active: list[InputVC] = []

    # --- flit arrival ------------------------------------------------------

    def accept_flit(self, port: int, vc: int, flit) -> None:
        """Buffer an arriving flit and, for heads, run lookahead routing."""
        ivc = self.inputs[port][vc]
        ivc.push(flit)
        if flit.is_head:
            if ivc.state is not VCState.IDLE:
                raise RuntimeError(
                    f"router {self.rid}: head flit for busy VC ({port}, {vc})"
                )
            ivc.src = flit.packet.src
            ivc.dst = flit.packet.dst
            out_port = self._route_table[flit.packet.dst]
            ivc.out_port = out_port
            out = self.outputs[out_port]
            if out is None:
                raise RuntimeError(
                    f"router {self.rid}: route to {ivc.dst} uses unwired port {out_port}"
                )
            if out.is_ejection:
                # Ejection needs no VC allocation: the NI always accepts.
                ivc.out_vc = 0
                ivc.state = VCState.ACTIVE
                if not ivc.in_sa:
                    ivc.in_sa = True
                    self._sa_active.append(ivc)
            else:
                ivc.state = VCState.VA_WAIT
                self._va_pending.append(ivc)

    # --- VC allocation ------------------------------------------------------

    def _lookahead(self, out_port: int, dst: int) -> int | None:
        """Memoized :meth:`Topology.lookahead_direction`."""
        key = (out_port, dst)
        cache = self._lookahead_cache
        direction = cache.get(key, _MISS)
        if direction is _MISS:
            direction = self.topology.lookahead_direction(self.rid, out_port, dst)
            cache[key] = direction
        return direction

    def vc_allocate(self) -> int:
        """Run one cycle of VC allocation; returns the number of grants."""
        if not self._va_pending:
            return 0
        v = self.config.num_vcs
        if len(self._va_pending) == 1:
            # Lone requester: it wins its output's arbitration regardless of
            # the pointer, so skip the grouping/candidate bookkeeping.  The
            # pointer still rotates past the winner, and the dateline class
            # filter still applies, exactly as in the general path below.
            ivc = self._va_pending[0]
            out_port = ivc.out_port
            out = self.outputs[out_port]
            out_vcs = out.out_vcs
            free = [w for w, ovc in enumerate(out_vcs) if not ovc.allocated]
            if not free:
                return 0
            self._va_arbiters[out_port].update(ivc.port * v + ivc.index)
            allowed = self.topology.allowed_vcs(
                self.rid, out_port, ivc.src, ivc.dst, v
            )
            if allowed is not None:
                free = [w for w in free if w in allowed]
                if not free:
                    return 0
            if len(free) == 1:
                # Every policy returns the lone candidate (max-credit takes
                # the max of one; the dimension policy picks from the only
                # group), so skip the policy call and its credit snapshot.
                choice = free[0]
            else:
                choice = self.vc_policy.select(
                    free,
                    [ovc.credits for ovc in out_vcs],
                    num_vcs=v,
                    virtual_inputs=self._eff_virtual_inputs,
                    downstream_direction=self._lookahead(out_port, ivc.dst),
                )
            out_vcs[choice].allocated = True
            ivc.out_vc = choice
            ivc.state = VCState.ACTIVE
            if not ivc.in_sa:
                ivc.in_sa = True
                self._sa_active.append(ivc)
            tracer = self.tracer
            if tracer is not None:
                head = ivc.queue[0]
                tracer.record(
                    tracer.cycle, head.packet.pid, head.seq, self.rid, "va", ivc.index
                )
            self._va_pending.clear()
            return 1
        by_output: dict[int, list[InputVC]] = {}
        for ivc in self._va_pending:
            by_output.setdefault(ivc.out_port, []).append(ivc)

        k = self._eff_virtual_inputs
        granted = 0
        for out_port, requesters in by_output.items():
            out = self.outputs[out_port]
            assert out is not None and not out.is_ejection
            free = [w for w, ovc in enumerate(out.out_vcs) if not ovc.allocated]
            if not free:
                continue
            credits = [ovc.credits for ovc in out.out_vcs]
            arbiter = self._va_arbiters[out_port]
            index_of = {r.port * v + r.index: r for r in requesters}
            while index_of and free:
                if len(index_of) == 1:
                    # Lone requester: wins regardless of the pointer.
                    win = next(iter(index_of))
                else:
                    win = arbiter.arbitrate(index_of.keys())
                    assert win is not None
                arbiter.update(win)
                ivc = index_of.pop(win)
                allowed = self.topology.allowed_vcs(
                    self.rid, out_port, ivc.src, ivc.dst, v
                )
                if allowed is None:
                    candidates = free
                else:
                    candidates = [w for w in free if w in allowed]
                    if not candidates:
                        # No free VC in the packet's (dateline) class this
                        # cycle; it stays in VA_WAIT and retries.
                        continue
                if len(candidates) == 1:
                    choice = candidates[0]  # forced; see the lone-requester path
                else:
                    choice = self.vc_policy.select(
                        candidates,
                        credits,
                        num_vcs=v,
                        virtual_inputs=k,
                        downstream_direction=self._lookahead(out_port, ivc.dst),
                    )
                free.remove(choice)
                out.out_vcs[choice].allocated = True
                ivc.out_vc = choice
                ivc.state = VCState.ACTIVE
                if not ivc.in_sa:
                    ivc.in_sa = True
                    self._sa_active.append(ivc)
                tracer = self.tracer
                if tracer is not None:
                    head = ivc.queue[0]
                    tracer.record(
                        tracer.cycle,
                        head.packet.pid,
                        head.seq,
                        self.rid,
                        "va",
                        ivc.index,
                    )
                granted += 1
        if granted:
            # One O(n) rebuild instead of O(n) list.remove per grant; the
            # granted VCs left VA_WAIT above, and filtering keeps arrival
            # order for the rest.
            self._va_pending = [
                ivc for ivc in self._va_pending if ivc.state is VCState.VA_WAIT
            ]
        return granted

    # --- switch allocation ---------------------------------------------------

    def switch_allocate(self) -> list[Grant]:
        """Build this cycle's request matrix and run the switch allocator.

        Only the router's ACTIVE VCs are visited (``_sa_active``), so the
        per-cycle cost scales with live traffic rather than ``radix x v``.
        Released VCs are compacted out of the list in the same pass.
        """
        active_list = self._sa_active
        if not active_list:
            return []
        outputs = self.outputs
        active = VCState.ACTIVE
        grant = Grant
        reqs: list[Grant] = []
        write = 0
        for ivc in active_list:
            if ivc.state is not active:
                # Tail departed since the last pass: drop the entry.
                ivc.in_sa = False
                continue
            active_list[write] = ivc
            write += 1
            if not ivc.queue:
                continue
            out_port = ivc.out_port
            out = outputs[out_port]
            if not out.is_ejection and out.out_vcs[ivc.out_vc].credits <= 0:
                continue
            reqs.append(grant(ivc.port, ivc.index, out_port))
        del active_list[write:]
        if not reqs:
            return []
        fast = self._alloc_fast
        if fast is not None:
            grants = fast(reqs)
            if grants is not None:
                return grants
        # Contended (or the scheme has no fast path): build the matrix.
        matrix = self._matrix
        matrix.clear()
        requests = matrix.requests
        tails = matrix.tails
        dirty = matrix.dirty
        inputs = self.inputs
        for p, vc, out_port in reqs:
            # Direct writes: the router's own state guarantees validity,
            # so skip RequestMatrix.add's range checks in the hot loop.
            requests[p][vc] = out_port
            tails[p][vc] = inputs[p][vc].queue[0].is_tail
            dirty.append((p, vc))
        return self.allocator.allocate(matrix)

    # --- introspection ---------------------------------------------------------

    def buffered_flits(self) -> int:
        """Total flits currently buffered in this router."""
        return sum(len(ivc.queue) for port in self.inputs for ivc in port)

    def reset_allocation_state(self) -> None:
        """Reset arbiter/allocator priority state (not buffer contents)."""
        self.allocator.reset()
        for arb in self._va_arbiters:
            arb.reset()
