"""The synchronous cycle-level network: routers, links, and NIs.

The network owns the global event wheel.  A cycle proceeds as:

1. deliver this cycle's events (flit arrivals, returning credits, ejection
   completions);
2. network interfaces put flits on their injection channels;
3. every router runs VC allocation, then switch allocation;
4. granted flits leave their buffers: ejected flits complete after the
   remaining pipeline latency, forwarded flits arrive downstream after
   ``pipeline_stages`` cycles, and credits are scheduled back upstream.

All latencies are derived from :class:`~repro.network.config.RouterConfig`;
the defaults give the paper's 3-cycle-per-hop pipeline.

Per-cycle cost is proportional to *activity*, not network size: the network
keeps a set of routers with pending VA/SA work and a set of NIs with queued
packets, and :meth:`Network.step` visits only those.  Routers are woken by
flit arrivals, returning credits, and new injections, and go back to sleep
when both their VA-pending and active-VC lists empty; since every sleeping
component is state-identical to an idle component the dense loop would have
scanned, gated stepping is byte-identical to :meth:`Network.step_dense`.
The event wheel is a dict-of-lists keyed by cycle plus a min-heap of the
distinct pending times, so :meth:`next_event_time` is O(1) and the engine
can fast-forward quiescent stretches with :meth:`skip_to`.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.energy.activity import ActivityCounters
from repro.registry import allocators as _allocators, vc_policies as _vc_policies
from repro.topology import Topology, make_topology
from repro.topology.partition import PartitionPlan, grid_partition

from .buffer import VCState
from .config import NetworkConfig
from .flit import Flit, Packet
from .interface import NetworkInterface
from .links import InterChipLink, LinkIngress
from .router import OutputPort, Router

_ARRIVAL = 0
_CREDIT = 1
_EJECT = 2


class Network:
    """A complete on-chip network built from a :class:`NetworkConfig` — or
    the slice of one that a partition domain owns.

    ``plan`` and ``domain`` pick the slice: only the routers and NIs that
    domain ``domain`` of the :class:`~repro.topology.partition.PartitionPlan`
    owns are instantiated.  Unowned ids stay ``None`` holes in the
    full-length id-indexed lists, so every id-based lookup (routing
    tables, event targets, upstream wiring) works unchanged; the
    per-cycle loops iterate the compact ``_live_*`` aliases and never see
    a hole.  With no plan the network is the 1x1 partition's one domain,
    which owns everything.

    Cut links are left unwired here.  The partition engine closes each
    with an :class:`~repro.network.links.InterChipLink` through
    :meth:`attach_egress` / :meth:`attach_ingress` once the peer domains
    exist, and the link returns its credits to the port
    :meth:`egress_port` names.
    """

    #: Whether the network steps object :class:`Router` instances.  A
    #: kernel domain (:class:`repro.sim.vec.domain.VecDomain`) holds its
    #: routers' state as SoA tensors and has no router list at all.
    object_routers = True

    def __init__(
        self,
        config: NetworkConfig,
        topology: Topology | None = None,
        *,
        plan: PartitionPlan | None = None,
        domain: int = 0,
    ) -> None:
        self.config = config
        self.topology = topology or make_topology(config.topology, config.num_terminals)
        if self.topology.num_terminals != config.num_terminals:
            raise ValueError(
                f"topology has {self.topology.num_terminals} terminals, "
                f"config wants {config.num_terminals}"
            )
        if plan is None:
            plan = grid_partition(self.topology, (1, 1))
        if not 0 <= domain < plan.num_domains:
            raise ValueError(
                f"domain {domain} outside plan ({plan.num_domains} domains)"
            )
        self.plan = plan
        #: This domain's index in the plan (also its row-major grid slot).
        self.domain_index = domain
        self._owned_routers = frozenset(plan.domain_routers[domain])
        self._owned_terminals = frozenset(plan.domain_terminals[domain])
        rc = config.router
        radix = self.topology.radix
        # Every engine, kernel domains included, builds through here: one
        # allocator and one VC policy validate the config (VIX with one
        # virtual input fails here, not at the first router), and the NIs
        # share the policy, which is stateless.
        _allocators.create(rc.allocator, radix, radix, rc.num_vcs, rc.virtual_inputs)
        self.vc_policy = _vc_policies.create(rc.vc_policy)
        owned = self._owned_terminals
        self.interfaces: list[NetworkInterface | None] = [
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
        #: Compact aliases skipping ``None`` holes — the per-cycle loops
        #: and occupancy scans iterate these, never the full lists.
        self._live_interfaces = [ni for ni in self.interfaces if ni is not None]
        if self.object_routers:
            owned = self._owned_routers
            self.routers: list[Router | None] = [
                Router(r, rc, self.topology) if r in owned else None
                for r in range(self.topology.num_routers)
            ]
            self._live_routers = [r for r in self.routers if r is not None]
            self._wire()
        self.counters = ActivityCounters()
        self.cycle = 0
        # Per-hop latencies resolved once (attribute chains cost in the
        # per-cycle loop).
        self._pipe = rc.pipeline_stages
        self._credit_delay = rc.credit_delay
        self._events: dict[int, list[tuple]] = {}
        # Min-heap of the distinct cycle numbers present in _events.
        self._event_times: list[int] = []
        #: Routers with pending VA/SA work; only these are stepped.
        self._active_routers: set[int] = set()
        #: NIs with queued packets or an in-progress flit stream.
        self._active_nis: set[int] = set()
        #: Activity gating on/off.  Off restores the pre-gating dense scan
        #: (every router and NI visited every cycle) — results are
        #: byte-identical either way; only the wall clock differs.
        self.gating = True
        self._in_flight_flits = 0
        #: Optional observer with on_flit_ejected / on_packet_ejected hooks
        #: (set by the simulation engine).
        self.stats = None
        #: Optional :class:`repro.obs.trace.FlitTracer` (set via
        #: ``Observability.attach``); ``None`` keeps every hook a dead
        #: ``is not None`` branch.
        self.tracer = None

    def iter_interfaces(self) -> list[NetworkInterface]:
        """The instantiated NIs (a domain skips the terminals it does not own)."""
        return self._live_interfaces

    def _wire(self) -> None:
        topo = self.topology
        rc = self.config.router
        routers = self.routers
        for router in self._live_routers:
            for port in range(topo.radix):
                if topo.is_local_port(port):
                    router.outputs[port] = OutputPort(
                        port,
                        is_ejection=True,
                        dest_router=-1,
                        dest_port=-1,
                        num_vcs=rc.num_vcs,
                        buffer_depth=rc.buffer_depth,
                        owner=router.rid,
                        terminal=topo.terminal_of(router.rid, port),
                    )
                    continue
                nb = topo.neighbor(router.rid, port)
                if nb is None:
                    continue  # mesh edge: port unused
                router.outputs[port] = OutputPort(
                    port,
                    is_ejection=False,
                    dest_router=nb[0],
                    dest_port=nb[1],
                    num_vcs=rc.num_vcs,
                    buffer_depth=rc.buffer_depth,
                    owner=router.rid,
                )
        for spec in topo.links():
            src = routers[spec.src_router]
            dst = routers[spec.dst_router]
            # A cut link (one endpoint in another domain) stays unwired.
            if src is not None and dst is not None:
                dst.upstream[spec.dst_port] = src.outputs[spec.src_port]
        for ni in self._live_interfaces:
            routers[ni.router_id].upstream[ni.local_port] = ni

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

    # --- event plumbing ---------------------------------------------------

    def _schedule(self, when: int, event: tuple) -> None:
        q = self._events.get(when)
        if q is None:
            self._events[when] = [event]
            heappush(self._event_times, when)
        else:
            q.append(event)

    def _wake_router(self, rid: int) -> None:
        """Add a router to the active set (idempotent; counts transitions)."""
        active = self._active_routers
        if rid not in active:
            active.add(rid)
            self.counters.router_wakeups += 1

    def _deliver(self, now: int) -> None:
        events = self._events.pop(now, None)
        if not events:
            return
        times = self._event_times
        if times and times[0] == now:
            heappop(times)
        routers = self.routers
        counters = self.counters
        active = self._active_routers
        stats = self.stats
        tracer = self.tracer
        writes = wakeups = ejected_flits = ejected_packets = 0
        for ev in events:
            kind = ev[0]
            if kind == _ARRIVAL:
                _, rid, port, vc, flit = ev
                if flit.is_head:
                    routers[rid].accept_flit(port, vc, flit)
                else:
                    # Body/tail flits join an already-allocated VC; credit
                    # flow control guarantees buffer space, so the push
                    # reduces to an append (accept_flit would do the same
                    # after re-checking depth and head-ness).
                    routers[rid].inputs[port][vc].queue.append(flit)
                if tracer is not None:
                    tracer.record(now, flit.packet.pid, flit.seq, rid, "arrive", vc)
                writes += 1
                if rid not in active:
                    active.add(rid)
                    wakeups += 1
            elif kind == _CREDIT:
                _, sink, vc, release = ev
                ovc = sink.out_vcs[vc]
                ovc.credits += 1
                if release:
                    ovc.allocated = False
                # The credit may unblock a credit-starved ACTIVE VC of the
                # router that owns the sink (NIs poll while they have work,
                # so only router-owned sinks need a wakeup).
                owner = sink.owner
                if owner >= 0 and owner not in active:
                    active.add(owner)
                    wakeups += 1
            else:  # _EJECT
                _, flit, terminal = ev
                ejected_flits += 1
                if tracer is not None:
                    # For inject/eject the "router" field carries the
                    # terminal id (the flit is at an NI, not a router).
                    tracer.record(
                        now, flit.packet.pid, flit.seq, terminal, "eject", 0
                    )
                if stats is not None:
                    stats.on_flit_ejected(terminal, now)
                if flit.is_tail:
                    packet = flit.packet
                    packet.ejected_cycle = now
                    ejected_packets += 1
                    if stats is not None:
                        stats.on_packet_ejected(packet, now)
        counters.buffer_writes += writes
        counters.router_wakeups += wakeups
        counters.flits_ejected += ejected_flits
        counters.packets_ejected += ejected_packets
        self._in_flight_flits -= ejected_flits

    def next_event_time(self) -> int | None:
        """Earliest cycle with a scheduled event, or ``None`` when empty."""
        times = self._event_times
        events = self._events
        while times and times[0] not in events:
            heappop(times)  # drop stale times defensively
        return times[0] if times else None

    # --- public API ---------------------------------------------------------

    def inject(self, packet: Packet) -> bool:
        """Queue a packet at its source NI; False when the queue is full."""
        if self.interfaces[packet.src].enqueue(packet):
            self._active_nis.add(packet.src)
            return True
        return False

    def step(self) -> None:
        """Advance the network by one cycle (activity-gated).

        Only active NIs and routers are visited; see the module docstring
        for the wake conditions and the sleep invariant.
        """
        if not self.gating:
            self.step_dense()
            return
        now = self.cycle
        tracer = self.tracer
        if tracer is not None:
            # Routers and NIs have no clock; the tracer carries it for them.
            tracer.cycle = now
        self._deliver(now)

        active_nis = self._active_nis
        if active_nis:
            interfaces = self.interfaces
            for t in sorted(active_nis):
                ni = interfaces[t]
                sent = ni.next_flit()
                if sent is not None:
                    vc, flit = sent
                    self._schedule(
                        now + 1, (_ARRIVAL, ni.router_id, ni.local_port, vc, flit)
                    )
                    self._in_flight_flits += 1
                if not (ni.queue or ni._current_flits):  # inlined has_work()
                    active_nis.discard(t)

        active_routers = self._active_routers
        if active_routers:
            routers = self.routers
            order = sorted(active_routers)
            for rid in order:
                router = routers[rid]
                if router._va_pending:
                    router.vc_allocate()
            for rid in order:
                router = routers[rid]
                grants = router.switch_allocate()
                if grants:
                    self._apply_grants(router, grants, now)
                if not router._sa_active and not router._va_pending:
                    active_routers.discard(rid)

        self.counters.cycles += 1
        self.cycle = now + 1

    def step_dense(self) -> None:
        """Advance one cycle visiting every router and NI (reference loop).

        This is the pre-gating implementation, kept as the equivalence
        baseline for tests and benchmarks.  It shares every state-changing
        helper with :meth:`step`, so the two only differ in which (no-op)
        components they visit.
        """
        now = self.cycle
        tracer = self.tracer
        if tracer is not None:
            tracer.cycle = now
        self._deliver(now)

        for ni in self._live_interfaces:
            sent = ni.next_flit()
            if sent is not None:
                vc, flit = sent
                self._schedule(now + 1, (_ARRIVAL, ni.router_id, ni.local_port, vc, flit))
                self._in_flight_flits += 1

        for router in self._live_routers:
            if router._va_pending:
                router.vc_allocate()
        for router in self._live_routers:
            grants = router.switch_allocate()
            if grants:
                self._apply_grants(router, grants, now)

        self.counters.cycles += 1
        self.cycle = now + 1

    def has_active_work(self) -> bool:
        """True when any router or NI would do work next cycle."""
        return bool(self._active_routers or self._active_nis)

    def skip_to(self, cycle: int) -> None:
        """Fast-forward the clock to ``cycle`` without simulating.

        Only valid when the caller has established quiescence: no active
        router or NI, and no event scheduled before ``cycle`` (the engine
        checks :meth:`has_active_work` and :meth:`next_event_time`).  The
        skipped cycles still count toward ``counters.cycles`` — and are
        tallied separately in ``counters.cycles_skipped`` — so results are
        identical to having stepped through them.
        """
        skipped = cycle - self.cycle
        if skipped <= 0:
            return
        self.counters.cycles += skipped
        self.counters.cycles_skipped += skipped
        self.cycle = cycle

    def _apply_grants(self, router: Router, grants, now: int) -> None:
        """Move every granted flit out of ``router``'s buffers.

        One call per router per cycle: event scheduling is inlined and the
        per-grant activity counters are accumulated locally and flushed
        once, which matters at ~1 grant per active router per cycle.
        """
        events = self._events
        times = self._event_times
        inputs = router.inputs
        outputs = router.outputs
        upstream = router.upstream
        rid = router.rid
        # Every grant schedules its flit move at ``now + pipe`` and (links
        # and injection channels are always wired) a credit at ``now +
        # credit_delay``; resolve both queues once for the whole batch.
        move_when = now + self._pipe
        moveq = events.get(move_when)
        if moveq is None:
            moveq = events[move_when] = []
            heappush(times, move_when)
        credit_when = now + self._credit_delay
        creditq = events.get(credit_when)
        if creditq is None:
            creditq = events[credit_when] = []
            heappush(times, credit_when)
        tracer = self.tracer
        vc_group = None
        if tracer is not None:
            # Only IF/VIX-family allocators have virtual-input groups; other
            # schemes report vin 0 (one crossbar input per port).
            vc_group = getattr(router.allocator, "vc_group", None)
        links = 0
        for in_port, vc, out_port in grants:
            ivc = inputs[in_port][vc]
            flit = ivc.queue.popleft()
            if tracer is not None:
                tracer.record(
                    now,
                    flit.packet.pid,
                    flit.seq,
                    rid,
                    "sa",
                    vc,
                    vc_group(vc) if vc_group is not None else 0,
                )
            out = outputs[out_port]
            if out.is_ejection:
                # ST + LT of the final hop happen before the NI receives it.
                moveq.append((_EJECT, flit, out.terminal))
            else:
                ovc = out.out_vcs[ivc.out_vc]
                credits = ovc.credits
                if credits <= 0:
                    raise RuntimeError(
                        f"router {rid}: grant without downstream credit"
                    )
                ovc.credits = credits - 1
                links += 1
                if out.link is None:
                    moveq.append(
                        (_ARRIVAL, out.dest_router, out.dest_port, ivc.out_vc, flit)
                    )
                else:
                    # Boundary port: the inter-chip link carries the flit
                    # into the destination domain (credits already hold).
                    out.link.send_flit(now, ivc.out_vc, flit)
            tail = flit.is_tail
            up = upstream[in_port]
            if up is not None:
                if up.owner != -2:
                    creditq.append((_CREDIT, up, vc, tail))
                else:
                    # LinkIngress: the freed slot's credit crosses back to
                    # the source domain through the link.
                    up.send_credit(now, vc, tail)
            if tail:
                ivc.release()
        n = len(grants)
        counters = self.counters
        counters.buffer_reads += n
        counters.xbar_traversals += n
        counters.link_traversals += links

    def run(self, cycles: int) -> None:
        """Step the network ``cycles`` times."""
        for _ in range(cycles):
            self.step()

    # --- occupancy queries ---------------------------------------------------

    def outstanding_flits(self) -> int:
        """Flits anywhere between source NI queue and ejection.

        ``_in_flight_flits`` counts flits from injection-channel entry until
        ejection (buffered flits included), so it is disjoint from the NI
        queues.
        """
        pending = sum(ni.pending_flits() for ni in self._live_interfaces)
        return pending + self._in_flight_flits

    def idle(self) -> bool:
        """True when no flit is queued, buffered, or in flight."""
        return self.outstanding_flits() == 0 and not self._events

    # --- engine-neutral introspection ----------------------------------------
    # The partition engine and invariant checker talk to domains through
    # these methods so an array-backed domain (repro.sim.vec.domain) can
    # answer from its tensors while object domains answer from theirs.

    def counter_snapshot(self) -> dict:
        """Activity counters as a plain dict (overridable per engine)."""
        return self.counters.snapshot()

    def export_flow_state(self) -> dict:
        """Flow-control snapshot (see :mod:`repro.network.state`)."""
        from .state import export_flow_state

        return export_flow_state(self)

    def credit_of(self, rid: int, port: int, vc: int) -> int:
        """Credits on router ``rid``'s output ``port`` VC ``vc``."""
        return self.routers[rid].outputs[port].out_vcs[vc].credits

    def ni_credit_of(self, terminal: int, vc: int) -> int:
        """Credits on terminal ``terminal``'s injection-channel VC ``vc``."""
        return self.interfaces[terminal].out_vcs[vc].credits

    def occupancy_of(self, rid: int, port: int, vc: int) -> int:
        """Buffered flits in router ``rid``'s input ``port`` VC ``vc``."""
        return len(self.routers[rid].inputs[port][vc].queue)

    def pending_event_index(self) -> tuple[dict, dict]:
        """Pending wheel events by target, for the invariant checker.

        Returns ``(arrivals, credits)``: arrivals keyed ``(router, port,
        vc) -> count``; credits keyed structurally — ``(router, port,
        vc)`` for router output VCs, ``("ni", terminal, vc)`` for NI
        injection channels — so object and array domains index the same
        way.
        """
        arrivals: dict[tuple, int] = {}
        credits: dict[tuple, int] = {}
        for events in self._events.values():
            for ev in events:
                kind = ev[0]
                if kind == _ARRIVAL:
                    key = (ev[1], ev[2], ev[3])
                    arrivals[key] = arrivals.get(key, 0) + 1
                elif kind == _CREDIT:
                    sink = ev[1]
                    if sink.owner >= 0:
                        key = (sink.owner, sink.index, ev[2])
                    else:
                        key = ("ni", sink.terminal, ev[2])
                    credits[key] = credits.get(key, 0) + 1
        return arrivals, credits


__all__ = ["Network", "VCState"]
