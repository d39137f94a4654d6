"""Array-backed partition domains: one SoA kernel behind every SimDomain.

A partitioned fabric on the vectorized domain engine is one
:class:`VecFabric` — a single full-topology
:class:`~repro.sim.vec.state.SoAState` and a single
:class:`~repro.sim.vec.stepping.VecStepper` — plus one :class:`VecDomain`
per chiplet.  Routers are independent within a cycle and every cut-link
effect lands at least one cycle in the future, so nothing orders sibling
domains inside a cycle: the per-cycle unit is "every owned domain ticks
its injector and drains its event wheel into the shared ring slot
(:meth:`VecDomain.step`), then ``deliver`` → ``ni_phase`` → ``allocate``
run once over the union (:meth:`VecFabric.step`)".  The size-independent
numpy dispatch of a kernel cycle is paid once per fabric, not once per
domain.

:class:`VecDomain` subclasses :class:`~repro.network.domain.DomainNetwork`
and keeps everything that gives a domain its identity — plan
bookkeeping, object NIs for its injector slice, its own event wheel and
clock, its ``InterChipLink`` endpoints — so the partition engine drives
it through the same SimDomain contract object domains satisfy
(``step()``, ``has_active_work()``, ``next_event_time()``, ``skip_to()``,
``export_flow_state()``) and serial round-robin, worker forks (a worker
inherits the whole fabric and steps only its block of domains; the other
domains' rows stay inert in its copy), epoch barriers, and the invariant
checker all work unchanged.  Its introspection answers are the owned
rows of the shared tensors.

Boundary traffic meets the array world in two places:

* **egress** — :meth:`VecDomain.attach_egress` masks the cut link's
  source port in the stepper, which hands granted boundary flits
  (reconstructed as real ``Flit`` objects) to
  ``InterChipLink.send_flit`` instead of the ring;
* **ingress** — ferried flits and returning credits arrive through the
  owning domain's network event wheel (their latencies may exceed the
  ring horizon); :meth:`VecDomain._drain_wheel` translates the cycle's
  events into one array chunk per kind and feeds them to the shared ring
  slot.

Counters: a domain's ``flits_ejected`` and ``link_traversals`` are cut
from per-terminal / per-link tallies at snapshot time.  The kernel's
other activity counts (buffer reads/writes, crossbar traversals, packets
ejected) are only ever reported summed over domains, so the fabric
accumulates them once and :meth:`VecDomain.counter_snapshot` moves them
into whichever domain snapshots first — the same take-and-zero rule as
the per-link counts, exact under summation in serial and worker mode.
"""

from __future__ import annotations

import weakref
from heapq import heappop

import numpy as np

from repro.energy.activity import ActivityCounters
from repro.network.domain import DomainNetwork
from repro.network.links import InterChipLink
from repro.network.network import _ARRIVAL, _CREDIT

from .state import SoAState
from .stepping import VecStepper

#: Kernel activity the fabric accumulates for all of its domains at once.
_FABRIC_COUNTERS = (
    "buffer_writes",
    "buffer_reads",
    "xbar_traversals",
    "packets_ejected",
)


class VecFabric:
    """The SoA state, stepper and sibling domains of one partitioned fabric.

    Doubles as the stepper's ``net``: NIs, the active-NI set and the stats
    collector are shared by every domain of the process, so the union the
    kernel phases batch over needs no per-cycle assembly.
    """

    def __init__(self, config, plan, topology) -> None:
        self.config = config
        self.topology = topology
        self.s = SoAState(self)
        # The stepper and the domains point back at the fabric weakly.  The
        # domains sit in reference cycles (links, NIs), and a strong
        # back-pointer would keep the static tables (R*P*T wide; la_tab
        # alone is 256 MiB at 32x32) alive after the engine is dropped,
        # until the cycle collector's next full pass.
        net = weakref.proxy(self)
        self.counters = ActivityCounters()
        self.stats = None
        self.interfaces: list = [None] * topology.num_terminals
        self._active_nis: set[int] = set()
        self._in_flight_flits = 0
        self.stepper = VecStepper(net, self.s)
        self.stepper.ejected = np.zeros(topology.num_terminals, dtype=np.int64)
        # Packets that crossed a link, by pid: each is interned at most
        # once more however many cuts it crosses.
        self.pk_index: dict[int, int] = {}
        self.domains = [
            VecDomain(config, plan, d, topology, fabric=net)
            for d in range(plan.num_domains)
        ]

    def step(self, now: int) -> None:
        """The kernel phases of cycle ``now``, once over every domain."""
        stepper = self.stepper
        stepper.deliver(now)
        stepper.ni_phase(now)
        stepper.allocate(now)
        stepper.kernel_cycles += 1


class VecDomain(DomainNetwork):
    """One chiplet domain's slice of a :class:`VecFabric`."""

    def __init__(
        self, config, plan, domain: int, topology, *, fabric: VecFabric
    ) -> None:
        self.fabric = fabric
        super().__init__(config, plan, domain, topology)
        self._router_ids = np.array(sorted(self._owned_routers), dtype=np.int64)
        self._terminal_ids = np.array(sorted(self._owned_terminals), dtype=np.int64)
        # Network.inject activates NIs by terminal id: one set for the
        # whole fabric is the union ni_phase batches over.
        self._active_nis = fabric._active_nis
        for t in self._owned_terminals:
            fabric.interfaces[t] = self.interfaces[t]

    # Read through the fabric, so that a domain holds no strong reference
    # to the tables it slices.
    @property
    def s(self) -> SoAState:
        return self.fabric.s

    @property
    def _stepper(self) -> VecStepper:
        return self.fabric.stepper

    # The collector is per process, not per domain (serial mode shares one,
    # a worker swaps in its own for the block it owns); the stepper reads
    # it off the fabric.
    @property
    def stats(self):
        return self.fabric.stats

    @stats.setter
    def stats(self, collector) -> None:
        self.fabric.stats = collector

    # --- boundary wiring ---------------------------------------------------

    def attach_egress(self, link: InterChipLink) -> None:
        super().attach_egress(link)
        spec = link.spec
        self._stepper.add_egress(spec.src_router * self.s.P + spec.src_port, link)

    def attach_ingress(self, link: InterChipLink) -> None:
        super().attach_ingress(link)
        spec = link.spec
        self._stepper.add_ingress(spec.dst_router * self.s.P + spec.dst_port, link)

    # --- SimDomain stepping contract ---------------------------------------

    def step(self) -> None:
        """This domain's part of one cycle: wheel drain + clock advance.

        The injector tick before it and :meth:`VecFabric.step` after every
        sibling has drained are the partition engine's job.
        """
        now = self.cycle
        if self._events:
            self._drain_wheel(now)
        self.counters.cycles += 1
        self.cycle = now + 1

    def _drain_wheel(self, now: int) -> None:
        """Translate this cycle's wheel events into stepper ring chunks.

        Cut-link deliveries are the only wheel writers in a vec domain.
        Per-cycle uniqueness (one arrival per input port, one credit per
        output VC — link serialization only spreads sends further apart)
        makes the chunked fancy-indexed application exact, same as for
        ring-native events, and sibling domains' chunks address disjoint
        rows.
        """
        events = self._events.pop(now, None)
        if events is None:
            return
        times = self._event_times
        if times and times[0] == now:
            heappop(times)
        s = self.s
        P, V = s.P, s.V
        arr_fi: list[int] = []
        arr_pk: list[int] = []
        arr_sq: list[int] = []
        cred_fi: list[int] = []
        cred_rel: list[bool] = []
        pk_index = self.fabric.pk_index
        for ev in events:
            if ev[0] == _ARRIVAL:
                _, rid, port, vc, flit = ev
                packet = flit.packet
                idx = pk_index.get(packet.pid)
                if idx is None:
                    idx = s.intern(packet)
                    pk_index[packet.pid] = idx
                arr_fi.append((rid * P + port) * V + vc)
                arr_pk.append(idx)
                arr_sq.append(flit.seq)
            else:  # _CREDIT: sink is our boundary OutputPort object
                _, sink, vc, release = ev
                cred_fi.append((sink.owner * P + sink.index) * V + vc)
                cred_rel.append(release)
        stepper = self._stepper
        slot = stepper.slot(now)
        n = 0
        if arr_fi:
            slot["arr"].append(
                (
                    np.array(arr_fi, dtype=np.int64),
                    np.array(arr_pk, dtype=np.int64),
                    np.array(arr_sq, dtype=np.int64),
                )
            )
            n += len(arr_fi)
        if cred_fi:
            slot["cred"].append(
                (np.array(cred_fi, dtype=np.int64), np.array(cred_rel, dtype=bool))
            )
            n += len(cred_fi)
        stepper.add_slot_count(now, n)

    # Activity is fabric-wide; the engine only ever reduces it over every
    # domain (global quiescence), so the wider answer is the same answer.

    def has_active_work(self) -> bool:
        return bool(self._stepper.busy_vcs or self._active_nis)

    def next_event_time(self) -> int | None:
        ring = self._stepper.next_event_time(self.cycle)
        wheel = DomainNetwork.next_event_time(self)
        if ring is None:
            return wheel
        if wheel is None:
            return ring
        return min(ring, wheel)

    # skip_to is inherited: the SoA arrays hold no clock, so advancing
    # Network.cycle (+ counters) is the whole fast-forward.

    # --- engine-neutral introspection ---------------------------------------

    def counter_snapshot(self) -> dict:
        # Everything below moves counts into this domain's own counters and
        # zeroes the source, so repeated snapshots don't double-count.
        mine = self.counters
        rows = self._router_ids
        links = self.s.links[rows]
        if links.any():
            # Per-link counts also feed the object-side table (the report
            # surface).
            link_counts = self._link_counts
            for r, row in zip(rows.tolist(), links.tolist()):
                counts = link_counts[r]
                for p, c in enumerate(row):
                    counts[p] += c
            self.s.links[rows] = 0
            mine.link_traversals += int(links.sum())
        ejected = self._stepper.ejected
        mine.flits_ejected += int(ejected[self._terminal_ids].sum())
        ejected[self._terminal_ids] = 0
        shared = self.fabric.counters
        for name in _FABRIC_COUNTERS:
            setattr(mine, name, getattr(mine, name) + getattr(shared, name))
            setattr(shared, name, 0)
        snap = mine.snapshot()
        snap["vec_kernel_cycles"] = self._stepper.kernel_cycles
        return snap

    def export_flow_state(self) -> dict:
        return self.s.export_flow_state(
            self.cycle,
            owned_routers=self._owned_routers,
            owned_terminals=self._owned_terminals,
        )

    def outstanding_flits(self) -> int:
        """Flits between source-queue entry and ejection, array-side.

        Read from the owned rows rather than a running count (the stepper
        keeps that fabric-wide): queued packets, the unstreamed remainder
        of packets streaming from the SoA side (their NI holds only a
        sentinel), buffered flits, and flits in a pending arrival or
        ejection event.
        """
        queued = sum(
            p.num_flits for ni in self._live_interfaces for p in ni.queue
        )
        wheel_arrivals, _ = DomainNetwork.pending_event_index(self)
        ring_arrivals, _, ejections = self._stepper.pending_ring_index()
        routers, terminals = self._owned_routers, self._owned_terminals
        return (
            queued
            + int(self.s.ni_rem[self._terminal_ids].sum())
            + int(self.s.occ[self._router_ids].sum())
            + sum(wheel_arrivals.values())
            + sum(n for key, n in ring_arrivals.items() if key[0] in routers)
            + sum(t in terminals for t in ejections)
        )

    def credit_of(self, rid: int, port: int, vc: int) -> int:
        return int(self.s.ocred[rid, port, vc])

    def ni_credit_of(self, terminal: int, vc: int) -> int:
        return int(self.s.ni_cred1[terminal * self.s.V + vc])

    def occupancy_of(self, rid: int, port: int, vc: int) -> int:
        return int(self.s.occ[rid, port, vc])

    def pending_event_index(self) -> tuple[dict, dict]:
        arrivals, credits = DomainNetwork.pending_event_index(self)
        ring_arr, ring_cred, _ = self._stepper.pending_ring_index()
        routers, terminals = self._owned_routers, self._owned_terminals
        for key, count in ring_arr.items():
            if key[0] in routers:
                arrivals[key] = arrivals.get(key, 0) + count
        for key, count in ring_cred.items():
            owned = key[1] in terminals if key[0] == "ni" else key[0] in routers
            if owned:
                credits[key] = credits.get(key, 0) + count
        return arrivals, credits


__all__ = ["VecDomain", "VecFabric"]
