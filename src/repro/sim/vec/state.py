"""Struct-of-arrays state for the vectorized engine.

The object engine scatters router state across ``Router``/``InputVC``/
``OutputPort`` instances; the SoA kernel keeps the same information as a
handful of dense numpy tensors indexed ``[router, port, vc]`` so one array
op touches every router per cycle:

====================  =========  ==================================================
array                 shape      object-engine equivalent
====================  =========  ==================================================
``st``                (R, P, V)  ``InputVC.state`` (IDLE / VA_WAIT / ACTIVE)
``occ``               (R, P, V)  ``len(InputVC.queue)``
``hseq``              (R, P, V)  seq number of the head-of-line flit
``pkt``               (R, P, V)  interned index of the packet owning the VC
``dst``               (R, P, V)  destination router of that packet
``outp`` / ``outv``   (R, P, V)  ``InputVC.out_port`` / ``InputVC.out_vc``
``ocred``             (R, P, V)  ``OutputPort.out_vcs[v].credits``
``oalloc``            (R, P, V)  ``OutputPort.out_vcs[v].allocated``
====================  =========  ==================================================

Buffered flits are not stored individually: wormhole links deliver a
packet's flits in seq order into an atomically-allocated VC, so a VC's
queue is always the contiguous seq range ``[hseq, hseq + occ)`` of one
packet — occupancy plus head seq reconstruct it exactly.

Arbiter pointers live in integer tensors (one per arbitration point) with
the same power-on value (0) and rotation rule as
:class:`~repro.core.arbiter.RoundRobinArbiter`; which tensors exist
depends on the scheme (separable phase-1/phase-2 pointers, or the
port-level matchers' per-port VC pointers plus wavefront's priority
diagonal); every bank rotates through one width-keyed table, ``rr``.
Static topology facts (routing, lookahead, link endpoints) are
precomputed once into lookup tables so the per-cycle kernels are pure
array arithmetic.  Terminal ``t`` sits at ``divmod(t, C)`` and DOR
depends on ``t`` only through its router and its local port, so the
routing tables are indexed by destination *router* ``d = t // C``
wherever the local port is not needed:

====================  ==============  ========================================
table                 shape, dtype    read as
====================  ==============  ========================================
``route_tab``         (R, T) uint8    ``Topology.route(r, t)``, at head arrival
``hop_cls``           (R, R) int8     class of the port r takes toward router d
``la_row``            (R * P,) int64  lookahead: ``hop_cls1[la_row[rp] + d]``
``ni_row``            (T,) int64      NI first hop: ``hop_cls1[ni_row[t] + d]``
``vix_bonus``         (D + 2, V)      one row per direction class (-1 .. D)
====================  ==============  ========================================

A partitioned fabric builds **one** ``SoAState`` over the *full*
topology shape, shared by all of its sibling
:class:`~repro.sim.vec.domain.VecDomain` instances: each domain owns a
disjoint set of router rows and terminal entries, so one kernel call
steps every domain at once and :meth:`SoAState.export_flow_state` cuts a
domain's slice back out by id.
"""

from __future__ import annotations

import numpy as np

from repro.registry import allocators, vc_policies

from .support import SA_KERNELS

#: VC states, numerically identical to :class:`repro.network.buffer.VCState`.
IDLE = 0
VA_WAIT = 1
ACTIVE = 2


def rr_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Width-``n`` round-robin tables: flat roll ``(slot - ptr) % n`` at
    ``ptr * n + slot``, and the pointer advance ``(slot + 1) % n``."""
    ar = np.arange(n)
    return ((ar - ar[:, None]) % n).reshape(-1), (ar + 1) % n


class SoAState:
    """Every router of one topology as dense tensors.

    Built at power-on state (everything idle, every credit at
    ``buffer_depth``, every pointer at 0) from the topology and the
    network config alone: no object router exists behind it.
    """

    def __init__(self, topology, config) -> None:
        self._build_static(topology, config)
        self._build_dynamic(config.router)

    def _build_static(self, topo, config) -> None:
        """Topology/scheme lookup tables (pure functions of the config)."""
        rc = config.router
        R = topo.num_routers
        P = topo.radix
        V = rc.num_vcs
        C = topo.concentration
        T = topo.num_terminals
        self.R, self.P, self.V, self.C, self.T = R, P, V, C, T
        self.depth = rc.buffer_depth

        # --- static topology tables ------------------------------------------
        # Indexed by destination *router*, not terminal: terminal t sits at
        # divmod(t, C), and DOR depends on t only through its router and its
        # local port (Topology.route_table).  Narrow dtypes throughout.
        table = topo.route_table()
        # next_port[r, d]: the output port router r takes toward router d
        # (the diagonal is never a route: there the local port applies).
        next_port = np.frombuffer(
            b"".join(table.next_port), dtype=np.uint8
        ).reshape(R, R)
        # Output port toward each destination terminal, read once per head
        # arrival: next_port[r, t // C], and t's local port t % C at t's own
        # router -- Topology.route(r, t), as the object routers hold it.
        self.route_tab = np.repeat(next_port, C, axis=1)
        own = np.arange(T)
        self.route_tab[own // C, own] = own % C
        # Direction class per port; -1 stands in for local ports, i.e.
        # "ejects downstream" (the policy's downstream_direction=None).
        cls_arr = np.array(
            [
                -1 if topo.is_local_port(p) else topo.port_direction_class(p)
                for p in range(P)
            ],
            dtype=np.int8,
        )
        # hop_cls[r, d]: direction class of the port router r takes toward
        # router d; -1 on the diagonal, where the packet ejects.  Its rows
        # serve both the NI's first hop (the source router's row) and VA's
        # lookahead (the downstream router's row).
        self.hop_cls = cls_arr[next_port]
        np.fill_diagonal(self.hop_cls, -1)
        # Link endpoint tables.  down_* follow an output port to the
        # downstream (router, input port); up_* follow an input port back to
        # the upstream output port.  -1 marks dead edges / local ports (an
        # NI, not a router, sits upstream of a local input port).  Cut links
        # of a partition plan are included — the boundary egress mask (see
        # stepping.VecStepper) diverts them before down_fi1 is consulted.
        self.down_r = np.full((R, P), -1, dtype=np.int64)
        self.down_p = np.full((R, P), -1, dtype=np.int64)
        self.up_r = np.full((R, P), -1, dtype=np.int64)
        self.up_p = np.full((R, P), -1, dtype=np.int64)
        for spec in topo.links():
            self.down_r[spec.src_router, spec.src_port] = spec.dst_router
            self.down_p[spec.src_router, spec.src_port] = spec.dst_port
            self.up_r[spec.dst_router, spec.dst_port] = spec.src_router
            self.up_p[spec.dst_router, spec.dst_port] = spec.src_port
        # Terminal attached to each local port (Topology.terminal_of).
        self.term_tab = np.arange(T, dtype=np.int64).reshape(R, C)
        # Lookahead, Topology.lookahead_direction(r, p, t) with None as -1,
        # is the downstream router's hop_cls entry toward t's router:
        # hop_cls1[la_row[r * P + p] + t // C].  Only consulted for VA
        # winners, whose out ports are always wired and non-local; local and
        # dead-edge entries hold 0 and are never read.
        self.la_row = np.maximum(self.down_r, 0).reshape(-1) * R

        # --- allocation-scheme shape -----------------------------------------
        allocator = allocators.canonical(rc.allocator)
        #: Name of the switch-allocation kernel (see ``support.SA_KERNELS``).
        self.sa_kernel = SA_KERNELS[allocator]
        self.output_first = allocator == "output_first"
        self.wavefront = allocator == "wavefront"
        # Port-level matchers: one match over the P x P request matrix,
        # then a V:1 round-robin per granted input port.
        self.port_level = self.wavefront or allocator == "augmenting_path"
        # Crossbar inputs per port (phase-1/phase-2 arbiter shape).  OF is
        # registered as a conventional scheme (its registry factory drops
        # the configured virtual_inputs), so k is 1 there too, but keep the
        # distinction explicit: the OF kernel mirrors different phases.
        self.k = 1 if self.output_first else max(1, rc.effective_virtual_inputs)
        self.gs = V // self.k
        policy = vc_policies.canonical(rc.vc_policy)
        self.policy_vix = policy == "vix_dimension"
        # VC-policy sub-group shape (the policy sees the same effective k
        # the router hands it: 1 for conventional allocators).
        self.k_pol = max(1, rc.effective_virtual_inputs)
        self.gs_pol = max(1, V // self.k_pol)
        # Rank credits sums below candidate counts (policy key (count, sum)).
        self.sumcap = V * rc.buffer_depth + 1

        # --- round-robin tables -----------------------------------------------
        # rr[n] = rr_tables(n) for each arbiter width n the scheme uses, so
        # kernels.rr_arbitrate's rolled offsets and pointer advance are
        # single gathers (cheaper than the % arithmetic at these sizes).
        # Besides VA's P*V (one arbiter per output over every input VC), the
        # widths are OF's phase 2 (its phase 1 is P*V too), the port-level VC
        # pick (and wavefront's diagonal), or IF's two phases.
        if self.output_first:
            widths = (P,)
        elif self.port_level:
            widths = (V,)
            if self.wavefront:
                widths = (V, P)
                # The sweep in array form (see kernels.sa_wavefront).
                # wf_cell[w * P + i, d] = i * P + (d + w - i) % P: the
                # request-matrix cell input i visits on wave w of a sweep
                # whose priority diagonal is d.  Measured from the diagonal,
                # that output is o' = (w - i) % P at every router:
                # wf_visit[w][i], a static permutation per wave.
                ar = np.arange(P)
                wave, inp = ar[:, None, None], ar[None, :, None]
                self.wf_cell = (inp * P + (ar + wave - inp) % P).reshape(P * P, P)
                self.wf_visit = list((ar[:, None] - ar) % P)
                # Flat request-matrix base of each router: cell (r, i, o)
                # is r * P * P + i * P + o.
                self.cell_base = np.arange(R) * (P * P)
        else:
            widths = (self.gs, P * self.k)
        self.rr = {n: rr_tables(n) for n in {P * V, *widths}}

        # --- flat aliases and index tables ------------------------------------
        # Kernels address every tensor through 1-D raveled views with
        # precomputed flat indices: single-array fancy indexing is several
        # times cheaper than multi-axis advanced indexing at these sizes
        # (dispatch overhead, not element count, dominates).
        self.PV = P * V
        self.RP = R * P
        self.Pk = P * self.k
        self.route1 = self.route_tab.reshape(-1)
        self.hop_cls1 = self.hop_cls.reshape(-1)
        self.term1 = self.term_tab.reshape(-1)
        # Flat flit-arrival index of the VC fed by output port (r, p):
        # (down_r * P + down_p) * V, ready to add the VC id; -1 where unwired.
        self.down_fi1 = np.where(
            self.down_r >= 0, (self.down_r * P + self.down_p) * V, -1
        ).reshape(-1)
        # Flat credit index base of the upstream output VC behind input port
        # (r, p): (up_r * P + up_p) * V; -1 for local/unwired ports.
        self.up_cfi1 = np.where(
            self.up_r >= 0, (self.up_r * P + self.up_p) * V, -1
        ).reshape(-1)
        # Group-membership matrix for the vix_dimension score matmul:
        # grp_mat[v, j] = 1 iff VC v belongs to policy sub-group j.
        self.grp_mat = np.zeros((V, self.k_pol), dtype=np.int64)
        for j in range(self.k_pol):
            self.grp_mat[j * self.gs_pol : (j + 1) * self.gs_pol, j] = 1
        self._arV = np.arange(V)
        # Cached arange covering any kernel row count; slicing a
        # precomputed array beats per-call np.arange allocation.
        self._arN = np.arange(max(R * P * V, T))
        # dirmap[d + 1] = max(d, 0) % k_pol for the policy's preferred-group
        # lookup, one row per direction class the topology has (-1 means
        # "ejects downstream").
        classes = np.arange(-1, int(cls_arr.max()) + 1)
        self.dirmap = np.maximum(classes, 0) % self.k_pol
        # Fused vix_dimension sort key (see kernels.select_vix_dimension):
        # lexicographic (forced-group, group score, -group id, local value)
        # packed into one int64 per VC.  m1 exceeds any per-VC value
        # (creds + sumcap), m2 any group-id term, the bonus any group score
        # term; vix_bonus[d + 1, v] pre-resolves direction d to its forced
        # bonus row (all-zero for d = -1, "ejects downstream").
        gof = self._arV // self.gs_pol  # group of each VC
        m1 = self.sumcap + self.depth + 1
        self._m2 = self.k_pol * m1
        self.gtb = (self.k_pol - 1 - gof) * m1
        bonus = (V * (self.sumcap + self.depth) + 1) * self._m2
        self.vix_bonus = np.where(gof == self.dirmap[:, None], bonus, 0)
        self.vix_bonus[0] = 0
        self.gof = gof

        # Each terminal's (router, local port), as in Topology.router_of.
        term_router, term_port = np.divmod(np.arange(T, dtype=np.int64), C)
        # Flat flit-arrival base of each terminal's injection channel.
        self.ni_fi1 = (term_router * P + term_port) * V
        # First-hop direction class of a packet from terminal t to router d,
        # port_direction_class(route(router_of(t), d)) with None as -1:
        # hop_cls1[ni_row[t] + d], the source router's hop_cls row.
        self.ni_row = term_router * R

    def _build_dynamic(self, rc) -> None:
        """Per-run mutable state at power-on values."""
        R, P, V = self.R, self.P, self.V

        # --- dynamic per-VC state --------------------------------------------
        shape = (R, P, V)
        self.st = np.zeros(shape, dtype=np.int64)
        self.occ = np.zeros(shape, dtype=np.int64)
        self.hseq = np.zeros(shape, dtype=np.int64)
        self.pkt = np.full(shape, -1, dtype=np.int64)
        self.dst = np.full(shape, -1, dtype=np.int64)
        self.outp = np.full(shape, -1, dtype=np.int64)
        self.outv = np.full(shape, -1, dtype=np.int64)
        self.ocred = np.full(shape, rc.buffer_depth, dtype=np.int64)
        self.oalloc = np.zeros(shape, dtype=bool)

        # --- arbiter pointers -------------------------------------------------
        # VA: one radix*V arbiter per output port (Router._va_arbiters).
        # Each pointer tensor gets a flat view (``*_ptr1``) for the kernels.
        self.va_ptr = np.zeros((R, P), dtype=np.int64)
        self.va_ptr1 = self.va_ptr.reshape(-1)
        if self.output_first:
            # SA phase 1: one (P*V):1 arbiter per output port; phase 2: one
            # P:1 arbiter per input port (k is always 1 for OF).
            self.of_out_ptr = np.zeros((R, P), dtype=np.int64)
            self.of_in_ptr = np.zeros((R, P), dtype=np.int64)
            self.of_out_ptr1 = self.of_out_ptr.reshape(-1)
            self.of_in_ptr1 = self.of_in_ptr.reshape(-1)
        elif self.port_level:
            # One V:1 VC arbiter per input port (the allocators'
            # ``_vc_arbiters``); wavefront adds its priority diagonal.
            self.vc_ptr = np.zeros((R, P), dtype=np.int64)
            self.vc_ptr1 = self.vc_ptr.reshape(-1)
            if self.wavefront:
                self.wf_diag = np.zeros(R, dtype=np.int64)
            else:
                # Augmenting-path memo: packed request row -> matched
                # output per input port (see kernels.sa_augmenting_path).
                self.ap_memo: dict[bytes, bytes] = {}
        else:
            # SA phase 1: one gs:1 arbiter per crossbar input (P*k of them);
            # phase 2: one (P*k):1 arbiter per output port.
            self.in_ptr = np.zeros((R, P * self.k), dtype=np.int64)
            self.out_ptr = np.zeros((R, P), dtype=np.int64)
            self.in_ptr1 = self.in_ptr.reshape(-1)
            self.out_ptr1 = self.out_ptr.reshape(-1)

        # Flat views sharing memory with the tensors above.
        self.st1 = self.st.reshape(-1)
        self.occ1 = self.occ.reshape(-1)
        self.hseq1 = self.hseq.reshape(-1)
        self.pkt1 = self.pkt.reshape(-1)
        self.dst1 = self.dst.reshape(-1)
        self.outp1 = self.outp.reshape(-1)
        self.outv1 = self.outv.reshape(-1)
        self.ocred1 = self.ocred.reshape(-1)
        self.oalloc1 = self.oalloc.reshape(-1)
        # Free (unallocated) output-VC count per (router, port), maintained
        # incrementally by the VA kernel (-1 per grant) and credit release
        # (+1) — replaces a per-cycle oalloc reduction.
        self.nfree = np.full(R * P, V, dtype=np.int64)

        # --- vectorized NI state ----------------------------------------------
        # Mirrors NetworkInterface: per-terminal output VCs (credits +
        # allocation) and the packet currently streaming onto the injection
        # channel.  The object NIs keep owning the source queues (the
        # injector enqueues into them); only allocation/streaming vectorize.
        T = self.T
        self.ni_cred1 = np.full(T * V, rc.buffer_depth, dtype=np.int64)
        self.ni_alloc1 = np.zeros(T * V, dtype=bool)
        self.ni_vc = np.full(T, -1, dtype=np.int64)
        self.ni_rem = np.zeros(T, dtype=np.int64)
        self.ni_seq = np.zeros(T, dtype=np.int64)
        self.ni_pk = np.full(T, -1, dtype=np.int64)

        # Per-link flit counts, moved into the owning domain's link counts
        # whenever it snapshots its counters.
        self.links = np.zeros((R, P), dtype=np.int64)
        self.links1 = self.links.reshape(-1)

        # --- packet interning -------------------------------------------------
        # Flits are not objects in the kernel: events carry (packet index,
        # seq) and the arrays above carry the rest.  The real Packet objects
        # are kept until their tail ejects (stats need ``ejected_cycle`` and
        # ``created_cycle``); ``VecStepper.deliver`` then clears the slot and
        # hands it to ``free_slots``, which ``intern`` drains before growing,
        # so the table holds what is in flight, not what the run injected.
        self.packets: list = []
        self.free_slots: list[int] = []
        cap = 4096
        self.pk_dst = np.zeros(cap, dtype=np.int64)
        self.pk_dr = np.zeros(cap, dtype=np.int64)  # destination router
        self.pk_last = np.zeros(cap, dtype=np.int64)

    def export_flow_state(
        self,
        cycle: int,
        owned_routers=None,
        owned_terminals=None,
    ) -> dict:
        """Flow-control snapshot in the object engine's schema.

        Emits exactly what :func:`repro.network.state.export_flow_state`
        produces for an object network in the same dynamic state — the
        cross-engine drift guard: after identical runs the two dicts must
        compare equal, credit by credit and pointer by pointer.

        ``owned_routers`` / ``owned_terminals`` restrict the snapshot to a
        partition domain's slice: unowned ids emit ``None`` rows, matching
        an object domain :class:`~repro.network.network.Network`'s holes.
        """
        from repro.network.state import FLOW_STATE_VERSION

        routers: list[dict | None] = []
        for r in range(self.R):
            if owned_routers is not None and r not in owned_routers:
                routers.append(None)
                continue
            credits: list[list[int] | None] = []
            allocated: list[list[bool] | None] = []
            for p in range(self.P):
                if p < self.C or self.down_r[r, p] < 0:
                    # Ejection/dead ports: no credit state (matches the
                    # object engine's unwired outputs).
                    credits.append(None)
                    allocated.append(None)
                else:
                    credits.append([int(c) for c in self.ocred[r, p]])
                    allocated.append([bool(a) for a in self.oalloc[r, p]])
            if self.output_first:
                sa = {
                    "output": [int(x) for x in self.of_out_ptr[r]],
                    "input": [[int(self.of_in_ptr[r, p])] for p in range(self.P)],
                }
            elif self.port_level:
                sa = {"vc": [int(x) for x in self.vc_ptr[r]]}
                if self.wavefront:
                    sa["diagonal"] = int(self.wf_diag[r])
            else:
                sa = {
                    "input": [
                        [int(self.in_ptr[r, p * self.k + g]) for g in range(self.k)]
                        for p in range(self.P)
                    ],
                    "output": [int(x) for x in self.out_ptr[r]],
                }
            routers.append(
                {
                    "credits": credits,
                    "allocated": allocated,
                    "va_pointers": [int(x) for x in self.va_ptr[r]],
                    "sa_pointers": sa,
                }
            )
        interfaces = [
            None
            if owned_terminals is not None and t not in owned_terminals
            else {
                "credits": [
                    int(c) for c in self.ni_cred1[t * self.V : (t + 1) * self.V]
                ],
                "allocated": [
                    bool(a) for a in self.ni_alloc1[t * self.V : (t + 1) * self.V]
                ],
            }
            for t in range(self.T)
        ]
        return {
            "version": FLOW_STATE_VERSION,
            "cycle": cycle,
            "routers": routers,
            "interfaces": interfaces,
        }

    def intern(self, packet) -> int:
        """Register a packet; returns its dense index for the event arrays."""
        if self.free_slots:
            idx = self.free_slots.pop()
            self.packets[idx] = packet
        else:
            idx = len(self.packets)
            if idx == self.pk_dst.size:
                self.pk_dst = np.concatenate([self.pk_dst, np.zeros_like(self.pk_dst)])
                self.pk_dr = np.concatenate([self.pk_dr, np.zeros_like(self.pk_dr)])
                self.pk_last = np.concatenate([self.pk_last, np.zeros_like(self.pk_last)])
            self.packets.append(packet)
        self.pk_dst[idx] = packet.dst
        self.pk_dr[idx] = packet.dst // self.C
        self.pk_last[idx] = packet.num_flits - 1
        return idx
