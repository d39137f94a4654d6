"""The SoA per-cycle stepper of a :class:`~repro.sim.vec.domain.VecFabric`.

:class:`VecStepper` owns the kernel's hot path: the fixed-size event
ring, flit/credit delivery, the vectorized NI phase, and grant
application over one :class:`~repro.sim.vec.state.SoAState`.  Every
kernel run drives exactly one stepper over the whole topology, on the
fabric its domains share — the monolithic ``vectorized`` engine is the
1x1 fabric.  Routers are independent within a cycle, so one kernel call
per cycle steps every domain and the size-independent numpy dispatch is
paid once per fabric, not once per domain.

Cut links are registered per port via :meth:`add_egress`/
:meth:`add_ingress`, and :meth:`apply_grants` diverts granted flits on
masked output ports into
:meth:`~repro.network.links.InterChipLink.send_flit` (and freed buffer
credits on masked input ports into ``send_credit``) instead of the local
ring — the exact calls the object engine's grant loop makes at a
boundary, so link serialization, latency, and outbox behavior are
identical across domain engines.  A fabric without cut links (1x1) never
builds the masks.  Ejections are tallied per terminal
(:attr:`VecStepper.ejected`), from which each domain reads its own
``flits_ejected``.

Per-cycle event uniqueness — at most one arrival per (router, input
port) and one credit per (output port, VC) per cycle, including across
links (one grant per output port per cycle, constant link latency,
serialization only spreads further apart) — is what makes the chunked
fancy-indexed updates exact and chunk order commutative.
"""

from __future__ import annotations

import numpy as np

from repro.network.flit import Flit, FlitType

from . import kernels
from .kernels import select_max_credit, select_vix_dimension, va_kernel
from .state import ACTIVE, IDLE, VA_WAIT, SoAState


def boundary_flit(packet, seq: int, last: int) -> Flit:
    """Reconstruct the flit object a cut link carries.

    The kernel keeps flits as (packet index, seq) pairs; a link crossing
    needs the real :class:`~repro.network.flit.Flit` back (the far side
    may be an object domain, and worker mode pickles it).  The flit type
    is a pure function of (seq, last), matching ``Packet.make_flits``.
    """
    if last == 0:
        ftype = FlitType.SINGLE
    elif seq == 0:
        ftype = FlitType.HEAD
    elif seq == last:
        ftype = FlitType.TAIL
    else:
        ftype = FlitType.BODY
    return Flit(packet, ftype, seq)


class VecStepper:
    """Event ring + per-cycle kernel phases over one :class:`SoAState`."""

    __slots__ = (
        "net",
        "s",
        "_sa",
        "_pipe",
        "_cdel",
        "_ring_size",
        "_slots",
        "_slot_n",
        "busy_vcs",
        "kernel_cycles",
        "_egress",
        "_egress_mask",
        "_ingress",
        "_ingress_mask",
        "ejected",
    )

    def __init__(self, fabric, s: SoAState) -> None:
        #: The fabric: NIs, the active-NI set, counters and the collector.
        self.net = fabric
        self.s = s
        # Resolved through the module globals, not imported by name: an
        # outside tracer that wraps ``kernels.sa_*`` is picked up by every
        # stepper built after it.
        self._sa = getattr(kernels, s.sa_kernel)
        rc = fabric.config.router
        self._pipe = rc.pipeline_stages
        self._cdel = rc.credit_delay
        # Event ring: one slot per future cycle up to the longest *local*
        # latency (cut-link events ride the domain's wheel instead — their
        # latencies may exceed any fixed horizon).
        self._ring_size = max(self._pipe, self._cdel, 1) + 1
        self._slots = [
            {"arr": [], "cred": [], "nicred": [], "ej": []}
            for _ in range(self._ring_size)
        ]
        self._slot_n = [0] * self._ring_size
        #: Non-IDLE input VCs (the router-side has-work test for idle skip).
        self.busy_vcs = 0
        #: Cycles executed through the array kernel (reported in counters).
        self.kernel_cycles = 0
        # Cut-link boundary hooks: flat (router*P + port) -> InterChipLink.
        self._egress: dict[int, object] = {}
        self._egress_mask: np.ndarray | None = None
        self._ingress: dict[int, object] = {}
        self._ingress_mask: np.ndarray | None = None
        #: Flits ejected per terminal since the owning domain last read them.
        self.ejected = np.zeros(s.T, dtype=np.int64)

    # --- boundary registration ---------------------------------------------

    def add_egress(self, port_flat: int, link) -> None:
        """Divert grants on flat output port ``port_flat`` into ``link``."""
        if self._egress_mask is None:
            self._egress_mask = np.zeros(self.s.RP, dtype=bool)
        self._egress_mask[port_flat] = True
        self._egress[port_flat] = link

    def add_ingress(self, port_flat: int, link) -> None:
        """Divert credits freed at flat input port ``port_flat`` into ``link``."""
        if self._ingress_mask is None:
            self._ingress_mask = np.zeros(self.s.RP, dtype=bool)
        self._ingress_mask[port_flat] = True
        self._ingress[port_flat] = link

    # --- event ring ---------------------------------------------------------

    def slot(self, when: int) -> dict:
        return self._slots[when % self._ring_size]

    def add_slot_count(self, when: int, n: int) -> None:
        self._slot_n[when % self._ring_size] += n

    def next_event_time(self, now: int) -> int | None:
        """Earliest future cycle with a scheduled ring event, or ``None``."""
        for delta in range(1, self._ring_size):
            if self._slot_n[(now + delta) % self._ring_size]:
                return now + delta
        return None

    def pending_ring_index(self):
        """Pending ring events by target, for the invariant checker.

        Returns ``(arrivals, credits, ejections)``: arrivals keyed
        ``(router, port, vc) -> count``, credits keyed ``(router, port,
        vc)`` for router output VCs / ``("ni", terminal, vc)`` for NI
        injection credits, and the destination terminal of every flit
        between its ejection grant and its delivery.
        """
        s = self.s
        arrivals: dict[tuple, int] = {}
        credits: dict[tuple, int] = {}
        ejections: list[int] = []
        for slot in self._slots:
            for terms, _pks, _tails in slot["ej"]:
                ejections.extend(terms.tolist())
            for fi, _pk, _sq in slot["arr"]:
                for f in np.asarray(fi).reshape(-1).tolist():
                    key = (f // s.PV, (f // s.V) % s.P, f % s.V)
                    arrivals[key] = arrivals.get(key, 0) + 1
            for cfi, _rel in slot["cred"]:
                for c in np.asarray(cfi).reshape(-1).tolist():
                    key = (c // s.PV, (c // s.V) % s.P, c % s.V)
                    credits[key] = credits.get(key, 0) + 1
            for cfi, _rel in slot["nicred"]:
                for c in np.asarray(cfi).reshape(-1).tolist():
                    key = ("ni", c // s.V, c % s.V)
                    credits[key] = credits.get(key, 0) + 1
        return arrivals, credits, ejections

    # --- per-cycle phases ---------------------------------------------------

    def deliver(self, now: int) -> None:
        idx = now % self._ring_size
        if not self._slot_n[idx]:
            return
        slot = self._slots[idx]
        s = self.s
        counters = self.net.counters

        # Credit events carry the flat index of the upstream output VC; at
        # most one credit per (output port, vc) per cycle, so fancy += is
        # exact.  Releases can share a port, hence add.at for the free count.
        for cfi, rel in slot["cred"]:
            s.ocred1[cfi] += 1
            if rel.any():
                rfi = cfi[rel]
                s.oalloc1[rfi] = False
                np.add.at(s.nfree, rfi // s.V, 1)
        # NI credits use the same flat (terminal, vc) convention; like router
        # credits they are unique per (output vc, cycle), so fancy += is exact.
        for cfi, rel in slot["nicred"]:
            s.ni_cred1[cfi] += 1
            if rel.any():
                s.ni_alloc1[cfi[rel]] = False

        chunks = slot["arr"]
        if chunks:
            if len(chunks) == 1:
                fi, pk, sq = chunks[0]
            else:
                fi, pk, sq = (np.concatenate(parts) for parts in zip(*chunks))
            # At most one arrival per (router, input port) per cycle, so the
            # flat VC indices are distinct and fancy updates are exact.
            occ0 = s.occ1[fi]
            s.occ1[fi] = occ0 + 1
            fresh = occ0 == 0  # queue was empty: this flit is head-of-line
            s.hseq1[fi[fresh]] = sq[fresh]
            heads = sq == 0
            if heads.any():
                hfi = fi[heads]
                hpk = pk[heads]
                out = s.route1[(hfi // s.PV) * s.T + s.pk_dst[hpk]]
                s.pkt1[hfi] = hpk
                s.dst1[hfi] = s.pk_dr[hpk]
                s.outp1[hfi] = out
                eject = out < s.C
                s.st1[hfi] = np.where(eject, ACTIVE, VA_WAIT)
                s.outv1[hfi[eject]] = 0
                self.busy_vcs += int(heads.sum())
            counters.buffer_writes += fi.size

        # Read per call: worker mode swaps the domain's collector after fork.
        stats = self.net.stats
        packets = s.packets
        # on_flit_ejected is a pure windowed count, so it batches per chunk;
        # tails still replay per packet (latency + outstanding bookkeeping).
        in_window = stats.window_start <= now < stats.window_end
        by_creation = stats.window_by_creation
        ws, we = stats.window_start, stats.window_end
        outstanding = stats._outstanding
        ejected = self.ejected
        pk_index = self.net.pk_index
        for terms, pks, tails in slot["ej"]:
            n = len(terms)
            # One grant per ejection port per cycle: terminals are
            # distinct within a chunk, so fancy += is exact.
            ejected[terms] += 1
            counters.flits_ejected += n
            self.net._in_flight_flits -= n
            if in_window:
                stats.flits_ejected += n
            tpk = pks[tails].tolist()
            if not tpk:
                continue
            counters.packets_ejected += len(tpk)
            if in_window:
                stats.packets_ejected += len(tpk)
            # Inlined stats.on_packet_ejected (per-packet method dispatch is
            # measurable at saturation); the window test hoists per chunk.
            per_src = stats.per_source_ejected
            latencies = stats.latencies
            # The tail's ejection is the last read of an interned packet
            # (boundary flits are rebuilt before they eject), so its slot
            # is released here for intern to reuse, and so is its cut-link
            # entry, if it crossed a cut.
            if pk_index:
                for pki in tpk:
                    pk_index.pop(packets[pki].pid, None)
            for pki in tpk:
                packet = packets[pki]
                packets[pki] = None
                packet.ejected_cycle = now
                if in_window:
                    per_src[packet.src] += 1
                if by_creation:
                    # WindowStats: measured-ness keyed by created_cycle (a
                    # packet may be created in another worker's domain).
                    created = packet.created_cycle
                    if ws <= created < we:
                        latencies.append(now - created)
                elif packet.pid in outstanding:
                    outstanding.discard(packet.pid)
                    latencies.append(now - packet.created_cycle)
            s.free_slots.extend(tpk)

        slot["arr"].clear()
        slot["cred"].clear()
        slot["nicred"].clear()
        slot["ej"].clear()
        self._slot_n[idx] = 0

    def ni_phase(self, now: int) -> None:
        """Vectorized ``NetworkInterface.next_flit`` across all active NIs.

        NIs are mutually independent within a cycle, so allocation and
        streaming batch over the active set (iteration order is
        irrelevant).  The object NIs keep owning the source queues — the
        injector's ``queue_length >= 4`` saturation check reads
        ``len(queue) + (1 if _current_flits else 0)``, so a sentinel is
        pushed into ``_current_flits`` while a packet streams from the SoA
        side and cleared when its tail leaves.
        """
        fabric = self.net
        active_nis = fabric._active_nis
        if not active_nis:
            return
        interfaces = fabric.interfaces
        s = self.s
        V = s.V
        terms = np.fromiter(active_nis, np.int64, len(active_nis))

        # Allocation: an active NI with no packet in flight always has a
        # queued packet (completion deactivates empty-queue NIs).  Matching
        # the object NI, a packet is only dequeued when some output VC is
        # unallocated *and* has credits.
        needy = terms[s.ni_rem[terms] == 0]
        if needy.size:
            cols = (needy * V)[:, None] + s._arV
            cand = ~s.ni_alloc1[cols] & (s.ni_cred1[cols] > 0)
            has = cand.any(-1)
            if not has.all():
                needy = needy[has]
                cand = cand[has]
                cols = cols[has]
            if needy.size:
                pkidx = np.empty(needy.size, dtype=np.int64)
                rems = np.empty(needy.size, dtype=np.int64)
                for i, t in enumerate(needy.tolist()):
                    ni = interfaces[t]
                    packet = ni.queue.popleft()
                    pkidx[i] = s.intern(packet)
                    rems[i] = packet.num_flits
                    ni._current_flits.append(None)  # queue_length sentinel
                if (cand.sum(-1) == 1).all():
                    choice = cand.argmax(-1)
                elif s.policy_vix:
                    direction = s.hop_cls1[s.ni_row[needy] + s.pk_dr[pkidx]]
                    choice = select_vix_dimension(
                        s, cand, s.ni_cred1[cols], direction
                    )
                else:
                    choice = select_max_credit(cand, s.ni_cred1[cols])
                s.ni_alloc1[needy * V + choice] = True
                s.ni_vc[needy] = choice
                s.ni_seq[needy] = 0
                s.ni_rem[needy] = rems
                s.ni_pk[needy] = pkidx

        # Streaming: one flit per NI per cycle when the allocated VC has a
        # credit (ejection-side credits are returned by apply_grants).
        vcs = s.ni_vc[terms]
        m = (s.ni_rem[terms] > 0) & (s.ni_cred1[terms * V + vcs] > 0)
        st = terms[m]
        if st.size == 0:
            return
        svc = vcs[m]
        s.ni_cred1[st * V + svc] -= 1
        sq = s.ni_seq[st]
        s.ni_seq[st] = sq + 1
        nrem = s.ni_rem[st] - 1
        s.ni_rem[st] = nrem
        self.slot(now + 1)["arr"].append((s.ni_fi1[st] + svc, s.ni_pk[st], sq))
        self._slot_n[(now + 1) % self._ring_size] += st.size
        fabric._in_flight_flits += st.size
        for t in st[nrem == 0].tolist():
            ni = interfaces[t]
            ni._current_flits.clear()
            if not ni.queue:
                active_nis.discard(t)

    def allocate(self, now: int) -> None:
        """VA + SA kernels and grant application for one cycle."""
        if not self.busy_vcs:
            return
        va_kernel(self.s)
        grants = self._sa(self.s)
        if grants is not None:
            self.apply_grants(now, grants)

    # --- boundary sends -----------------------------------------------------

    def _send_link_flits(self, now, fpo, fv, fpk, fsq) -> None:
        s = self.s
        packets = s.packets
        pk_last = s.pk_last
        pk_index = self.net.pk_index
        egress = self._egress
        for po, vc, pki, seq in zip(
            fpo.tolist(), fv.tolist(), fpk.tolist(), fsq.tolist()
        ):
            packet = packets[pki]
            # The far domain finds the packet's slot by pid, so the packet
            # keeps this one slot for life (see VecFabric.pk_index).
            pk_index[packet.pid] = pki
            egress[po].send_flit(
                now, vc, boundary_flit(packet, seq, int(pk_last[pki]))
            )

    def _send_link_credits(self, now, ports, vcs, rels) -> None:
        ingress = self._ingress
        for po, vc, rel in zip(ports.tolist(), vcs.tolist(), rels.tolist()):
            ingress[po].send_credit(now, vc, bool(rel))

    def apply_grants(self, now: int, grants) -> None:
        gfi, gout = grants
        n = gfi.size
        s = self.s
        pk = s.pkt1[gfi]
        sq = s.hseq1[gfi]
        s.occ1[gfi] -= 1
        s.hseq1[gfi] = sq + 1
        tail = sq == s.pk_last[pk]
        eject = gout < s.C
        rp = (gfi // s.PV) * s.P  # flat (router, *) base, port added per use

        move_slot = self.slot(now + self._pipe)
        n_ej = int(eject.sum())
        n_fwd = n - n_ej
        n_ring = n_ej  # ring-scheduled moves (boundary flits ride the link)
        if n_fwd:
            forward = ~eject
            ffi = gfi[forward]
            fpo = rp[forward] + gout[forward]
            fv = s.outv1[ffi]
            # Credit decrement and link count apply to boundary ports too:
            # the source-side credit counter mirrors the remote buffer.
            s.ocred1[fpo * s.V + fv] -= 1
            s.links1[fpo] += 1
            fpk = pk[forward]
            fsq = sq[forward]
            bnd = (
                self._egress_mask[fpo] if self._egress_mask is not None else None
            )
            if bnd is not None and bnd.any():
                self._send_link_flits(
                    now, fpo[bnd], fv[bnd], fpk[bnd], fsq[bnd]
                )
                loc = ~bnd
                n_loc = int(loc.sum())
                if n_loc:
                    move_slot["arr"].append(
                        (s.down_fi1[fpo[loc]] + fv[loc], fpk[loc], fsq[loc])
                    )
                n_ring += n_loc
            else:
                move_slot["arr"].append((s.down_fi1[fpo] + fv, fpk, fsq))
                n_ring += n_fwd
        if n_ej:
            epo = gfi[eject] // s.PV * s.C + gout[eject]
            move_slot["ej"].append((s.term1[epo], pk[eject], tail[eject]))
        self._slot_n[(now + self._pipe) % self._ring_size] += n_ring

        credit_slot = self.slot(now + self._cdel)
        gp = (gfi // s.V) % s.P  # input port of the granted VC
        up = s.up_cfi1[rp + gp]
        gvc = gfi % s.V
        local = gp < s.C
        remote = ~local & (up >= 0)
        if self._ingress_mask is not None:
            ing = self._ingress_mask[rp + gp]
            if ing.any():
                # Boundary input port: the freed slot's credit crosses the
                # cut link back to the source domain.
                remote &= ~ing
                self._send_link_credits(now, (rp + gp)[ing], gvc[ing], tail[ing])
        cidx = (now + self._cdel) % self._ring_size
        n_rem = int(remote.sum())
        if n_rem:
            credit_slot["cred"].append((up[remote] + gvc[remote], tail[remote]))
            self._slot_n[cidx] += n_rem
        if local.any():
            lterm = s.term1[(gfi[local] // s.PV) * s.C + gp[local]]
            credit_slot["nicred"].append(
                (lterm * s.V + gvc[local], tail[local])
            )
            self._slot_n[cidx] += lterm.size

        n_tail = int(tail.sum())
        if n_tail:
            # Only ``st`` must reset: pkt/dst/outp/outv are refreshed at the
            # next head arrival before any kernel reads them (reads are gated
            # on VA_WAIT / ACTIVE), so stale values are never observed.
            s.st1[gfi[tail]] = IDLE
            self.busy_vcs -= n_tail

        counters = self.net.counters
        counters.buffer_reads += n
        counters.xbar_traversals += n
        counters.link_traversals += n_fwd


__all__ = ["VecStepper", "boundary_flit"]
