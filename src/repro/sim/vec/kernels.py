"""Batched VC-allocation and switch-allocation kernels.

Each function replays, with array ops across every router at once, the
exact decision sequence of the object engine's per-router loops.  The core
primitive is the batched round-robin grant over *sorted rolled offsets*:
the winner of a round-robin arbiter minimizes ``(slot - pointer) mod n``
(exactly :func:`repro.core.arbiter.rr_winner`; a drift-guard test pins the
two together), and because the pointer advances one past each winner, the
winners of successive rounds are simply the requesters in ascending offset
order.  Sorting requesters by ``(arbiter id, offset)`` therefore yields
every arbiter's full grant sequence in one argsort — group heads are the
round-1 winners, ranks within a group are round numbers.

Everything is addressed through the flat views and precomputed index/roll
tables of :class:`~repro.sim.vec.state.SoAState`: at these array sizes (a
few thousand elements) numpy per-op dispatch dominates, and single-array
flat indexing is several times cheaper than multi-axis fancy indexing or
axis reductions over request cubes.

Order independence, which is what makes batching legal:

* every VA requester targets exactly one output, so a VA round grants at
  most one winner per (router, output) and winners never collide;
* SA phase 1 winners are per crossbar input, phase 2 winners per output —
  a granted (input VC, output) pair is unique both ways;
* the port-level matchers (wavefront, augmenting-path) grant a matching
  over each router's own P x P request matrix — at most one cell per row
  and column — and the VC round-robin that follows runs per input port;
* per-router allocator state (pointers, credits) is only read and written
  by that router's own arbitration, so routers are independent within a
  cycle (the object engine's sorted-rid loop has no cross-router effect).

Only the VA VC *choice* stays sequential (the policy consumes one free
output VC per round), replayed round by round over arrays that shrink to
the few outputs with multiple same-cycle heads.

The port-level matchers share one skeleton: scatter the request lines into
a flat ``(R, P, P)`` 0/1 request matrix, match it per router, then let each
matched input port round-robin among its VCs on the matched cell through
the same sorted-offset primitive.  Wavefront's match is ``P`` waves of
row/column-free masking over every router at once; augmenting-path's is a
stateless function of the matrix, so each router's packed row is looked up
in a bounded memo (:data:`AP_MEMO_CAP`) on the ``SoAState`` and only a miss
runs :func:`repro.core.matching.kuhn_matching` — the object allocator's own
search, same ascending scan order, so Figure 9's unfairness carries over
by construction.
"""

from __future__ import annotations

import numpy as np

from repro.core.matching import kuhn_matching

from .state import ACTIVE, VA_WAIT, SoAState

#: Entries the augmenting-path memo of one ``SoAState`` may hold; reaching
#: it clears the memo (an 8x8-mesh saturation run sees a few thousand
#: distinct request matrices).
AP_MEMO_CAP = 1 << 14


def rr_pick(mask: np.ndarray, ptr: np.ndarray, n: int) -> np.ndarray:
    """Batched round-robin winner over the trailing axis.

    ``mask[..., n]`` holds the request lines, ``ptr[...]`` the pointers.
    The winner minimizes ``(slot - ptr) mod n`` among requesters — exactly
    :func:`repro.core.arbiter.rr_winner`.  Rows with no requester return 0;
    callers mask those out with ``mask.any(-1)``.  (Reference formulation;
    the production kernels use the sorted-offset form of the same rule.)
    """
    offsets = (np.arange(n) - ptr[..., None]) % n
    return np.where(mask, offsets, n).argmin(-1)


def select_max_credit(cand: np.ndarray, creds: np.ndarray) -> np.ndarray:
    """Vector :class:`~repro.core.vc_policy.MaxCreditPolicy`.

    ``cand[W, V]`` marks free VCs, ``creds[W, V]`` their credit counts.
    Most credits wins, ties to the lowest VC id (argmax takes the first
    maximum) — the object policy's strict-``>`` scan in VC order.
    """
    return np.where(cand, creds, -1).argmax(-1)


def select_vix_dimension(
    s: SoAState,
    cand: np.ndarray,
    creds: np.ndarray,
    direction: np.ndarray,
) -> np.ndarray:
    """Vector :class:`~repro.core.vc_policy.VixDimensionPolicy`.

    Groups the ``V = k * gs`` VCs into ``k`` sub-groups, prefers the group
    matching the downstream direction class (``direction``, -1 for "ejects
    downstream"), otherwise the group maximizing (candidate count, summed
    credits, lowest group id); within the group, most credits wins with
    ties to the lowest VC.

    The whole decision collapses to one argmax over a fused per-VC int64
    key: lexicographic (forced-group bonus, group score, -group id, local
    value) with the state's precomputed strides (``sumcap`` > any credit
    sum ranks candidate count above summed credits inside the group score;
    ``vix_bonus`` only lifts a direction's preferred group, so a forced
    group with no candidate — all its keys masked to -1 — falls back to
    the score ordering, exactly the object policy's ``score > 0`` test).
    Ties resolve to the first maximum = lowest VC of the lowest group.
    """
    val = np.where(cand, creds + s.sumcap, 0)
    score = val @ s.grp_mat
    key = score[:, s.gof] * s._m2 + (s.gtb + val) + s.vix_bonus[direction + 1]
    return np.where(cand, key, -1).argmax(-1)


def _group_heads(key_sorted: np.ndarray) -> np.ndarray:
    """Boolean mask of the first element of each run in a sorted key array."""
    head = np.empty(key_sorted.size, dtype=bool)
    head[0] = True
    np.not_equal(key_sorted[1:], key_sorted[:-1], out=head[1:])
    return head


def va_kernel(s: SoAState) -> int:
    """One cycle of VC allocation across every router; returns #granted.

    Replays ``Router.vc_allocate``: per (router, output) the round-robin
    arbiter picks one VA_WAIT head per round (pointer rotating past every
    winner), the VC policy assigns a free output VC, and rounds repeat
    while the output still has both a requester and a free VC.  Requesters
    left over when an output's VCs run out stay VA_WAIT for next cycle.

    The winners of all rounds and the final pointers come from one sort by
    rolled offset (see module docstring); only the per-round VC choice
    iterates, over the pairs still granting in that round.
    """
    PV, P, V = s.PV, s.P, s.V
    fi = np.flatnonzero(s.st1 == VA_WAIT)
    if fi.size == 0:
        return 0
    pair = (fi // PV) * P + s.outp1[fi]
    # Outputs with no free VC run no arbitration at all (no pointer
    # rotation, no grant) — drop their requesters up front.  At saturation
    # this is the overwhelming majority of the VA_WAIT set.
    ok = s.nfree[pair] > 0
    if not ok.all():
        fi = fi[ok]
        pair = pair[ok]
        if fi.size == 0:
            return 0
    slot = fi % PV
    off = s.roll_va1[s.va_ptr1[pair] * PV + slot]
    # Offsets are unique within a pair, so this key has no ties and the
    # sort groups requesters by pair in round (offset) order.
    order = np.argsort(pair * PV + off)
    fi = fi[order]
    pair = pair[order]
    slot = slot[order]
    # Rank within the pair group = the round this requester would win.
    idx = s._arN[: pair.size]
    rank = idx - np.maximum.accumulate(np.where(_group_heads(pair), idx, 0))
    # Rounds run while the output has requesters AND free VCs: this pair
    # grants min(#requesters, #free) rounds, in rank order.
    nwin = np.minimum(np.bincount(pair, minlength=s.RP), s.nfree)[pair]
    granted = rank < nwin
    ngrant = int(granted.sum())
    if ngrant == 0:
        return 0
    # The pointer ends one past the last winner (it rotated past each).
    last = granted & (rank == nwin - 1)
    s.va_ptr1[pair[last]] = s.inc_va[slot[last]]
    # Round-by-round VC choice: the policy consumes one free VC per grant,
    # so later rounds see the earlier choices.  Round 0 covers every
    # granting pair; later rounds only the (few) pairs with several
    # same-cycle heads for one output.
    gidx = np.flatnonzero(granted)
    r = 0
    while True:
        sel = gidx[rank[gidx] == r]
        if sel.size == 0:
            break
        gp = pair[sel]
        gfi = fi[sel]
        cols = (gp * V)[:, None] + s._arV
        cand = ~s.oalloc1[cols]
        if (s.nfree[gp] == 1).all():
            # Single free VC everywhere: the choice is forced, exactly as
            # the object router's lone-candidate shortcut (every policy
            # returns the only candidate).  The common case at saturation,
            # where grants chase individual credit releases.
            choice = cand.argmax(-1)
        elif s.policy_vix:
            # Lookahead: the downstream router's class toward dst's router.
            direction = s.hop_cls1[s.la_row[gp] + s.dst1[gfi]]
            choice = select_vix_dimension(s, cand, s.ocred1[cols], direction)
        else:
            choice = select_max_credit(cand, s.ocred1[cols])
        s.oalloc1[gp * V + choice] = True
        s.nfree[gp] -= 1
        s.st1[gfi] = ACTIVE
        s.outv1[gfi] = choice
        if sel.size == gidx.size:
            break
        r += 1
    return ngrant


def _sa_requests(s: SoAState):
    """Switch-allocation request lines: ACTIVE, buffered, and creditable.

    Returns flat VC index, assigned output port, and (router, output) pair
    id per request.  The credit test covers ejection too: local output
    ports never spend credits, so their count stays at ``buffer_depth``
    (>= 1) and the NI always sinks.
    """
    fi = np.flatnonzero((s.st1 == ACTIVE) & (s.occ1 > 0))
    if fi.size == 0:
        return None
    out = s.outp1[fi]
    po = (fi // s.PV) * s.P + out
    ok = s.ocred1[po * s.V + s.outv1[fi]] > 0
    if not ok.all():
        fi, out, po = fi[ok], out[ok], po[ok]
        if fi.size == 0:
            return None
    return fi, out, po


def sa_input_first(s: SoAState):
    """Input-first / VIX switch allocation (``SeparableInputFirstAllocator``).

    Phase 1: each crossbar input (``P * k`` per router, ``gs`` VCs each)
    round-robins among its requesting VCs.  Phase 2: each output
    round-robins among the crossbar inputs whose phase-1 winner wants it.
    Both pointers rotate whenever the arbiter saw any requester, matching
    the plain-pointer object allocator on every path (fast, single-dirty,
    and general).  Returns ``(flat VC index, output port)`` per grant.
    """
    sel = _sa_requests(s)
    if sel is None:
        return None
    fi, out, po = sel
    k, gs, Pk, V, PV = s.k, s.gs, s.Pk, s.V, s.PV
    if gs == 1:
        # Ideal VIX: one VC per crossbar input (k == V, so the global
        # crossbar-input id collapses to the flat VC index) — every
        # requester wins its own phase-1 arbiter and the width-1 pointer
        # rotation (0 + 1) % 1 is a no-op.
        wfi, wout, wpo, wg = fi, out, po, fi % PV
    else:
        vv = fi % V
        lv = vv % gs
        gg = (fi // V) * k + vv // gs  # global crossbar-input id
        off = s.roll_p1_1[s.in_ptr1[gg] * gs + lv]
        order = np.argsort(gg * gs + off)
        head = _group_heads(gg[order])
        win = order[head]
        # Every group present rotated its arbiter (one winner per group).
        s.in_ptr1[gg[win]] = s.inc_p1[lv[win]]
        wfi, wout, wpo = fi[win], out[win], po[win]
        wg = gg[win] % Pk
    # Phase 2: outputs arbitrate among their offering crossbar inputs.
    off2 = s.roll_p2_1[s.out_ptr1[wpo] * Pk + wg]
    order2 = np.argsort(wpo * Pk + off2)
    head2 = _group_heads(wpo[order2])
    win2 = order2[head2]
    s.out_ptr1[wpo[win2]] = s.inc_p2[wg[win2]]
    return wfi[win2], wout[win2]


def sa_output_first(s: SoAState):
    """Output-first switch allocation (``SeparableOutputFirstAllocator``).

    Phase 1: each output round-robins among **all** requesting (port, vc)
    lines within the router.  Phase 2: each input port round-robins among
    the outputs that picked one of its VCs (OF always runs a conventional
    k=1 crossbar input per port).  Returns ``(flat VC index, output port)``.
    """
    sel = _sa_requests(s)
    if sel is None:
        return None
    fi, out, po = sel
    V, P, PV = s.V, s.P, s.PV
    slot = fi % PV
    off = s.roll_of1_1[s.of_out_ptr1[po] * PV + slot]
    order = np.argsort(po * PV + off)
    head = _group_heads(po[order])
    win = order[head]
    s.of_out_ptr1[po[win]] = s.inc_of1[slot[win]]
    # Phase 2: each input port arbitrates among the outputs offering to it
    # (the arbiter slot is the *output* id).
    wfi, wout = fi[win], out[win]
    ig = wfi // V  # flat (router, input port) id
    off2 = s.roll_of2_1[s.of_in_ptr1[ig] * P + wout]
    order2 = np.argsort(ig * P + off2)
    head2 = _group_heads(ig[order2])
    win2 = order2[head2]
    s.of_in_ptr1[ig[win2]] = s.inc_of2[wout[win2]]
    return wfi[win2], wout[win2]


def _sa_port_level(s: SoAState, match):
    """Skeleton of the port-level matchers (wavefront, augmenting-path).

    Scatters the request lines into the flat boolean ``(R, P, P)`` request
    matrix (cell ``(r * P + i) * P + o``: some VC of input port ``i`` of
    router ``r`` wants output ``o``), takes from ``match(s, req)`` the same
    matrix holding only each router's matched cells (at most one per row
    and column; ``req`` may be reused for it), then lets every matched
    input port round-robin among its VCs on the matched cell.  The port's V:1 arbiter rotates past its winner —
    ``RoundRobinArbiter.grant`` on the allocators' ``_vc_arbiters``, and
    the lone-winner rotation of their ``allocate_fast``.  Returns ``(flat
    VC index, output port)`` per grant.
    """
    sel = _sa_requests(s)
    if sel is None:
        return None
    fi, out, _ = sel
    V = s.V
    ig = fi // V  # flat (router, input port) id
    cell = ig * s.P + out
    req = np.zeros(s.R * s.P * s.P, dtype=bool)
    req[cell] = True
    keep = match(s, req)[cell]
    fi, out, ig = fi[keep], out[keep], ig[keep]
    vc = fi % V
    off = s.roll_vc1[s.vc_ptr1[ig] * V + vc]
    order = np.argsort(ig * V + off)
    win = order[_group_heads(ig[order])]
    s.vc_ptr1[ig[win]] = s.inc_vc[vc[win]]
    return fi[win], out[win]


def _wavefront_match(s: SoAState, req: np.ndarray) -> np.ndarray:
    """Rotating-diagonal sweep of every router's request matrix at once.

    Wave ``w`` of router ``r`` visits the anti-diagonal ``(i + o) % P ==
    (diag[r] + w) % P``; its cells share no row or column, so every
    requested cell whose row and column are still free is granted at once
    — the object allocator's per-input scan of a wave is order-free.  With
    outputs counted from the router's own diagonal, ``o' = (o - diag[r]) %
    P``, wave ``w`` pairs input ``i`` with ``o' = (w - i) % P`` at every
    router, so the column-free mask is read and written through one static
    permutation per wave.  The priority diagonal advances exactly when the
    router had a request (the router calls neither ``allocate`` nor
    ``allocate_fast`` otherwise).
    """
    R, P = s.R, s.P
    diag = s.wf_diag
    # swept[w * P + i, r]: flat cell input i of router r visits on wave w.
    swept = s.wf_cell[:, diag]
    swept += s.cell_base
    busy = req.reshape(R, P * P).any(1)
    diag[busy] = s.inc_wf[diag[busy]]
    grant = req[swept]
    waves = grant.reshape(P, P, R)
    row_free = np.ones((P, R), dtype=bool)
    col_free = np.ones((P, R), dtype=bool)  # indexed by o'
    for w in range(P):
        g = waves[w]
        visit = s.wf_visit[w]
        free = col_free[visit]
        g &= row_free
        g &= free
        row_free ^= g
        free ^= g
        col_free[visit] = free
    req[:] = False
    req[swept[grant]] = True
    return req


def sa_wavefront(s: SoAState):
    """Wavefront switch allocation (``WavefrontAllocator``)."""
    return _sa_port_level(s, _wavefront_match)


def _kuhn_solve(key: bytes, P: int) -> bytes:
    """Maximum matching of one packed request matrix, as int16 bytes.

    Element ``i`` is the output matched to input port ``i`` or -1 —
    ``kuhn_matching`` over ascending adjacency lists, exactly what
    ``AugmentingPathAllocator.allocate`` computes.
    """
    # packbits is big-endian: cell c of the matrix is bit (top - c).
    bits = int.from_bytes(key, "big")
    top = 8 * len(key) - 1
    adj = [
        [o for o in range(P) if bits >> (top - i * P - o) & 1] for i in range(P)
    ]
    return np.array(kuhn_matching(P, P, adj), dtype=np.int16).tobytes()


def _kuhn_match(s: SoAState, req: np.ndarray) -> np.ndarray:
    """Maximum matching per router, through the state's bounded memo.

    The matching is a pure function of the router's request matrix: each
    requesting router's bit-packed matrix keys ``s.ap_memo``, whose values
    are immutable ``bytes``; only a miss runs the search.
    """
    R, P = s.R, s.P
    packed = np.packbits(req.reshape(R, P * P), axis=1)
    rids = np.flatnonzero(packed.any(1))
    raw = packed[rids].tobytes()
    width = packed.shape[1]
    memo = s.ap_memo
    matches = []
    for start in range(0, len(raw), width):
        key = raw[start : start + width]
        match = memo.get(key)
        if match is None:
            match = _kuhn_solve(key, P)
            if len(memo) >= AP_MEMO_CAP:
                memo.clear()
            memo[key] = match
        matches.append(match)
    # outs[n, i]: output matched to input port i of router rids[n], or -1.
    outs = np.frombuffer(b"".join(matches), dtype=np.int16).reshape(-1, P)
    cells = (rids[:, None] * P + s._arN[:P]) * P + outs
    req[:] = False
    req[cells[outs >= 0]] = True
    return req


def sa_augmenting_path(s: SoAState):
    """Augmenting-path switch allocation (``AugmentingPathAllocator``)."""
    return _sa_port_level(s, _kuhn_match)
