"""Batched VC-allocation and switch-allocation kernels.

Each function replays, with array ops across every router at once, the
exact decision sequence of the object engine's per-router loops.  Every
round-robin arbiter bank — VA per output, SA input-first and
output-first phases 1 and 2, the port-level matchers' per-port VC pick —
goes through the one primitive :func:`rr_arbitrate`.  The winner of a
round-robin arbiter minimizes ``(slot - pointer) mod n`` (exactly
:func:`repro.core.arbiter.rr_winner`; a drift-guard test pins the two
together), and because the pointer advances one past each winner, the
winners of successive rounds are simply the requesters in ascending
offset order.  Sorting requesters by ``(arbiter id, offset)`` therefore
yields every arbiter's full grant sequence in one argsort — group heads
are the round-1 winners, ranks within a group are round numbers.  Only
the requester encoding differs between the banks: which id is the group
(arbiter), which the slot, and the width.

Everything is addressed through the flat views and precomputed index
tables of :class:`~repro.sim.vec.state.SoAState`, its width-keyed
round-robin tables included: at these array sizes (a few thousand
elements) numpy per-op dispatch dominates, and single-array flat indexing
is several times cheaper than multi-axis fancy indexing, axis reductions
over request cubes, or ``%`` arithmetic.

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
:func:`rr_arbitrate`.  Wavefront's match is ``P`` waves of
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


def rr_arbitrate(s: SoAState, group, slot, ptr, width: int, rounds=None):
    """One bank of round-robin arbiters, every round at once.

    Requester ``i`` asks arbiter ``group[i]`` from slot ``slot[i]`` (slots
    are distinct within a group); ``ptr`` is the flat pointer array of the
    bank, indexed by group id, and ``width`` its arbiters' slot count.
    Requesters are sorted by ``(group, (slot - ptr) mod width)`` through
    the state's width-keyed ``rr`` tables, so each group's run lists its
    arbiter's winners round by round (see module docstring).

    Without ``rounds`` every arbiter grants one round: its pointer moves
    one past its group head, and the heads' requester indices come back,
    one per group, in group order.  With ``rounds`` (per-group round counts
    by group id, >= 1 for every group present) the pointer moves one past
    its last winner, and ``(order, rank)`` comes back: the sort permutation
    and the round each sorted requester wins, granted while ``rank <
    rounds``.
    """
    roll, inc = s.rr[width]
    order = np.argsort(group * width + roll[ptr[group] * width + slot])
    group = group[order]
    head = np.empty(group.size, dtype=bool)
    head[0] = True
    np.not_equal(group[1:], group[:-1], out=head[1:])
    if rounds is None:
        win = order[head]
        ptr[group[head]] = inc[slot[win]]
        return win
    idx = s._arN[: group.size]
    rank = idx - np.maximum.accumulate(np.where(head, idx, 0))
    last = rank == rounds[group] - 1
    ptr[group[last]] = inc[slot[order[last]]]
    return order, rank


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
    # Rounds run while the output has requesters AND free VCs: a pair
    # grants min(#requesters, #free) rounds, its pointer ending one past
    # the last winner (it rotated past each).
    rounds = np.minimum(np.bincount(pair, minlength=s.RP), s.nfree)
    order, rank = rr_arbitrate(s, pair, fi % PV, s.va_ptr1, PV, rounds)
    fi = fi[order]
    pair = pair[order]
    # Round-by-round VC choice: the policy consumes one free VC per grant,
    # so later rounds see the earlier choices.  Round 0 covers every
    # granting pair; later rounds only the (few) pairs with several
    # same-cycle heads for one output.
    gidx = np.flatnonzero(rank < rounds[pair])
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
    return gidx.size


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
    gs, Pk = s.gs, s.Pk
    if gs > 1:  # ideal VIX (gs == 1): every VC is a crossbar input and wins
        # Crossbar input p * k + j serves VCs [j * gs, (j + 1) * gs) of
        # port p, and V == k * gs, so VC fi sits in crossbar input fi // gs.
        win = rr_arbitrate(s, fi // gs, fi % gs, s.in_ptr1, gs)
        fi, out, po = fi[win], out[win], po[win]
    # Phase 2: outputs arbitrate among their offering crossbar inputs.
    win = rr_arbitrate(s, po, fi // gs % Pk, s.out_ptr1, Pk)
    return fi[win], out[win]


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
    V, PV = s.V, s.PV
    win = rr_arbitrate(s, po, fi % PV, s.of_out_ptr1, PV)
    # Phase 2: each input port arbitrates among the outputs offering to it
    # (the arbiter slot is the *output* id).
    wfi, wout = fi[win], out[win]
    win = rr_arbitrate(s, wfi // V, wout, s.of_in_ptr1, s.P)
    return wfi[win], wout[win]


def _sa_port_level(s: SoAState, match):
    """Skeleton of the port-level matchers (wavefront, augmenting-path).

    Scatters the request lines into the flat boolean ``(R, P, P)`` request
    matrix (cell ``(r * P + i) * P + o``: some VC of input port ``i`` of
    router ``r`` wants output ``o``), takes from ``match(s, req)`` the same
    matrix holding only each router's matched cells (at most one per row
    and column; ``req`` may be reused for it), then lets every matched
    input port round-robin among its VCs on the matched cell.  The port's
    V:1 arbiter rotates past its winner — ``RoundRobinArbiter.grant`` on
    the allocators' ``_vc_arbiters``, and the lone-winner rotation of their
    ``allocate_fast``.  Returns ``(flat VC index, output port)`` per grant.
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
    fi, out = fi[keep], out[keep]
    win = rr_arbitrate(s, ig[keep], fi % V, s.vc_ptr1, V)
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
    diag[busy] = s.rr[P][1][diag[busy]]
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
