"""Parallel domain stepping: forked workers, epoch barriers, ferrying.

The coordinator forks one process per worker (fork start method — the
fully built :class:`~repro.sim.partition.engine.PartitionedSimulation`
is inherited, nothing is re-constructed) and assigns each a block of
domains.  Execution alternates:

1. every worker advances its domains ``step <= E`` lockstep cycles,
   where ``E`` is the conservative epoch (min over links of
   ``min(pipeline + latency, credit_delay + credit_latency)``); boundary
   messages for remote domains buffer in link outboxes;
2. at the barrier the coordinator ferries each outbox message to the
   worker owning its target side (flits to the destination domain,
   credits to the source domain), which schedules it into the local
   event wheel.

Safety is the standard conservative-PDES argument: a message generated
at cycle ``t`` in ``[T, T+step)`` is scheduled for ``t + delay >= T +
E >= T + step``, i.e. strictly in the receiving worker's future at
ingest time.  Links between two domains of the *same* worker keep both
sides local and deliver directly, exactly like serial mode.

Statistics: each worker runs a :class:`WindowStats` collector.  It
differs from the shared serial collector only in bookkeeping — a packet
may be created in one worker and ejected in another, so measured-ness
is keyed by ``created_cycle`` (carried by the packet across the link)
instead of a pid set, and the drain criterion becomes the coordinator's
reduction ``sum(created) - sum(delivered)``.  The reported numbers are
identical to serial mode: latency sums are exact integer arithmetic,
per-source arrays add elementwise, and same-slot event order (the only
thing barrier ferrying can reorder) is commutative for every reported
metric.
"""

from __future__ import annotations

import multiprocessing as mp
import time

from repro.network.links import MSG_FLIT
from repro.parallel.faults import inject_fault
from repro.sim.runloop import assemble_result
from repro.sim.stats import StatsCollector


class WindowStats(StatsCollector):
    """Per-worker collector: window membership via ``created_cycle``.

    ``_outstanding`` stays empty (drain is a coordinator-side reduction
    over per-worker counts); a packet's latency is recorded by whichever
    worker ejects it, using the creation window test the shared serial
    collector implements with its pid set.
    """

    window_by_creation = True

    def on_packet_created(self, packet) -> None:
        if self._in_window(packet.created_cycle):
            self.packets_created += 1
            self.per_source_created[packet.src] += 1

    def on_packet_ejected(self, packet, cycle: int) -> None:
        if self._in_window(cycle):
            self.packets_ejected += 1
            self.per_source_ejected[packet.src] += 1
        if self._in_window(packet.created_cycle):
            self.latencies.append(cycle - packet.created_cycle)


def _worker_main(sim, domain_ids, conn, worker_index: int) -> None:
    """Child process: step owned domains, speak the barrier protocol."""
    inject_fault(worker_index, 0)
    owned = set(domain_ids)
    rd = sim.plan.router_domain
    stats = WindowStats(sim.config.num_terminals)
    domains = [sim.domains[d] for d in domain_ids]
    injectors = [sim.injectors[d] for d in domain_ids]
    for dom in domains:
        dom.stats = stats
        dom.tracer = None
    for inj in injectors:
        inj.stats = stats
    # Sever the remote side of every boundary link: sends for an unowned
    # side buffer in the outbox instead of touching a peer's wheel.
    touched = []
    for link in sim.links:
        src_owned = rd[link.spec.src_router] in owned
        dst_owned = rd[link.spec.dst_router] in owned
        if not src_owned:
            link.src_net = None
        if not dst_owned:
            link.dst_net = None
        if src_owned or dst_owned:
            touched.append(link)
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            # Coordinator died (or tore down after its own failure): the
            # pipe's far end is gone, so exit instead of blocking forever.
            return
        op = msg[0]
        if op == "advance":
            for _ in range(msg[1]):
                sim.step_domains(injectors, domains)
            out = {}
            for link in touched:
                if link.outbox:
                    out[link.link_id] = link.drain_outbox()
            conn.send(out)
        elif op == "ingest":
            for link_id, messages in msg[1].items():
                sim.links[link_id].ingest(messages)
        elif op == "open_window":
            stats.open_window(msg[1], msg[2])
        elif op == "counts":
            conn.send((stats.packets_created, len(stats.latencies)))
        elif op == "finalize":
            conn.send(
                {
                    "stats": {
                        "latencies": stats.latencies,
                        "flits_ejected": stats.flits_ejected,
                        "packets_ejected": stats.packets_ejected,
                        "packets_created": stats.packets_created,
                        "per_source_ejected": stats.per_source_ejected,
                        "per_source_created": stats.per_source_created,
                    },
                    "counters": {
                        d: sim.domains[d].counter_snapshot() for d in domain_ids
                    },
                    "link_flits": {
                        link.link_id: link.flits_carried
                        for link in touched
                        if link.src_net is not None
                    },
                    "link_credits": {
                        link.link_id: link.credits_returned
                        for link in touched
                        if link.dst_net is not None
                    },
                }
            )
        elif op == "stop":
            conn.close()
            return


def run_partitioned_workers(sim, warmup: int, measure: int, drain_limit: int):
    """Coordinate a worker-process run; returns a SimulationResult."""
    num_domains = sim.plan.num_domains
    num_workers = sim._workers
    # Block assignment: domain d -> worker d * W // N keeps blocks
    # contiguous and sizes within one of each other.
    owner_of = [d * num_workers // num_domains for d in range(num_domains)]
    groups = [[] for _ in range(num_workers)]
    for d, w in enumerate(owner_of):
        groups[w].append(d)
    rd = sim.plan.router_domain
    ctx = mp.get_context("fork")
    conns, procs = [], []
    for worker_index, group in enumerate(groups):
        parent, child = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main, args=(sim, group, child, worker_index), daemon=True
        )
        proc.start()
        child.close()
        conns.append(parent)
        procs.append(proc)

    def _dead_worker_error(w: int, cause: BaseException) -> RuntimeError:
        proc = procs[w]
        proc.join(timeout=1.0)
        code = proc.exitcode
        detail = f"exit code {code}" if code is not None else "still running"
        return RuntimeError(
            f"partition worker {w} (domains {groups[w]}) died mid-run "
            f"({detail}); aborting the partitioned run"
        )

    def _send(w: int, msg) -> None:
        try:
            conns[w].send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise _dead_worker_error(w, exc) from exc

    def _recv(w: int):
        try:
            return conns[w].recv()
        except (EOFError, OSError) as exc:
            # EOFError for a clean close, ConnectionResetError (an
            # OSError) when the worker died with data in flight.
            raise _dead_worker_error(w, exc) from exc

    cycle = sim.cycle
    epoch = sim._epoch
    try:

        def advance(cycles: int) -> None:
            nonlocal cycle
            remaining = cycles
            while remaining > 0:
                step = min(epoch, remaining)
                for w in range(num_workers):
                    _send(w, ("advance", step))
                outs = [_recv(w) for w in range(num_workers)]
                routed = [dict() for _ in conns]
                for out in outs:
                    for link_id, messages in out.items():
                        spec = sim.links[link_id].spec
                        flit_worker = owner_of[rd[spec.dst_router]]
                        credit_worker = owner_of[rd[spec.src_router]]
                        for message in messages:
                            target = (
                                flit_worker
                                if message[0] == MSG_FLIT
                                else credit_worker
                            )
                            routed[target].setdefault(link_id, []).append(message)
                for w in range(num_workers):
                    if routed[w]:
                        _send(w, ("ingest", routed[w]))
                remaining -= step
                cycle += step

        def outstanding() -> int:
            for w in range(num_workers):
                _send(w, ("counts",))
            created = delivered = 0
            for w in range(num_workers):
                c, d = _recv(w)
                created += c
                delivered += d
            return created - delivered

        advance(warmup)
        start = cycle
        for w in range(num_workers):
            _send(w, ("open_window", start, start + measure))
        advance(measure)
        drained_cycles = 0
        while drained_cycles < drain_limit and outstanding() > 0:
            chunk = min(epoch, drain_limit - drained_cycles)
            advance(chunk)
            drained_cycles += chunk
        for w in range(num_workers):
            _send(w, ("finalize",))
        payloads = [_recv(w) for w in range(num_workers)]
    finally:
        # Teardown order matters: signal every worker to exit *before*
        # the first join.  Joining first deadlocked on failure — a worker
        # blocked in recv() never exits, so each join burned its full
        # timeout (30s per worker) before anything closed its pipe.
        for conn in conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass  # already dead or closed — that's fine, it can't hang
        for conn in conns:
            conn.close()
        # Closed pipes wake any worker blocked in recv() (EOFError -> its
        # main returns), so the whole pool drains within one shared
        # deadline instead of 30s per straggler.
        deadline = time.monotonic() + 4.0
        for proc in procs:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            if proc.is_alive():
                proc.join(timeout=1.0)

    merged = StatsCollector(sim.config.num_terminals)
    merged.open_window(start, start + measure)
    for payload in payloads:
        s = payload["stats"]
        merged.latencies.extend(s["latencies"])
        merged.flits_ejected += s["flits_ejected"]
        merged.packets_ejected += s["packets_ejected"]
        merged.packets_created += s["packets_created"]
        for i, v in enumerate(s["per_source_ejected"]):
            merged.per_source_ejected[i] += v
        for i, v in enumerate(s["per_source_created"]):
            merged.per_source_created[i] += v
    drained = merged.packets_created - len(merged.latencies) == 0
    by_domain: dict[int, dict] = {}
    interchip_flits = interchip_credits = 0
    for payload in payloads:
        by_domain.update(payload["counters"])
        interchip_flits += sum(payload["link_flits"].values())
        interchip_credits += sum(payload["link_credits"].values())
    snapshots = [by_domain[d] for d in range(num_domains)]
    counters = sim.aggregate_counters(
        snapshots,
        interchip_flits=interchip_flits,
        interchip_credits=interchip_credits,
    )
    return assemble_result(sim, merged, counters, cycles=cycle, drained=drained)


__all__ = ["WindowStats", "run_partitioned_workers"]
