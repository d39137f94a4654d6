"""Open-loop packet injection.

Every terminal runs an independent injection process:

* **Bernoulli** (default): each cycle a packet is generated with
  probability ``rate`` (packets/cycle/node).  ``rate >= 1`` models
  saturated sources (a packet every cycle, queue permitting), which is how
  the paper's "maximum injection rate" experiments are run.
* **Bursty** (``burst_length > 1``): a two-state Markov-modulated process
  alternating ON bursts (inject every cycle) and OFF gaps, with the same
  long-run average ``rate``.  Bursty arrivals are the standard stress for
  allocation schemes that rely on temporal locality (packet chaining) or
  suffer transient conflicts (plain separable allocators).
"""

from __future__ import annotations

import random

from repro.network.flit import Packet
from repro.network.network import Network
from repro.traffic.patterns import TrafficPattern


class TrafficInjector:
    """Bernoulli injector driving every terminal of a network."""

    def __init__(
        self,
        network: Network,
        pattern: TrafficPattern,
        rate: float,
        packet_length: int | None = None,
        seed: int | str = 1,
        burst_length: float = 1.0,
        terminals: tuple[int, ...] | None = None,
        pid_start: int = 0,
        pid_stride: int = 1,
    ) -> None:
        if rate < 0:
            raise ValueError(f"injection rate must be >= 0, got {rate}")
        if burst_length < 1.0:
            raise ValueError(f"burst_length must be >= 1, got {burst_length}")
        if pattern.num_terminals != network.config.num_terminals:
            raise ValueError(
                f"pattern sized for {pattern.num_terminals} terminals, "
                f"network has {network.config.num_terminals}"
            )
        self.network = network
        self.pattern = pattern
        self.rate = rate
        self.packet_length = (
            packet_length if packet_length is not None else network.config.packet_length
        )
        if self.packet_length < 1:
            raise ValueError(f"packet_length must be >= 1, got {self.packet_length}")
        self.rng = random.Random(seed)
        # Domain-restricted injection: a partitioned run gives each domain
        # its own injector over the terminals it owns, with an interleaved
        # pid space (start d, stride num_domains) so pids stay globally
        # unique and independent of execution mode.  The monolithic
        # defaults (all terminals, start 0, stride 1) change nothing.
        self._terminals = (
            tuple(terminals)
            if terminals is not None
            else tuple(range(network.config.num_terminals))
        )
        if pid_stride < 1:
            raise ValueError(f"pid_stride must be >= 1, got {pid_stride}")
        self._next_pid = pid_start
        self._pid_stride = pid_stride
        self.packets_created = 0
        self.packets_refused = 0
        #: Observer hook set by the simulation engine.
        self.stats = None
        # Two-state MMP: ON emits every cycle and exits with p_off;
        # OFF emits nothing and exits with p_on.  Mean ON spell is
        # burst_length; p_on is set so the duty cycle equals `rate`.
        self.burst_length = burst_length
        self._bursty = burst_length > 1.0 and 0.0 < rate < 1.0
        if self._bursty:
            self._p_off = 1.0 / burst_length
            mean_off = burst_length * (1.0 - rate) / rate
            self._p_on = 1.0 / mean_off
            self._on = {src: self.rng.random() < rate for src in self._terminals}

    def tick(self, cycle: int) -> int:
        """Generate this cycle's packets; returns how many were accepted."""
        rate = self.rate
        if rate == 0.0:
            # Injection disabled: nothing can ever be generated, so skip the
            # per-terminal loop entirely (the dense loop would draw no
            # observable randomness either — no injections consume it).
            return 0
        accepted = 0
        rng = self.rng
        saturated = rate >= 1.0
        bursty = self._bursty
        for src in self._terminals:
            if bursty:
                if self._on[src]:
                    emit = True
                    if rng.random() < self._p_off:
                        self._on[src] = False
                else:
                    emit = False
                    if rng.random() < self._p_on:
                        self._on[src] = True
                if not emit:
                    continue
            elif not saturated and rng.random() >= rate:
                continue
            if saturated and self.network.interfaces[src].queue_length >= 4:
                # Saturated sources keep a short standing backlog instead of
                # growing an unbounded queue; this does not change the
                # accepted-throughput measurement.
                continue
            accepted += self._emit(src, cycle)
        return accepted

    def _emit(self, src: int, cycle: int) -> int:
        """Generate one packet at ``src``; returns 1 if the NI accepted it."""
        dst = self.pattern.destination(src, self.rng)
        packet = Packet(self._next_pid, src, dst, self.packet_length, cycle)
        self._next_pid += self._pid_stride
        if self.network.inject(packet):
            self.packets_created += 1
            if self.stats is not None:
                self.stats.on_packet_created(packet)
            return 1
        self.packets_refused += 1
        return 0

    def next_active_cycle(self, now: int) -> int | None:
        """Earliest cycle >= ``now`` at which :meth:`tick` may do work.

        ``None`` means never (injection disabled).  Every other source
        draws randomness every cycle, so it reports ``now``.
        """
        return None if self.rate == 0.0 else now
