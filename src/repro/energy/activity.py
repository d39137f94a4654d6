"""Activity counters collected from cycle-accurate simulation.

The paper's energy methodology (Section 3): "The activity factor of links,
buffers and switches were collected from cycle-accurate simulations and
integrated with component models to determine the overall network energy
consumption."  The network increments these counters as it moves flits; the
energy model multiplies them by per-event energy constants.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class ActivityCounters:
    """Per-simulation event counts for the energy model."""

    #: Flits written into router input buffers.
    buffer_writes: int = 0
    #: Flits read out of router input buffers (switch traversals start here).
    buffer_reads: int = 0
    #: Flits that crossed a crossbar.
    xbar_traversals: int = 0
    #: Flits that crossed an inter-router link.
    link_traversals: int = 0
    #: Flits delivered to destination NIs.
    flits_ejected: int = 0
    #: Packets delivered (tail flits ejected).
    packets_ejected: int = 0
    #: Simulated cycles (fast-forwarded cycles included).
    cycles: int = 0
    #: Sleeping routers moved to the active set (idle-to-busy transitions).
    router_wakeups: int = 0
    #: Cycles the engine fast-forwarded instead of stepping (subset of
    #: ``cycles``; they contribute static energy but no activity).
    cycles_skipped: int = 0

    @classmethod
    def from_counters(cls, counters: dict) -> "ActivityCounters":
        """Build from a result's ``counters`` dict, declared fields only.

        A ``SimulationResult.counters`` dict also carries whatever the
        engine that ran it reports about itself (``vec_kernel_cycles``,
        profile spans, ``partition_*`` keys); the energy model has no use
        for those.
        """
        return cls(
            **{f.name: counters[f.name] for f in fields(cls) if f.name in counters}
        )

    def reset(self) -> None:
        """Zero every counter."""
        self.buffer_writes = 0
        self.buffer_reads = 0
        self.xbar_traversals = 0
        self.link_traversals = 0
        self.flits_ejected = 0
        self.packets_ejected = 0
        self.cycles = 0
        self.router_wakeups = 0
        self.cycles_skipped = 0

    def snapshot(self) -> dict[str, int]:
        """Counter values as a plain dict (for reports and tests)."""
        return {
            "buffer_writes": self.buffer_writes,
            "buffer_reads": self.buffer_reads,
            "xbar_traversals": self.xbar_traversals,
            "link_traversals": self.link_traversals,
            "flits_ejected": self.flits_ejected,
            "packets_ejected": self.packets_ejected,
            "cycles": self.cycles,
            "router_wakeups": self.router_wakeups,
            "cycles_skipped": self.cycles_skipped,
        }
