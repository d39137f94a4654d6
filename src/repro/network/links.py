"""Inter-chip links: the channels joining partitioned simulation domains.

When a :class:`~repro.topology.partition.PartitionPlan` cuts a topology
link, the two router ports it joined end up in different domain
:class:`~repro.network.network.Network` instances.  An
:class:`InterChipLink` replaces the direct wiring with an explicit
channel that keeps the credit loop *closed* across the cut:

* **forward** — a flit granted at the source router's boundary output
  port is serialized onto the link and arrives at the destination
  domain's input buffer after ``pipeline_stages + latency`` cycles
  (``latency`` = 0 reproduces the monolithic on-chip hop exactly);
* **reverse** — when the destination router forwards the flit onward,
  the freed buffer slot's credit travels back after ``credit_delay +
  credit_latency`` cycles and lands on the *source-side* port's credit
  counter (the port the source domain's ``egress_port`` names: an
  :class:`~repro.network.router.OutputPort` on object domains, a row of
  the SoA credit tensor on kernel domains).

Because the source port's credit counter still mirrors the destination
buffer depth exactly (only with longer loop delay), partitioning can
never overrun a buffer or introduce artificial deadlock beyond what the
added latency implies — the boundary credit contract of the ARCHITECTURE
doc, and the property the partition invariants check cycle by cycle.

``width`` models a narrow inter-chip channel as a serialization factor:
``0``/``1`` transfer one flit per cycle (an on-chip-width link), ``k >
1`` occupies the link for ``k`` cycles per flit (a ``k``:1 narrower
SerDes), back-pressuring through the ordinary credit loop.

Transport is split per side so the same class serves in-process
round-robin stepping (both domain networks local: events are scheduled
straight into the peer's wheel) and the epoch-synchronized worker mode
(the remote side is ``None``: messages buffer in ``outbox`` and the
coordinator ferries them at epoch barriers).

There is one link model: :class:`PartitionConfig` carries its latency,
width and credit latency, and :meth:`PartitionConfig.link_config` builds
the :class:`LinkConfig` every cut link of a run shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import settings

#: Event kinds, mirroring :mod:`repro.network.network` (kept in sync by
#: ``tests/network/test_links.py``; duplicating the ints avoids a cycle).
_ARRIVAL = 0
_CREDIT = 1

#: Outbox message kinds for the worker-mode transport.
MSG_FLIT = 0
MSG_CREDIT = 1


@dataclass(frozen=True)
class LinkConfig:
    """Timing/width model of an inter-chip link."""

    #: Extra forward cycles on top of the router pipeline (0 = on-chip hop).
    latency: int = 0
    #: Serialization factor: 0/1 = one flit per cycle, k>1 = one flit
    #: every k cycles (a k:1 narrower inter-chip channel).
    width: int = 0
    #: Extra cycles on the returning credit; ``None`` mirrors ``latency``
    #: (the usual symmetric-channel assumption).
    credit_latency: int | None = None

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError(f"link latency must be >= 0, got {self.latency}")
        if self.width < 0:
            raise ValueError(f"link width factor must be >= 0, got {self.width}")
        if self.credit_latency is not None and self.credit_latency < 0:
            raise ValueError(
                f"link credit latency must be >= 0, got {self.credit_latency}"
            )

    @property
    def effective_credit_latency(self) -> int:
        return self.latency if self.credit_latency is None else self.credit_latency

    def min_cross_delay(self, pipeline_stages: int, credit_delay: int) -> int:
        """Earliest cycles-after-send any effect crosses this link.

        The safe epoch for conservatively-synchronized parallel domain
        stepping: a message generated at cycle ``t`` can influence the
        peer domain no earlier than ``t + min_cross_delay``.
        """
        return min(
            pipeline_stages + self.latency,
            credit_delay + self.effective_credit_latency,
        )


@dataclass(frozen=True)
class PartitionConfig:
    """How a simulation is decomposed into chiplet domains.

    ``workers`` selects execution only (1 = serial round-robin, N/"auto"
    = epoch-synchronized worker processes); results are identical either
    way, so it is excluded from cache identities.
    """

    #: Partition grid ``(px, py)`` of equal router rectangles
    #: (:func:`~repro.topology.partition.grid_partition`); ``(1, 1)`` =
    #: monolithic-equivalent.
    dims: tuple[int, int] = (2, 2)
    #: Extra forward cycles on a cut link (0 = an on-chip hop).
    link_latency: int = 0
    #: Serialization factor of a cut link (0/1 = full width).
    link_width: int = 0
    #: Extra cycles on the returning credit; ``None`` mirrors
    #: ``link_latency`` (the symmetric-channel default).
    link_credit_latency: int | None = None
    #: Engine stepping each domain: "gated", "dense", or "vectorized" (the
    #: SoA kernel via :class:`repro.sim.vec.domain.VecDomain`; requires
    #: numpy and a vectorizable scheme).  ``None`` names none: the run
    #: takes the kernel where it can run and pays, gated domains elsewhere
    #: (:func:`repro.sim.engines.resolve_domain_engine`).
    domain_engine: str | None = None
    #: Worker processes for domain stepping: int or "auto" (1 = in-process).
    workers: int | str = 1

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 2 or dims[0] < 1 or dims[1] < 1:
            raise ValueError(f"partition dims must be (px>=1, py>=1), got {self.dims}")
        object.__setattr__(self, "dims", dims)
        if self.domain_engine is not None:
            engine = self.domain_engine.strip().lower()
            if engine not in ("gated", "dense", "vectorized"):
                raise ValueError(
                    f"domain_engine must be 'gated', 'dense', or 'vectorized', "
                    f"got {self.domain_engine!r}"
                )
            object.__setattr__(self, "domain_engine", engine)

    def link_config(self) -> LinkConfig:
        """The :class:`LinkConfig` for this partition's cut links."""
        return LinkConfig(
            latency=self.link_latency,
            width=self.link_width,
            credit_latency=self.link_credit_latency,
        )

    def spec(self) -> dict:
        """Semantic content for cache keys (``workers`` excluded).

        The domain engine is recorded as named (``None`` when unnamed), the
        rule :meth:`SimJob.key` follows for ``engine``.
        """
        return {
            "dims": list(self.dims),
            "link_latency": self.link_latency,
            "link_width": self.link_width,
            "link_credit_latency": self.link_credit_latency,
            "domain_engine": self.domain_engine,
        }

    @classmethod
    def from_env(cls) -> "PartitionConfig":
        """Resolve from the environment (used when ``REPRO_ENGINE=
        partitioned`` selects the engine without an explicit config).

        ``REPRO_PARTITION`` is the grid ("2x2", "1x1", ...) and
        ``REPRO_DOMAIN_ENGINE`` the per-domain engine (see
        :mod:`repro.settings`); every other field keeps its default.
        """
        return cls(
            dims=settings.get("REPRO_PARTITION"),
            domain_engine=settings.get("REPRO_DOMAIN_ENGINE"),
        )


class LinkIngress:
    """Upstream credit sink standing in for a cut link at an input port.

    Installed as ``router.upstream[port]`` at the destination side of a
    cut: when the destination router frees a buffer slot, the grant loop
    routes the credit here (recognised by ``owner == -2``) instead of
    scheduling it locally, and the link carries it back to the source
    domain's output port.
    """

    __slots__ = ("link",)

    #: Sentinel distinguishing a link ingress from router output ports
    #: (owner >= 0 / -1) and NIs (owner -1) in the grant hot loop.
    owner = -2

    def __init__(self, link: "InterChipLink") -> None:
        self.link = link

    def send_credit(self, now: int, vc: int, release: bool) -> None:
        self.link.send_credit(now, vc, release)


class InterChipLink:
    """One cut topology link, realised as an explicit inter-chip channel.

    Each side that is *local* (its domain network lives in this process)
    is wired directly; a ``None`` side buffers messages in :attr:`outbox`
    for the epoch coordinator to ferry.  In-process stepping sets both
    sides, so the outbox stays empty and events land straight in the
    peer's wheel — safe under round-robin domain order because every
    delivery lies at least one cycle in the future (``pipeline_stages >=
    1`` and ``credit_delay >= 1``).
    """

    __slots__ = (
        "link_id",
        "spec",
        "config",
        "src_net",
        "dst_net",
        "outbox",
        "flits_carried",
        "credits_returned",
        "_pipe",
        "_credit_delay",
        "_credit_latency",
        "_src_port",
        "_slot",
        "_slot_free",
    )

    def __init__(
        self,
        link_id: int,
        spec,
        config: LinkConfig,
        *,
        src_net=None,
        dst_net=None,
    ) -> None:
        self.link_id = link_id
        self.spec = spec
        self.config = config
        self.src_net = src_net
        self.dst_net = dst_net
        #: Messages for the remote side(s), drained at epoch barriers.
        self.outbox: list[tuple] = []
        self.flits_carried = 0
        self.credits_returned = 0
        net = src_net if src_net is not None else dst_net
        rc = net.config.router
        self._pipe = rc.pipeline_stages
        self._credit_delay = rc.credit_delay
        self._credit_latency = config.effective_credit_latency
        #: Where returning credits land: the source domain's boundary port
        #: (the domain's ``attach_egress`` hooks the port to this link).
        self._src_port = src_net.egress_port(spec) if src_net is not None else None
        # Serialization state: the cycle the link is next free to accept
        # a flit (width-factor model; unused at width <= 1).
        self._slot = -1
        self._slot_free = 0

    # --- forward channel ---------------------------------------------------

    def _serialize(self, now: int) -> int:
        """The cycle this flit occupies the link (width back-pressure)."""
        width = self.config.width
        if width <= 1:
            return now
        slot = self._slot_free if self._slot_free > now else now
        self._slot_free = slot + width
        return slot

    def send_flit(self, now: int, vc: int, flit) -> None:
        """Source side: carry one granted flit toward the destination."""
        when = self._serialize(now) + self._pipe + self.config.latency
        self.flits_carried += 1
        # In-flight accounting migrates with the flit so each domain's
        # counter stays meaningful and the global sum stays exact.
        self.src_net._in_flight_flits -= 1
        if self.dst_net is not None:
            self._deliver_flit(when, vc, flit)
        else:
            self.outbox.append((MSG_FLIT, when, vc, flit))

    def _deliver_flit(self, when: int, vc: int, flit) -> None:
        spec = self.spec
        self.dst_net._schedule(when, (_ARRIVAL, spec.dst_router, spec.dst_port, vc, flit))
        self.dst_net._in_flight_flits += 1

    # --- reverse (credit) channel -----------------------------------------

    def send_credit(self, now: int, vc: int, release: bool) -> None:
        """Destination side: return one freed buffer slot's credit."""
        when = now + self._credit_delay + self._credit_latency
        self.credits_returned += 1
        if self.src_net is not None:
            self._deliver_credit(when, vc, release)
        else:
            self.outbox.append((MSG_CREDIT, when, vc, release))

    def _deliver_credit(self, when: int, vc: int, release: bool) -> None:
        self.src_net._schedule(when, (_CREDIT, self._src_port, vc, release))

    # --- worker-mode ferry -------------------------------------------------

    def drain_outbox(self) -> list[tuple]:
        """Take and clear the pending remote-side messages."""
        msgs, self.outbox = self.outbox, []
        return msgs

    def ingest(self, messages: list[tuple]) -> None:
        """Apply ferried messages on the side that owns the target domain."""
        for kind, when, vc, payload in messages:
            if kind == MSG_FLIT:
                self._deliver_flit(when, vc, payload)
            else:
                self._deliver_credit(when, vc, payload)

    def pending(self) -> int:
        """Flits buffered in the outbox (conservation accounting)."""
        return sum(1 for msg in self.outbox if msg[0] == MSG_FLIT)


__all__ = [
    "InterChipLink",
    "LinkConfig",
    "LinkIngress",
    "PartitionConfig",
]
