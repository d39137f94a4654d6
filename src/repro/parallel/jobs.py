"""The unit of parallel work: one fully specified simulation run.

A :class:`SimJob` captures everything :func:`repro.sim.engine.run_simulation`
needs, in a frozen (hashable) dataclass whose fields are all picklable, so
jobs can cross a process boundary and serve as dictionary keys.  Its
:meth:`SimJob.key` is a stable content hash over the *semantic* spec (config
fields, pattern identity, windows, seed) plus the package version — the
address of the job's result in the on-disk cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.network.config import NetworkConfig
from repro.network.links import PartitionConfig
from repro.traffic.patterns import TrafficPattern

if TYPE_CHECKING:  # imported lazily at runtime: repro.sim imports us back
    from repro.sim.engine import SimulationResult


def _canonical_value(value: object) -> object:
    """Deterministic, JSON-able form of one pattern attribute value.

    Scalars pass through; tuples/lists recurse into lists; sets and dicts —
    whose iteration order is not part of their identity — are rewritten as
    *sorted*, tagged pair lists so two equal values always serialize to the
    same bytes regardless of construction order.  Raises :class:`TypeError`
    for anything without a canonical form (callers skip such attributes).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_canonical_value(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return {"__set__": sorted((_canonical_value(v) for v in value), key=repr)}
    if isinstance(value, dict):
        return {
            "__dict__": sorted(
                (
                    [_canonical_value(k), _canonical_value(v)]
                    for k, v in value.items()
                ),
                key=repr,
            )
        }
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _pattern_spec(pattern: TrafficPattern | str) -> dict:
    """A JSON-able identity for a traffic pattern.

    String specs name a :func:`repro.traffic.patterns.make_pattern` pattern;
    pattern instances contribute their class, size, and public constructor
    state.  Attribute values canonicalize recursively (nested tuples, dicts,
    and sets serialize deterministically); attributes without a canonical
    form — helper objects, not constructor state — are skipped.
    """
    if isinstance(pattern, str):
        return {"kind": "name", "name": pattern.strip().lower()}
    attrs = {}
    for name, value in sorted(vars(pattern).items()):
        if name.startswith("_"):
            continue
        try:
            attrs[name] = _canonical_value(value)
        except TypeError:
            continue
    return {"kind": "instance", "class": type(pattern).__name__, "attrs": attrs}


@dataclass(frozen=True)
class SimJob:
    """One simulation point, ready to run in any process.

    Field defaults mirror :func:`repro.sim.engine.run_simulation` so a job
    is a faithful stand-in for a direct call.
    """

    config: NetworkConfig
    pattern: TrafficPattern | str = "uniform"
    injection_rate: float = 0.1
    packet_length: int | None = None
    seed: int = 1
    warmup: int = 1000
    measure: int = 3000
    drain_limit: int | None = None
    burst_length: float = 1.0
    engine: str | None = None
    #: Chiplet-domain decomposition (:class:`repro.network.links.
    #: PartitionConfig`); ``None`` = monolithic.  Setting it routes the
    #: job to the ``partitioned`` engine.
    partition: "PartitionConfig | None" = None

    def canonical_engine(self) -> str | None:
        """Registry-canonical engine name (``None`` = environment default)."""
        if self.engine is None:
            return None
        from repro.registry import engines

        return engines.canonical(self.engine)

    def run(self) -> "SimulationResult":
        """Execute the simulation this job describes."""
        from repro.sim.engine import run_simulation

        return run_simulation(
            self.config,
            pattern=self.pattern,
            injection_rate=self.injection_rate,
            packet_length=self.packet_length,
            seed=self.seed,
            warmup=self.warmup,
            measure=self.measure,
            drain_limit=self.drain_limit,
            burst_length=self.burst_length,
            engine=self.engine,
            partition=self.partition,
        )

    def spec(self) -> dict:
        """The job's semantic content as plain JSON-able data.

        ``engine`` is part of the content (canonicalized, so aliases like
        ``vec`` and ``vectorized`` share a key): engines are byte-identical
        by contract, but keying results per engine keeps the cache able to
        *prove* that — a stale entry can never mask an engine divergence.
        """
        return {
            "config": dataclasses.asdict(self.config),
            "pattern": _pattern_spec(self.pattern),
            "injection_rate": self.injection_rate,
            "packet_length": self.packet_length,
            "seed": self.seed,
            "warmup": self.warmup,
            "measure": self.measure,
            "drain_limit": self.drain_limit,
            "burst_length": self.burst_length,
            "engine": self.canonical_engine(),
            # PartitionConfig.spec() excludes ``workers`` (an execution
            # choice, not semantic content — results are identical for
            # any worker count), so serial and parallel runs share a key.
            "partition": self.partition.spec() if self.partition is not None else None,
        }

    def key(self) -> str:
        """Stable content hash of the spec + package version (cache address).

        The package version is folded in so simulator behaviour changes
        invalidate old cache entries wholesale.
        """
        from repro import __version__

        payload = json.dumps(
            {"spec": self.spec(), "version": __version__},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()
