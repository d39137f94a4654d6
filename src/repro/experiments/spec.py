"""Declarative experiment specifications.

An :class:`ExperimentSpec` is a frozen, canonically-serializable description
of everything an experiment driver runs: a named tuple of
:class:`ScenarioSpec` points (topology, router configuration, traffic,
allocator, run kind), a seed, and a fidelity level.  It is the single
source from which the shared executor (:func:`repro.experiments.runner.execute_spec`)
derives :class:`~repro.parallel.SimJob` lists (and hence cache keys),
parallel fan-out, and keyed result tables — drivers reduce to a spec
builder plus a formatter.

Scenario *kinds* cover the four run shapes the paper's artifacts need:

* ``"network"`` — a full network simulation (becomes a cached ``SimJob``);
* ``"single_router"`` — the saturated Figure-7 testbench;
* ``"manycore"`` — a 64-core application mix (Table 4);
* ``"analytic"`` — a timing-model evaluation (Tables 1/3, radix scaling).

All scheme names resolve through :mod:`repro.registry` at validation time,
so a typo fails fast with the registry's canonical error listing valid
choices, before any simulation starts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Mapping

from repro.network.config import NetworkConfig, RouterConfig
from repro.network.links import PartitionConfig
from repro.parallel import SimJob
from repro.registry import allocators, engines, patterns, topologies, vc_policies

#: The run shapes a scenario can take.
SCENARIO_KINDS = ("network", "single_router", "manycore", "analytic")

#: Analytic model entry points a spec may name (resolved by the executor).
ANALYTIC_FNS = ("router_delays", "allocator_delay")


def _freeze(value: Any) -> Any:
    """Recursively convert lists/dicts to tuples of pairs (hashable form)."""
    if isinstance(value, Mapping):
        return tuple((str(k), _freeze(v)) for k, v in sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value: Any) -> Any:
    """Inverse of :func:`_freeze` for JSON round-trips (lists -> tuples)."""
    if isinstance(value, list):
        return tuple(_thaw(v) for v in value)
    return value


def _options_dict(options: tuple[tuple[str, Any], ...]) -> dict[str, Any]:
    return {name: value for name, value in options}


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully specified experiment point.

    Fields not meaningful for a scenario's ``kind`` keep their defaults and
    are ignored by the executor (e.g. ``radix`` for network scenarios).
    ``key`` is the caller-chosen slot identifier the executor files the
    scenario's result under; it never influences what is simulated.
    """

    #: Result-table slot (any tuple of scalars); set by the spec builder.
    key: tuple = ()
    #: Run shape; one of :data:`SCENARIO_KINDS`.
    kind: str = "network"
    #: Switch-allocation scheme (registry name or alias).
    allocator: str = "input_first"
    #: Topology (registry name or alias) — network/manycore kinds.
    topology: str = "mesh"
    num_terminals: int = 64
    num_vcs: int = 6
    buffer_depth: int = 5
    #: Configuration-level crossbar width request (VIX family only).
    virtual_inputs: int = 2
    #: Output-VC policy; "" selects the paper default for the allocator
    #: (dimension-aware for enlarged-crossbar schemes, max-credit otherwise).
    vc_policy: str = ""
    packet_length: int = 4
    #: Traffic pattern (registry name or alias) — network kind.
    pattern: str = "uniform"
    #: Extra pattern-constructor keywords (canonicalized to sorted pairs).
    pattern_options: tuple[tuple[str, Any], ...] = ()
    injection_rate: float = 1.0
    #: Post-measurement drain budget: ``None`` = default drain, 0 = none
    #: (saturation probes), N = at most N cycles.
    drain_limit: int | None = None
    burst_length: float = 1.0
    #: Router radix — single_router kind.
    radix: int = 5
    #: Cycle-count override — single_router kind (``None`` = fidelity preset).
    cycles: int | None = None
    #: Workload mix name — manycore kind.
    mix: str = ""
    #: Analytic model entry point — analytic kind.
    fn: str = ""
    #: Kind-specific options: allocator-constructor keywords for
    #: single_router scenarios, model keywords for analytic scenarios.
    options: tuple[tuple[str, Any], ...] = ()
    #: Simulation engine backend (registry name or alias) — network kind.
    #: "" defers to the runtime default (``REPRO_ENGINE``, else
    #: :func:`repro.sim.engines.resolve_engine`'s built-in choice).
    engine: str = ""
    #: Chiplet partition — network kind.  ``None`` = monolithic run; a
    #: config routes the scenario to the ``partitioned`` engine.
    partition: PartitionConfig | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", _freeze(self.key))
        object.__setattr__(self, "pattern_options", _freeze(self.pattern_options))
        object.__setattr__(self, "options", _freeze(self.options))
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(
                f"unknown scenario kind {self.kind!r}; expected one of "
                f"{SCENARIO_KINDS}"
            )
        if self.kind == "analytic":
            if self.fn not in ANALYTIC_FNS:
                raise ValueError(
                    f"unknown analytic fn {self.fn!r}; expected one of "
                    f"{ANALYTIC_FNS}"
                )
            return
        # Scheme names fail fast here, with the registry's error message.
        object.__setattr__(self, "allocator", allocators.canonical(self.allocator))
        if self.vc_policy:
            object.__setattr__(self, "vc_policy", vc_policies.canonical(self.vc_policy))
        if self.kind in ("network", "manycore"):
            object.__setattr__(self, "topology", topologies.canonical(self.topology))
        if self.kind == "network":
            object.__setattr__(self, "pattern", patterns.canonical(self.pattern))
        if self.engine:
            object.__setattr__(self, "engine", engines.canonical(self.engine))

    # --- realization -------------------------------------------------------

    def resolved_vc_policy(self) -> str:
        """The output-VC policy, with "" resolved to the paper default."""
        if self.vc_policy:
            return self.vc_policy
        info = allocators.get(self.allocator)
        return "vix_dimension" if info.enlarges_crossbar else "max_credit"

    def network_config(self) -> NetworkConfig:
        """The :class:`NetworkConfig` this scenario describes."""
        return NetworkConfig(
            topology=self.topology,
            num_terminals=self.num_terminals,
            router=RouterConfig(
                num_vcs=self.num_vcs,
                buffer_depth=self.buffer_depth,
                allocator=self.allocator,
                virtual_inputs=self.virtual_inputs,
                vc_policy=self.resolved_vc_policy(),
            ),
            packet_length=self.packet_length,
        )

    def traffic_pattern(self) -> Any:
        """The pattern argument for a :class:`SimJob`.

        Plain names stay strings (resolved inside the simulation engine);
        parameterized patterns are instantiated through the registry so
        their constructor state lands in the job's cache identity.
        """
        if not self.pattern_options:
            return self.pattern
        return patterns.create(
            self.pattern, self.num_terminals, **_options_dict(self.pattern_options)
        )

    def sim_job(self, warmup: int, measure: int, seed: int) -> SimJob:
        """The cached, picklable job for a ``"network"`` scenario."""
        if self.kind != "network":
            raise ValueError(f"sim_job() on a {self.kind!r} scenario")
        return SimJob(
            self.network_config(),
            pattern=self.traffic_pattern(),
            injection_rate=self.injection_rate,
            seed=seed,
            warmup=warmup,
            measure=measure,
            drain_limit=self.drain_limit,
            burst_length=self.burst_length,
            engine=self.engine or None,
            partition=self.partition,
        )

    # --- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """Plain JSON-able data (inverse of :meth:`from_dict`).

        The partition is its :meth:`PartitionConfig.spec`, so ``workers``
        (execution only) stays out of the content identity.
        """
        data = dataclasses.asdict(self)
        if self.partition is not None:
            data["partition"] = self.partition.spec()

        def jsonable(value: Any) -> Any:
            if isinstance(value, tuple):
                return [jsonable(v) for v in value]
            return value

        return {name: jsonable(value) for name, value in data.items()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a scenario written by :meth:`to_dict`."""
        fields = {f.name for f in dataclasses.fields(cls)}
        kwargs = {name: _thaw(value) for name, value in data.items() if name in fields}
        if kwargs.get("partition") is not None:
            kwargs["partition"] = PartitionConfig(**kwargs["partition"])
        return cls(**kwargs)


@dataclass(frozen=True)
class ExperimentSpec:
    """A named, seeded bag of scenarios at one fidelity level."""

    #: Experiment id (matches the registry / CLI id, e.g. ``"f8"``).
    name: str
    title: str = ""
    scenarios: tuple[ScenarioSpec, ...] = ()
    seed: int = 1
    #: Fidelity: True = fast preset, False = paper-fidelity, None = honour
    #: the ``REPRO_FULL`` environment switch at execution time.
    fast: bool | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        seen: set = set()
        for scenario in self.scenarios:
            if scenario.key in seen:
                raise ValueError(
                    f"duplicate scenario key {scenario.key!r} in spec {self.name!r}"
                )
            seen.add(scenario.key)

    def to_dict(self) -> dict:
        """Plain JSON-able data (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "title": self.title,
            "scenarios": [s.to_dict() for s in self.scenarios],
            "seed": self.seed,
            "fast": self.fast,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec written by :meth:`to_dict`."""
        return cls(
            name=data["name"],
            title=data.get("title", ""),
            scenarios=tuple(
                ScenarioSpec.from_dict(s) for s in data.get("scenarios", ())
            ),
            seed=data.get("seed", 1),
            fast=data.get("fast"),
        )

    def canonical_json(self) -> str:
        """Deterministic serialized form (sorted keys, no whitespace)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def content_key(self) -> str:
        """Stable content hash of the spec + package version.

        The same recipe as :meth:`repro.parallel.SimJob.key`, so a spec's
        identity is stable across processes and invalidated by simulator
        behaviour changes.
        """
        from repro import __version__

        payload = json.dumps(
            {"spec": self.to_dict(), "version": __version__},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()
