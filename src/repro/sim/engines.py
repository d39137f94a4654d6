"""Simulation engine backends, registered like every other scheme axis.

The engines share one semantic contract — byte-identical
:class:`~repro.sim.engine.SimulationResult` values for the same
configuration and seed — and differ only in how the per-cycle work is
executed.  All of them are one driver,
:class:`~repro.sim.partition.PartitionedSimulation`; the monolithic ones
are its 1x1 partition with the domain engine fixed:

* ``dense`` — object stepping visiting every router and NI every cycle
  (the original reference loop; equivalence/benchmark baseline);
* ``gated`` — object stepping visiting only active components (fastest
  at low load, ~parity with dense at saturation; what the ``vectorized``
  factory builds for low-load or metrics/trace requests, and the fallback
  for everything the kernel cannot express).  Both are
  :class:`~repro.sim.engine.Simulation`, the 1x1 partition on one object
  :class:`~repro.network.network.Network`;
* ``vectorized`` — a struct-of-arrays numpy kernel batching VC and switch
  allocation across every router per cycle (:mod:`repro.sim.vec`); wins at
  and past saturation.  Only schemes whose grant semantics have an array
  formulation are supported (separable IF/OF, the VIX family, and the
  wavefront / augmenting-path port-level matchers, on topologies without
  dateline VC masking); anything else fails loudly through
  :func:`repro.sim.vec.require_vectorizable`;
* ``partitioned`` — chiplet-partitioned domain stepping
  (:mod:`repro.sim.partition`): the topology is cut into a grid of domain
  :class:`~repro.network.network.Network` slices (or SoA-kernel domains)
  joined by inter-chip links, stepped round-robin or in worker processes.
  A ``1x1`` partition is the monolithic engine its domain engine names;
  larger grids model multi-chip fabrics.

The registry keeps this a normal scheme axis: ``--engine`` on the CLI,
``engine=`` on :func:`~repro.sim.engine.run_simulation`,
:class:`~repro.parallel.SimJob`, and :class:`~repro.experiments.spec.ScenarioSpec`
all canonicalize through :data:`repro.registry.engines`, and ``python -m
repro list`` prints the table below.

**Which engine a request runs on** is answered in one place,
:func:`resolve_engine`.  With no engine named anywhere the choice is made
from what the code can observe: ``vectorized`` when the configuration is
vectorizable and numpy imports, ``gated`` otherwise, silently — results
are byte-identical either way.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING

from repro import settings
from repro.registry import engines as engine_registry

if TYPE_CHECKING:
    from repro.network.config import NetworkConfig

#: Capability flag: per-object Python stepping (Router/Arbiter instances).
OBJECT_STEPPING = "object_stepping"
#: Capability flag: skips idle routers/NIs (activity-gated stepping).
ACTIVITY_GATED = "activity_gated"
#: Capability flag: struct-of-arrays numpy cycle kernel.
SOA_KERNEL = "soa_kernel"
#: Capability flag: needs the optional numpy dependency at run time.
REQUIRES_NUMPY = "requires_numpy"
#: Capability flag: restricted scheme support (non-vectorizable allocators
#: and topologies are rejected with the registry-style error).
CAPABILITY_GATED = "capability_gated"
#: Capability flag: steps a grid of chiplet domains joined by inter-chip
#: links instead of one monolithic network.
DOMAIN_PARTITIONED = "domain_partitioned"



def _object_engine(activity_gating: bool):
    def build(config: "NetworkConfig", **sim_kwargs):
        from repro.sim.engine import Simulation

        return Simulation(config, activity_gating=activity_gating, **sim_kwargs)

    build.__name__ = "make_gated" if activity_gating else "make_dense"
    return build


def _partitioned_engine(config: "NetworkConfig", **sim_kwargs):
    from repro.sim.partition import PartitionedSimulation

    return PartitionedSimulation(config, **sim_kwargs)


def _kernel_pays(
    config: "NetworkConfig", obs, injection_rate: float, packet_length: int | None
) -> bool:
    """True when the SoA kernel is the faster way to step this request.

    The one home of the delegation predicate, shared by the ``vectorized``
    factory and :func:`resolve_domain_engine`: metrics probes and flit
    tracers hook the object allocators/routers, and low-activity runs
    (expected injected flits/cycle under ``REPRO_VEC_MIN_FLITS``) are
    faster on the gated visit-only-active loop than on whole-network
    array ops.  Results are byte-identical either way.
    """
    if obs.metrics or obs.trace:
        return False
    plen = packet_length if packet_length is not None else config.packet_length
    expected_flits = min(max(injection_rate, 0.0), 1.0) * config.num_terminals * plen
    return expected_flits >= settings.get("REPRO_VEC_MIN_FLITS")


def _vectorized_engine(
    config: "NetworkConfig",
    *,
    injection_rate: float = 0.1,
    packet_length: int | None = None,
    obs=None,
    **sim_kwargs,
):
    """The SoA-kernel engine, or the gated object engine where that is
    faster (:func:`_kernel_pays`).  Only building the kernel fabric needs
    numpy, so the gated delegate runs without it."""
    from repro.obs import ObservabilityConfig
    from repro.sim.engine import Simulation
    from repro.sim.vec import VectorizedSimulation, require_vectorizable

    require_vectorizable(config)
    if obs is None:
        obs = ObservabilityConfig.from_env()
    pays = _kernel_pays(config, obs, injection_rate, packet_length)
    engine = VectorizedSimulation if pays else Simulation
    return engine(
        config,
        injection_rate=injection_rate,
        packet_length=packet_length,
        obs=obs,
        **sim_kwargs,
    )


engine_registry.register(
    "dense",
    _object_engine(False),
    aliases=("object",),
    label="dense object stepping",
    provenance="reference loop; every router and NI visited every cycle "
    "(the 1x1 partition on dense object domains)",
    flags=(OBJECT_STEPPING,),
)
engine_registry.register(
    "gated",
    _object_engine(True),
    aliases=("fast",),
    label="activity-gated object stepping",
    provenance="byte-identical to dense, skips idle components (the 1x1 "
    "partition on gated object domains); the default where the SoA kernel "
    "cannot run (packet chaining, sparoflo, torus, no numpy), and its "
    "low-load delegate",
    flags=(OBJECT_STEPPING, ACTIVITY_GATED),
)
engine_registry.register(
    "partitioned",
    _partitioned_engine,
    aliases=("chiplet", "domains"),
    label="chiplet-partitioned domain stepping",
    provenance="grid of domain networks joined by inter-chip links; "
    "the one driver every engine is a 1x1 partition of",
    flags=(OBJECT_STEPPING, DOMAIN_PARTITIONED),
)
engine_registry.register(
    "vectorized",
    _vectorized_engine,
    aliases=("vec", "numpy", "soa"),
    label="struct-of-arrays numpy kernel",
    provenance="batched per-cycle array ops; byte-identical to dense; "
    "the default for every configuration it supports (starred "
    "allocators; mesh, cmesh, fbfly)",
    flags=(SOA_KERNEL, REQUIRES_NUMPY, CAPABILITY_GATED),
)


def default_engine() -> str | None:
    """The environment-selected default engine, or ``None`` when unset."""
    return settings.get("REPRO_ENGINE", engine_registry.canonical)


def _numpy_imports() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def resolve_engine(
    config: "NetworkConfig",
    engine: str | None = None,
    *,
    partition=None,
    activity_gating: bool = True,
    counters: dict | None = None,
) -> str:
    """Canonical name of the engine that runs (or ran) this request.

    The one resolver behind :func:`~repro.sim.engine.run_simulation`, the
    runner's ``engines:`` footer and the telemetry ``engine`` field:

    * a ``partition`` config means ``partitioned`` (any other explicit
      ``engine`` conflicts and raises ``ValueError``); which engine steps
      its domains is :func:`resolve_domain_engine`'s answer;
    * an explicit ``engine`` is taken as named — strict, so an
      unsupported configuration fails when the engine is built;
    * otherwise ``REPRO_ENGINE`` is a *lenient* preference: a
      configuration the vectorized engine cannot run falls back to
      ``gated`` with a ``RuntimeWarning``;
    * with no engine named anywhere, ``activity_gating=False`` is the
      ``dense`` reference loop, and the built-in default is ``vectorized``
      when the SoA kernel can run the configuration here (scheme, VC
      policy, topology, numpy importable) and ``gated`` when it cannot —
      silently: no preference was stated, and results are byte-identical.

    ``counters`` are the finished run's, when attributing one: a
    vectorized request that never entered the kernel (its factory built
    the gated engine, see :func:`_vectorized_engine`) counts under the
    ``gated`` engine that stepped it, and the fallback warning — already
    given when the run was built — is not repeated.  A partitioned run is
    attributed as ``partitioned[<engine that stepped its domains>]``.
    """
    if partition is not None:
        if engine is not None and engine_registry.canonical(engine) != "partitioned":
            raise ValueError(
                f"partition config conflicts with explicit engine {engine!r}; "
                f"drop one (a partitioned run must use the 'partitioned' engine)"
            )
        name = "partitioned"
    elif engine is not None:
        name = engine_registry.canonical(engine)
    else:
        name = default_engine()
        if name is None and not activity_gating:
            name = "dense"
        elif name is None or name == "vectorized":
            from repro.sim.vec.support import vectorization_unsupported_reason

            stated = name is not None
            reason = vectorization_unsupported_reason(config)
            if reason is None and (stated or _numpy_imports()):
                name = "vectorized"
            else:
                name = "gated"
                if stated and counters is None:
                    # A silently substituted engine is indistinguishable
                    # from a vectorized run: say so.
                    warnings.warn(
                        f"REPRO_ENGINE=vectorized does not support this "
                        f"configuration (allocator "
                        f"{config.router.allocator!r}: {reason}); running "
                        f"on the 'gated' engine instead",
                        RuntimeWarning,
                        stacklevel=3,
                    )
    if counters is not None:
        kernel_ran = "vec_kernel_cycles" in counters
        if name == "vectorized" and not kernel_ran:
            name = "gated"
        elif name == "partitioned":
            if partition is not None:
                domains = partition.domain_engine
            else:
                domains = settings.get("REPRO_DOMAIN_ENGINE")
            if domains is None:
                domains = "vectorized" if kernel_ran else "gated"
            name = f"partitioned[{domains}]"
    return name


def resolve_domain_engine(
    config: "NetworkConfig",
    named: str | None,
    *,
    obs,
    injection_rate: float,
    packet_length: int | None,
) -> str:
    """The engine that steps a partitioned run's domains.

    The monolithic rule of :func:`resolve_engine`, carried across the
    chiplet boundary: a named engine (``PartitionConfig.domain_engine``,
    ``REPRO_DOMAIN_ENGINE``) is taken as named — strict; with none named
    the domains step on the SoA kernel when it can run the configuration
    here and pays (:func:`_kernel_pays`), on ``gated`` otherwise —
    silently, results being byte-identical.
    """
    if named is not None:
        return named
    from repro.sim.vec.support import vectorization_unsupported_reason

    if (
        vectorization_unsupported_reason(config) is None
        and _numpy_imports()
        and _kernel_pays(config, obs, injection_rate, packet_length)
    ):
        return "vectorized"
    return "gated"


def make_engine(name: str, config: "NetworkConfig", **sim_kwargs):
    """Build a simulation object for ``config`` on the named engine.

    ``sim_kwargs`` are the :class:`~repro.sim.engine.Simulation` keyword
    arguments minus ``activity_gating`` (each engine fixes its own stepping
    mode).  The returned object exposes ``run(warmup, measure,
    drain_limit)`` returning a :class:`~repro.sim.engine.SimulationResult`.
    """
    return engine_registry.create(name, config, **sim_kwargs)
