"""Simulation engine backends, registered like every other scheme axis.

The engines share one semantic contract — byte-identical
:class:`~repro.sim.engine.SimulationResult` values for the same
configuration and seed — and differ only in how the per-cycle work is
executed:

* ``dense`` — object stepping visiting every router and NI every cycle
  (the original reference loop; equivalence/benchmark baseline);
* ``gated`` — object stepping visiting only active components (fastest
  at low load, ~parity with dense at saturation; what the ``vectorized``
  factory builds for low-load or metrics/trace requests, and the fallback
  for everything the kernel cannot express);
* ``vectorized`` — a struct-of-arrays numpy kernel batching VC and switch
  allocation across every router per cycle (:mod:`repro.sim.vec`); wins at
  and past saturation.  Only schemes whose grant semantics have an array
  formulation are supported (separable IF/OF, the VIX family, and the
  wavefront / augmenting-path port-level matchers, on topologies without
  dateline VC masking); anything else fails loudly through
  :func:`repro.sim.vec.require_vectorizable`;
* ``partitioned`` — chiplet-partitioned domain stepping
  (:mod:`repro.sim.partition`): the topology is cut into a grid of
  :class:`~repro.network.domain.DomainNetwork` instances joined by
  inter-chip links, stepped round-robin or in worker processes.  A
  ``1x1`` partition with zero-latency links is byte-identical to
  ``dense``/``gated``; larger grids model multi-chip fabrics.

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

import math
import os
import warnings
from typing import TYPE_CHECKING

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

#: Environment variable naming the default engine (set by ``--engine``).
ENGINE_ENV = "REPRO_ENGINE"
#: Environment knob: minimum expected injected flits/cycle for the SoA
#: kernel to be worth it; below this a ``vectorized`` request is served by
#: the gated engine.
MIN_FLITS_ENV = "REPRO_VEC_MIN_FLITS"
_DEFAULT_MIN_FLITS = 6.0


def _object_engine(activity_gating: bool):
    def build(config: "NetworkConfig", **sim_kwargs):
        from repro.sim.engine import Simulation

        return Simulation(config, activity_gating=activity_gating, **sim_kwargs)

    build.__name__ = "make_gated" if activity_gating else "make_dense"
    return build


def _partitioned_engine(config: "NetworkConfig", **sim_kwargs):
    from repro.sim.partition import PartitionedSimulation

    return PartitionedSimulation(config, **sim_kwargs)


def _min_flits_threshold() -> float:
    raw = os.environ.get(MIN_FLITS_ENV, "").strip()
    if not raw:
        return _DEFAULT_MIN_FLITS
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if math.isnan(value) or value < 0:
        raise ValueError(
            f"{MIN_FLITS_ENV}={raw!r} is not a valid threshold; expected a "
            f"non-negative number of flits/cycle (default "
            f"{_DEFAULT_MIN_FLITS:g})"
        )
    return value


def _vectorized_engine(
    config: "NetworkConfig",
    *,
    injection_rate: float = 0.1,
    packet_length: int | None = None,
    obs=None,
    **sim_kwargs,
):
    """The SoA-kernel engine, or the gated object engine where that is faster.

    The one home of the delegation predicate: metrics probes and flit
    tracers hook the object allocators/routers, and low-activity runs are
    faster on the gated visit-only-active loop than on whole-network array
    ops.  Results are byte-identical either way.
    """
    try:
        from repro.sim.vec import VectorizedSimulation, require_vectorizable
    except ImportError as exc:
        raise ImportError(
            "the 'vectorized' engine needs numpy, which is not installed; "
            "install it (pip install 'numpy>=1.24') or pick one of the "
            "object engines ('dense', 'gated')"
        ) from exc
    from repro.obs import ObservabilityConfig
    from repro.sim.engine import Simulation

    require_vectorizable(config)
    if obs is None:
        obs = ObservabilityConfig.from_env()
    plen = packet_length if packet_length is not None else config.packet_length
    expected_flits = min(max(injection_rate, 0.0), 1.0) * config.num_terminals * plen
    kernel_pays = not (
        obs.metrics or obs.trace or expected_flits < _min_flits_threshold()
    )
    engine = VectorizedSimulation if kernel_pays else Simulation
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
    provenance="reference loop; every router and NI visited every cycle",
    flags=(OBJECT_STEPPING,),
)
engine_registry.register(
    "gated",
    _object_engine(True),
    aliases=("fast",),
    label="activity-gated object stepping",
    provenance="byte-identical to dense, skips idle components; the "
    "default where the SoA kernel cannot run (packet chaining, sparoflo, "
    "torus, no numpy), and its low-load delegate",
    flags=(OBJECT_STEPPING, ACTIVITY_GATED),
)
engine_registry.register(
    "partitioned",
    _partitioned_engine,
    aliases=("chiplet", "domains"),
    label="chiplet-partitioned domain stepping",
    provenance="grid of DomainNetworks joined by inter-chip links; "
    "1x1 partition byte-identical to dense/gated",
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
    name = os.environ.get(ENGINE_ENV, "").strip()
    return engine_registry.canonical(name) if name else None


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
      ``engine`` conflicts and raises ``ValueError``);
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
    given when the run was built — is not repeated.
    """
    if partition is not None:
        if engine is not None and engine_registry.canonical(engine) != "partitioned":
            raise ValueError(
                f"partition config conflicts with explicit engine {engine!r}; "
                f"drop one (a partitioned run must use the 'partitioned' engine)"
            )
        return "partitioned"
    if engine is not None:
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
    if (
        counters is not None
        and name == "vectorized"
        and "vec_kernel_cycles" not in counters
    ):
        name = "gated"
    return name


def make_engine(name: str, config: "NetworkConfig", **sim_kwargs):
    """Build a simulation object for ``config`` on the named engine.

    ``sim_kwargs`` are the :class:`~repro.sim.engine.Simulation` keyword
    arguments minus ``activity_gating`` (each engine fixes its own stepping
    mode).  The returned object exposes ``run(warmup, measure,
    drain_limit)`` returning a :class:`~repro.sim.engine.SimulationResult`.
    """
    return engine_registry.create(name, config, **sim_kwargs)
