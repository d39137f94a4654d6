"""Struct-of-arrays (numpy) simulation engine — the ``vectorized`` backend.

The capability checks (:mod:`~repro.sim.vec.support`) are numpy-free and
import eagerly — callers probe vectorizability without the dependency.
:class:`VectorizedSimulation` loads lazily on first attribute access; what
needs numpy is the kernel fabric it builds
(:mod:`~repro.sim.vec.domain`), whose ImportError the partition engine
re-raises with install guidance, so numpy-less environments keep the
object engines fully working.
"""

from .support import (
    SUPPORTED_ALLOCATORS,
    SUPPORTED_VC_POLICIES,
    require_vectorizable,
    vectorization_unsupported_reason,
)


def __getattr__(name: str):
    if name == "VectorizedSimulation":
        from .engine import VectorizedSimulation

        return VectorizedSimulation
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "SUPPORTED_ALLOCATORS",
    "SUPPORTED_VC_POLICIES",
    "VectorizedSimulation",
    "require_vectorizable",
    "vectorization_unsupported_reason",
]
