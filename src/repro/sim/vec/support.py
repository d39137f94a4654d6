"""Which configurations the vectorized engine can execute.

The struct-of-arrays kernel batches per-router arbitration across every
router at once, which needs the grant rule in array form.  Two families
have one (:data:`SA_KERNELS` names the kernel behind each scheme):

* the *separable* round-robin allocators (``input_first``,
  ``output_first``, ``vix``, ``ideal_vix``) — each arbiter's decision
  depends only on its own pointer and request lines, so both phases are
  data-parallel sorted-offset picks;
* the *port-level matchers* (``wavefront``, ``augmenting_path``) — a match
  over each router's 0/1 request matrix followed by a per-input-port VC
  round-robin.  Wavefront's rotating-diagonal sweep is ``P`` waves of
  array-wide row/column masking; augmenting-path's maximum matching is a
  stateless pure function of the matrix, looked up in a bounded memo whose
  misses run the object allocator's own Kuhn search.

Schemes that carry coupled state across cycles or rounds stay on the
object engines:

* ``packet_chaining`` — reuses last cycle's matching with chained holds.
* ``sparoflo`` — multi-request iterative rounds with inter-round coupling.

VC-selection policies and topologies are gated the same way: the kernel
implements ``max_credit`` and ``vix_dimension`` arithmetic directly, and it
precomputes routing/lookahead tables from the topology, which is only valid
when the topology does not override dateline VC masking
(:meth:`~repro.topology.base.Topology.allowed_vcs`, e.g. the torus).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.registry import UnknownSchemeError, allocators, vc_policies
from repro.topology import make_topology
from repro.topology.base import Topology

if TYPE_CHECKING:
    from repro.network.config import NetworkConfig

#: Canonical allocator name -> the :mod:`repro.sim.vec.kernels` function
#: that switch-allocates for it.  The one table both the capability gate
#: and the stepper's kernel choice read (the stepper resolves the name
#: through the ``kernels`` module globals when it is built).
SA_KERNELS = {
    "input_first": "sa_input_first",
    "output_first": "sa_output_first",
    "wavefront": "sa_wavefront",
    "augmenting_path": "sa_augmenting_path",
    "vix": "sa_input_first",
    "ideal_vix": "sa_input_first",
}
#: Allocator schemes (canonical names) with an array formulation.
SUPPORTED_ALLOCATORS = tuple(SA_KERNELS)
#: VC-selection policies the VA kernel implements.
SUPPORTED_VC_POLICIES = ("max_credit", "vix_dimension")


def vectorization_unsupported_reason(config: "NetworkConfig") -> str | None:
    """Why ``config`` cannot run on the SoA kernel, or ``None`` if it can.

    Checks the allocator family, the VC-selection policy, and whether the
    topology keeps the base (permissive) ``allowed_vcs`` rule.  Returns a
    human-readable reason suitable for an error message or a fallback log.
    """
    allocator = allocators.canonical(config.router.allocator)
    if allocator not in SUPPORTED_ALLOCATORS:
        return (
            f"allocator {allocator!r} has no struct-of-arrays formulation "
            f"(vectorizable allocators: {list(SUPPORTED_ALLOCATORS)})"
        )
    policy = vc_policies.canonical(config.router.vc_policy)
    if policy not in SUPPORTED_VC_POLICIES:
        return (
            f"vc_policy {policy!r} is not implemented by the VA kernel "
            f"(vectorizable policies: {list(SUPPORTED_VC_POLICIES)})"
        )
    topo = make_topology(config.topology, config.num_terminals)
    if type(topo).allowed_vcs is not Topology.allowed_vcs:
        return (
            f"topology {config.topology!r} overrides allowed_vcs (dateline VC "
            "masking), which the VA kernel does not model"
        )
    # A config no allocator accepts (e.g. VIX VCs that do not split into
    # its sub-groups) is no capability question: every engine rejects it
    # with the allocator's ValueError when it builds the network.
    return None


def require_vectorizable(config: "NetworkConfig") -> None:
    """Raise the registry-style error when ``config`` cannot vectorize.

    Mirrors :class:`~repro.registry.UnknownSchemeError` phrasing so callers
    see the same shape of message as for an unknown scheme name, including
    which engines *can* run the configuration.
    """
    reason = vectorization_unsupported_reason(config)
    if reason is not None:
        raise UnknownSchemeError(
            f"configuration not supported by engine 'vectorized': {reason}; "
            "use engine 'dense' or 'gated' (object stepping) for this "
            "configuration"
        )
