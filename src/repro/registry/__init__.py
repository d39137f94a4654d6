"""Central scheme registries: one registration point per pluggable axis.

Every stringly-selected object family in the reproduction resolves through
one of the registries below:

* :data:`allocators` — switch-allocation schemes (:mod:`repro.core`);
* :data:`vc_policies` — output-VC assignment policies (:mod:`repro.core.vc_policy`);
* :data:`topologies` — network topologies (:mod:`repro.topology`);
* :data:`patterns` — synthetic traffic patterns (:mod:`repro.traffic.patterns`);
* :data:`experiments` — table/figure drivers (:mod:`repro.experiments`);
* :data:`engines` — simulation engine backends (:mod:`repro.sim.engines`).

A chiplet partition is not a registry axis: it has one cut (the grid of
:func:`repro.topology.partition.grid_partition`) and one link model, both
described by :class:`repro.network.links.PartitionConfig`.

Each registry lazily imports its providing module on first lookup, so this
package stays import-light (stdlib only) and cycle-free: providers import
:mod:`repro.registry` to register themselves, never the other way around.

Adding a scheme is one ``register`` call in the providing module — the
registry then feeds name canonicalization, constructor dispatch, display
labels, capability flags (e.g. whether a scheme enlarges the crossbar),
the CLI ``list`` output, and the declarative experiment-spec layer, with
no per-driver edits.
"""

from __future__ import annotations

from .base import (
    ENLARGES_CROSSBAR,
    NETWORK_COMPARISON,
    VIRTUAL_INPUT_PER_VC,
    Registry,
    SchemeInfo,
    UnknownSchemeError,
)

#: Switch-allocation schemes (IF / OF / WF / AP / PC / SPAROFLO / VIX / ideal).
allocators = Registry("allocator", provider="repro.core")
#: Output virtual-channel assignment policies.
vc_policies = Registry("VC policy", provider="repro.core.vc_policy")
#: Network topologies (64-terminal paper configurations and scalings).
topologies = Registry("topology", provider="repro.topology")
#: Synthetic traffic patterns.
patterns = Registry("traffic pattern", provider="repro.traffic.patterns")
#: Experiment drivers (one per paper table/figure plus extensions).
experiments = Registry("experiment", provider="repro.experiments")
#: Simulation engine backends (dense / gated object stepping, numpy SoA).
engines = Registry("engine", provider="repro.sim.engines")

#: Every registry, for ``list`` output and completeness checks.
ALL_REGISTRIES: tuple[Registry, ...] = (
    allocators,
    vc_policies,
    topologies,
    patterns,
    experiments,
    engines,
)

__all__ = [
    "ALL_REGISTRIES",
    "ENLARGES_CROSSBAR",
    "NETWORK_COMPARISON",
    "Registry",
    "SchemeInfo",
    "UnknownSchemeError",
    "VIRTUAL_INPUT_PER_VC",
    "allocators",
    "engines",
    "experiments",
    "patterns",
    "topologies",
    "vc_policies",
]
