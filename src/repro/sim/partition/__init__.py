"""Chiplet-partitioned simulation: domains, inter-chip links, quiescence.

The ``partitioned`` engine (registered in :mod:`repro.sim.engines`) cuts
the configured topology into a grid of chiplet domains (each a
:class:`~repro.network.network.Network` slice) joined by
:class:`~repro.network.links.InterChipLink` channels, then steps the
domains in lockstep — serial round-robin in-process, or in parallel
worker processes synchronized at conservative epoch barriers
(:mod:`repro.sim.partition.workers`).  Results are independent of the
execution mode.  Every engine is this driver: the monolithic ones are its
``1x1`` partition with a fixed domain engine.

:mod:`repro.sim.partition.invariants` holds the flit-conservation and
credit-accounting checks that fence multi-domain correctness.
"""

from .engine import PartitionedSimulation
from .invariants import (
    PartitionInvariantError,
    check_credit_accounting,
    check_flit_conservation,
    check_invariants,
)

__all__ = [
    "PartitionInvariantError",
    "PartitionedSimulation",
    "check_credit_accounting",
    "check_flit_conservation",
    "check_invariants",
]
