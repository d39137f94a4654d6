"""repro — reproduction of "VIX: Virtual Input Crossbar for Efficient
Switch Allocation" (DAC 2014).

Public API highlights:

* :func:`repro.core.make_allocator` — IF / WF / AP / PC / VIX allocators;
* :func:`repro.network.paper_config` — the paper's network configurations;
* :func:`repro.sim.run_simulation` — warmup/measure/drain network runs;
* :class:`repro.sim.SingleRouterExperiment` — Fig. 7 testbench;
* :mod:`repro.timing` / :mod:`repro.energy` — calibrated circuit models;
* :mod:`repro.manycore` — the 64-core application-level substrate;
* :mod:`repro.parallel` — process fan-out + result caching for the above;
* :mod:`repro.experiments` — one driver per paper table/figure.
"""

from repro.core import (
    AugmentingPathAllocator,
    IdealVIXAllocator,
    PacketChainingAllocator,
    SeparableInputFirstAllocator,
    VIXAllocator,
    WavefrontAllocator,
    make_allocator,
)
from repro.network import Network, NetworkConfig, RouterConfig, paper_config
from repro.parallel import ParallelRunner, ResultCache, SimJob, run_sim_jobs
from repro.sim import (
    Simulation,
    SimulationResult,
    SingleRouterExperiment,
    run_simulation,
    saturation_throughput,
)
from repro.analysis import channel_loads, saturation_bound
from repro.topology import make_topology
from repro.traffic import TrafficInjector, make_pattern

# 1.2.0: cache-key layout change — pattern-attribute canonicalization now
# handles nested containers deterministically, and jobs are derived from
# the declarative experiment-spec layer.  The version is folded into every
# SimJob.key(), so all pre-1.2 cache entries are invalidated wholesale.
# 1.6.0: partitioned runs on vectorized domains report ``vec_kernel_cycles``
# once per fabric cycle instead of summed over domains.
# 1.7.0: the default engine (no ``engine=``, no ``REPRO_ENGINE``) is
# vectorized wherever the SoA kernel can run, so results stored under an
# engine-less SimJob.key() carry different engine-bookkeeping counters
# (``vec_kernel_cycles`` / ``router_wakeups``) than 1.6 wrote.
__version__ = "1.7.0"

__all__ = [
    "AugmentingPathAllocator",
    "IdealVIXAllocator",
    "Network",
    "NetworkConfig",
    "PacketChainingAllocator",
    "ParallelRunner",
    "ResultCache",
    "RouterConfig",
    "SeparableInputFirstAllocator",
    "SimJob",
    "Simulation",
    "SimulationResult",
    "SingleRouterExperiment",
    "TrafficInjector",
    "VIXAllocator",
    "WavefrontAllocator",
    "__version__",
    "channel_loads",
    "make_allocator",
    "make_pattern",
    "make_topology",
    "paper_config",
    "run_sim_jobs",
    "run_simulation",
    "saturation_bound",
    "saturation_throughput",
]
