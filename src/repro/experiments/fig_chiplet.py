"""Experiment CHIPLET — chiplet-partitioned 16x16 and 32x32 CMesh fabrics.

Beyond-paper extension: the DAC 2014 evaluation stops at monolithic 8x8
fabrics, but the switch-allocation question VIX answers gets sharper at
chiplet scale, where a large concentrated mesh is physically cut into an
n x m grid of silicon domains joined by inter-chip links.  This experiment
partitions 16x16 (2x2 chiplets) and 32x32 (4x4 chiplets) CMesh fabrics
with the ``grid`` partitioner and measures saturation throughput for IF
and VIX across a sweep of inter-chip link latencies.

Questions it answers:

* does VIX's throughput edge over IF survive at 32x32 scale, where the
  average hop count (and hence the number of switch-allocation conflicts
  per packet) is far higher than in the paper's 8x8 fabric?
* how quickly does added inter-chip latency erode fabric throughput —
  i.e. how much of the allocator's gain is protected by (or lost to) the
  boundary links' credit round-trip?

Every point runs on the ``partitioned`` engine (no domain engine named:
SoA-kernel domains where numpy imports, gated ones otherwise;
credit-modelled boundary links), so the sweep also serves
as a large-scale soak of the domain decomposition: flit conservation and
credit accounting hold by construction or the run does not complete.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.network.links import PartitionConfig
from repro.parallel import ExecutionStats
from repro.registry import allocators as allocator_registry
from repro.sim.engine import SimulationResult

from .runner import execute_spec, improvement, perf_footer
from .spec import ExperimentSpec, ScenarioSpec

TITLE = "Chiplet — partitioned 16x16/32x32 CMesh across inter-chip latencies"

#: The head-to-head pair the issue calls for: baseline vs the paper's scheme.
ALLOCATORS = ("input_first", "vix")
LABELS = allocator_registry.labels(ALLOCATORS)

#: Router-grid edge sizes; terminals = size^2 * 4 (CMesh concentration 4).
SIZES = (16, 32)
#: Chiplet grid per fabric size: 2x2 8x8-router chiplets at 16, 4x4 at 32.
PARTITION_DIMS = {16: (2, 2), 32: (4, 4)}
#: Inter-chip link latencies (cycles) swept per fabric size.
LATENCIES = (0, 4, 8)


@dataclass
class ChipletResult:
    """Saturation throughput per (size, allocator, link latency)."""

    sizes: tuple[int, ...]
    latencies: tuple[int, ...]
    #: (size, allocator, latency) -> saturation result.
    saturation: dict[tuple[int, str, int], SimulationResult] = field(
        default_factory=dict
    )
    #: Execution counters for the runs behind this result.
    perf: ExecutionStats | None = None

    def throughput(self, size: int, allocator: str, latency: int) -> float:
        return self.saturation[(size, allocator, latency)].throughput_flits_per_node

    def throughput_gain(
        self, size: int, latency: int, allocator: str = "vix", base: str = "input_first"
    ) -> float:
        """Relative saturation-throughput gain of ``allocator`` over ``base``."""
        return improvement(
            self.throughput(size, allocator, latency),
            self.throughput(size, base, latency),
        )


def spec(
    *,
    sizes: tuple[int, ...] = SIZES,
    latencies: tuple[int, ...] = LATENCIES,
    allocators: tuple[str, ...] = ALLOCATORS,
    seed: int = 1,
    fast: bool | None = None,
) -> ExperimentSpec:
    """The declarative description of the chiplet sweep."""
    scenarios: list[ScenarioSpec] = []
    for size in sizes:
        dims = PARTITION_DIMS.get(size, (2, 2))
        for alloc in allocators:
            name = allocator_registry.canonical(alloc)
            for latency in latencies:
                scenarios.append(
                    ScenarioSpec(
                        key=("sat", size, name, latency),
                        allocator=name,
                        topology="cmesh",
                        num_terminals=size * size * 4,
                        injection_rate=1.0,
                        drain_limit=0,
                        partition=PartitionConfig(dims=dims, link_latency=latency),
                    )
                )
    return ExperimentSpec(
        name="chiplet", title=TITLE, scenarios=tuple(scenarios), seed=seed, fast=fast
    )


def run(
    *,
    sizes: tuple[int, ...] = SIZES,
    latencies: tuple[int, ...] = LATENCIES,
    allocators: tuple[str, ...] = ALLOCATORS,
    seed: int = 1,
    fast: bool | None = None,
    jobs: int | str | None = None,
) -> ChipletResult:
    """Run the chiplet sweep (every point an independent partitioned job)."""
    experiment = spec(
        sizes=sizes, latencies=latencies, allocators=allocators, seed=seed, fast=fast
    )
    outcome = execute_spec(experiment, jobs=jobs)
    result = ChipletResult(sizes=tuple(sizes), latencies=tuple(latencies))
    for scenario in experiment.scenarios:
        _, size, alloc, latency = scenario.key
        result.saturation[(size, alloc, latency)] = outcome.values[scenario.key]
    result.perf = outcome.stats
    return result


def report(result: ChipletResult | None = None) -> str:
    """Render the experiment's rows as paper-style text."""
    result = result if result is not None else run()
    allocs = sorted(
        {k[1] for k in result.saturation},
        key=lambda a: (ALLOCATORS.index(a) if a in ALLOCATORS else len(ALLOCATORS), a),
    )
    lines = [
        "Chiplet fabrics: saturation throughput (flits/cycle/node) vs"
        " inter-chip link latency"
    ]
    for size in result.sizes:
        dims = PARTITION_DIMS.get(size, (2, 2))
        lines.append("")
        lines.append(
            f"  {size}x{size} CMesh, {dims[0]}x{dims[1]} chiplets"
            f" ({size * size * 4} terminals):"
        )
        header = ["link latency"] + [LABELS.get(a, a) for a in allocs]
        if len(allocs) >= 2:
            header.append("gain")
        lines.append("    " + "  ".join(f"{h:>12s}" for h in header))
        for latency in result.latencies:
            row = [f"{latency:>12d}"]
            for alloc in allocs:
                row.append(f"{result.throughput(size, alloc, latency):>12.3f}")
            if len(allocs) >= 2:
                gain = result.throughput_gain(
                    size, latency, allocator=allocs[-1], base=allocs[0]
                )
                row.append(f"{gain:>+12.1%}")
            lines.append("    " + "  ".join(row))
    sample = next(iter(result.saturation.values()), None)
    if sample is not None and "partition_domains" in sample.counters:
        lines.append("")
        lines.append(
            "  (each point ran on the partitioned engine: "
            f"{sample.counters['partition_domains']}+ domains, inter-chip "
            "flit/credit counters in each run's [perf_counters] footer)"
        )
    footer = perf_footer(result.perf)
    if footer:
        lines.extend(["", footer])
    return "\n".join(lines)


def main() -> None:
    """CLI entry point: run at default fidelity and print the report."""
    print(report())


if __name__ == "__main__":
    main()
