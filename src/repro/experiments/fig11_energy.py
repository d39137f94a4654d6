"""Experiment F11 — Figure 11: network energy per bit.

Runs the mesh at 0.1 packets/cycle/node (the paper's operating point),
collects activity factors, and folds them into the component energy
models.  Expected result: VIX raises the crossbar component (bigger
``2P x P`` crossbar) for a total energy/bit increase of ~4%; every other
component is essentially unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy import ActivityCounters, EnergyBreakdown, EnergyModel
from repro.parallel import ExecutionStats

from .runner import execute_spec, format_table, improvement, perf_footer
from .spec import ExperimentSpec, ScenarioSpec

TITLE = "Figure 11 — network energy per bit"

SCHEMES = ("input_first", "vix")
#: Local display names (the figure contrasts "Baseline (IF)" with VIX).
LABELS = {"input_first": "Baseline (IF)", "vix": "VIX"}
COMPONENTS = ("buffer", "crossbar", "link", "clock", "leakage")

#: The paper's reported total energy/bit overhead for VIX on the mesh.
PAPER_TOTAL_OVERHEAD = 0.04


@dataclass
class Fig11Result:
    """Energy breakdowns (pJ/bit components) per scheme."""

    breakdowns: dict[str, EnergyBreakdown]
    perf: ExecutionStats | None = None

    def per_bit(self, scheme: str) -> float:
        return self.breakdowns[scheme].per_bit

    def vix_total_overhead(self) -> float:
        """Total energy/bit increase of VIX over the IF baseline."""
        return improvement(self.per_bit("vix"), self.per_bit("input_first"))


def spec(
    *, injection_rate: float = 0.1, seed: int = 1, fast: bool | None = None
) -> ExperimentSpec:
    """The declarative description of the Figure 11 activity runs."""
    scenarios = tuple(
        ScenarioSpec(
            key=(scheme,),
            allocator=scheme,
            injection_rate=injection_rate,
            drain_limit=0,
        )
        for scheme in SCHEMES
    )
    return ExperimentSpec(
        name="f11", title=TITLE, scenarios=scenarios, seed=seed, fast=fast
    )


def run(
    *,
    injection_rate: float = 0.1,
    seed: int = 1,
    fast: bool | None = None,
    jobs: int | str | None = None,
) -> Fig11Result:
    """Simulate both configurations and evaluate the energy models."""
    experiment = spec(injection_rate=injection_rate, seed=seed, fast=fast)
    outcome = execute_spec(experiment, jobs=jobs)
    breakdowns: dict[str, EnergyBreakdown] = {}
    for scenario in experiment.scenarios:
        sim = outcome.values[scenario.key]
        cfg = scenario.network_config()
        counters = ActivityCounters.from_counters(sim.counters)
        model = EnergyModel(
            radix=5,
            num_vcs=cfg.router.num_vcs,
            buffer_depth=cfg.router.buffer_depth,
            virtual_inputs=cfg.router.effective_virtual_inputs,
            num_routers=64,
            flit_width_bits=cfg.flit_width_bits,
        )
        breakdowns[scenario.key[0]] = model.evaluate(counters)
    return Fig11Result(breakdowns=breakdowns, perf=outcome.stats)


def report(result: Fig11Result | None = None) -> str:
    """Render the experiment's rows as paper-style text."""
    result = result if result is not None else run()
    rows = []
    for scheme in SCHEMES:
        bd = result.breakdowns[scheme]
        comp = bd.per_bit_components()
        rows.append(
            [LABELS[scheme]]
            + [round(comp[c], 4) for c in COMPONENTS]
            + [round(bd.per_bit, 4)]
        )
    table = format_table(
        ["Configuration"] + [c.capitalize() for c in COMPONENTS] + ["Total"],
        rows,
    )
    text = (
        "Figure 11: network energy per bit (pJ/bit), mesh @ 0.1 pkt/cyc/node\n"
        + table
        + f"\nVIX total overhead: {result.vix_total_overhead():+.1%} "
        f"(paper: +{PAPER_TOTAL_OVERHEAD:.0%})"
    )
    footer = perf_footer(result.perf)
    if footer:
        text += "\n\n" + footer
    return text


def main() -> None:
    """CLI entry point: run at default fidelity and print the report."""
    print(report())


if __name__ == "__main__":
    main()
