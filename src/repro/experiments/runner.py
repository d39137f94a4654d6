"""Shared experiment infrastructure: fidelity presets, the spec executor,
and table printing.

Every experiment driver supports two fidelity levels:

* **fast** (default) — reduced cycle counts so the whole suite regenerates
  in minutes on a laptop; trends and rankings are stable at this level;
* **full** — paper-fidelity run lengths, selected by setting the
  environment variable ``REPRO_FULL=1`` (or passing ``fast=False``).

:func:`execute_spec` is the single execution path behind every driver: it
takes a declarative :class:`~repro.experiments.spec.ExperimentSpec`,
realizes each scenario according to its kind (cached network fan-out,
parallel single-router/manycore workers, inline analytic models), and
returns the results keyed by scenario slot plus merged execution counters.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro import settings
from repro.experiments.spec import ExperimentSpec, ScenarioSpec
from repro.obs import ObservabilityConfig, TelemetryConfig
from repro.parallel import (
    ExecutionStats,
    ParallelRunner,
    RunJournal,
    journal_path,
    run_sim_jobs,
)


@dataclass(frozen=True)
class RunLengths:
    """Warmup/measurement windows for network simulations."""

    warmup: int
    measure: int
    single_router_cycles: int
    manycore_warmup: int
    manycore_measure: int


FAST = RunLengths(
    warmup=500,
    measure=1500,
    single_router_cycles=2000,
    manycore_warmup=1000,
    manycore_measure=3000,
)
FULL = RunLengths(
    warmup=2000,
    measure=8000,
    single_router_cycles=20000,
    manycore_warmup=3000,
    manycore_measure=12000,
)


def full_fidelity_requested() -> bool:
    """True when the environment asks for paper-fidelity run lengths."""
    return settings.get("REPRO_FULL")


def resume_requested() -> bool:
    """True when the environment asks to resume an interrupted sweep.

    Set by the ``--resume`` CLI flag (``REPRO_RESUME=1``): jobs recorded
    complete in the spec's run journal are served from the cache instead
    of re-executed, and everything else runs as usual.
    """
    return settings.get("REPRO_RESUME")


def run_lengths(fast: bool | None = None) -> RunLengths:
    """Resolve the fidelity level (explicit argument beats environment)."""
    if fast is None:
        fast = not full_fidelity_requested()
    return FAST if fast else FULL


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned plain-text table (paper-style row printer)."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, header has {len(headers)}"
            )
        cells.append(
            [f"{c:.3f}" if isinstance(c, float) else str(c) for c in row]
        )
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def perf_footer(stats: ExecutionStats | None) -> str:
    """Execution-counter footer appended under experiment tables.

    Empty when ``stats`` is ``None`` or nothing was executed (e.g. a table
    assembled entirely from pre-computed values), so legacy callers that
    never pass stats print unchanged output.
    """
    if stats is None:
        return ""
    counters = stats.as_dict()
    if not any(counters.values()):
        return ""
    return f"[perf_counters] {stats.summary()}"


def improvement(new: float, base: float) -> float:
    """Relative improvement of ``new`` over ``base`` (0.16 = +16%)."""
    if base == 0:
        raise ValueError("baseline value is zero")
    return new / base - 1.0


# --- the shared spec execution path ----------------------------------------


def _single_router_point(item: tuple) -> float:
    """Worker: one saturated single-router run (must be picklable)."""
    from repro.sim.single_router import SingleRouterExperiment

    allocator, radix, num_vcs, virtual_inputs, packet_length, seed, cycles, options = item
    exp = SingleRouterExperiment(
        allocator,
        radix=radix,
        num_vcs=num_vcs,
        virtual_inputs=virtual_inputs,
        packet_length=packet_length,
        seed=seed,
        allocator_options=dict(options),
    )
    return exp.run(cycles).throughput


def _manycore_point(item: tuple) -> tuple[float, float]:
    """Worker: one (mix, config) manycore run (must be picklable)."""
    from repro.manycore import ManycoreSystem, get_mix

    config, mix_name, seed, warmup, measure = item
    system = ManycoreSystem(config, get_mix(mix_name), seed=seed)
    res = system.run(warmup=warmup, measure=measure)
    return res.aggregate_ipc, res.avg_network_latency


def _analytic_value(scenario: ScenarioSpec) -> Any:
    """Evaluate one analytic-model scenario inline."""
    from repro.timing import allocator_delay, router_delays

    options = dict(scenario.options)
    if scenario.fn == "router_delays":
        return router_delays(**options)
    if scenario.fn == "allocator_delay":
        return allocator_delay(**options)
    raise ValueError(f"unknown analytic fn {scenario.fn!r}")


@dataclass
class SpecRun:
    """The outcome of executing one :class:`ExperimentSpec`.

    ``values`` maps each scenario's ``key`` to its kind-specific result:
    a :class:`~repro.sim.engine.SimulationResult` for network scenarios,
    throughput (flits/cycle) for single-router scenarios, an
    ``(aggregate IPC, avg network latency)`` pair for manycore scenarios,
    and the model's return value for analytic scenarios.
    """

    spec: ExperimentSpec
    values: dict = field(default_factory=dict)
    stats: ExecutionStats = field(default_factory=ExecutionStats)

    def __getitem__(self, key: Any) -> Any:
        return self.values[key]


def execute_spec(
    spec: ExperimentSpec,
    *,
    jobs: int | str | None = None,
    resume: bool | None = None,
) -> SpecRun:
    """Run every scenario of ``spec`` and return the keyed results.

    Scenarios execute grouped by kind — network simulations first (one
    cached :func:`~repro.parallel.run_sim_jobs` fan-out), then
    single-router and manycore workers (one parallel batch each), then the
    analytic models inline — with all execution counters merged into one
    :class:`~repro.parallel.ExecutionStats`.  Within each group, results
    preserve the spec's scenario order, so table formatters can iterate
    the spec itself.

    Network scenarios checkpoint per-job progress to a
    :class:`~repro.parallel.RunJournal` keyed by the spec's content key.
    With ``resume`` true (default: ``$REPRO_RESUME``, i.e. the
    ``--resume`` flag), jobs journaled complete by an interrupted earlier
    run are served from the result cache instead of re-executed;
    otherwise the journal restarts fresh.

    Run telemetry (:class:`~repro.obs.TelemetryConfig`, the ``--monitor``
    / ``--serve`` / ``--trace-export`` flags) attaches a
    :class:`~repro.obs.RunMonitor` to every runner this spec fans out:
    events stream to a JSONL file next to the journal, optionally to a
    live terminal line, an HTTP server, and a Chrome trace export after
    the run.  All of it observes execution only — with telemetry off (the
    default) every code path and every result byte is unchanged.
    """
    if resume is None:
        resume = resume_requested()
    lengths = run_lengths(spec.fast)
    run = SpecRun(spec=spec)

    telemetry = TelemetryConfig.from_env()
    monitor = server = None
    if telemetry.enabled:
        from repro.obs import (
            EventStream,
            RunMonitor,
            TelemetryServer,
            event_stream_path,
        )

        run_key = spec.content_key()
        stream = EventStream(event_stream_path(run_key))
        monitor = RunMonitor(
            stream=stream,
            live=telemetry.monitor,
            label=spec.name,
            run_key=run_key,
        )
        monitor.emit(
            "run_start", experiment=spec.name, scenarios=len(spec.scenarios)
        )
        if telemetry.serve is not None:
            server = TelemetryServer(monitor, port=telemetry.serve).start()
            print(f"[telemetry] serving {server.url}", file=sys.stderr)

    try:
        network = [s for s in spec.scenarios if s.kind == "network"]
        if network:
            sim_jobs = [
                s.sim_job(lengths.warmup, lengths.measure, spec.seed)
                for s in network
            ]
            path = journal_path(spec.content_key())
            resumed_keys = (
                RunJournal.completed_keys(path) if resume else frozenset()
            )
            journal = RunJournal(path, fresh=not resume)
            for scenario, res in zip(
                network,
                run_sim_jobs(
                    sim_jobs,
                    jobs=jobs,
                    stats=run.stats,
                    journal=journal,
                    resumed_keys=resumed_keys,
                    monitor=monitor,
                ),
            ):
                run.values[scenario.key] = res

        single = [s for s in spec.scenarios if s.kind == "single_router"]
        if single:
            runner = ParallelRunner(jobs, monitor=monitor)
            items = [
                (
                    s.allocator,
                    s.radix,
                    s.num_vcs,
                    s.virtual_inputs,
                    s.packet_length,
                    spec.seed,
                    s.cycles
                    if s.cycles is not None
                    else lengths.single_router_cycles,
                    s.options,
                )
                for s in single
            ]
            for scenario, value in zip(
                single, runner.map(_single_router_point, items)
            ):
                run.values[scenario.key] = value
            run.stats.merge(runner.stats)

        manycore = [s for s in spec.scenarios if s.kind == "manycore"]
        if manycore:
            runner = ParallelRunner(jobs, monitor=monitor)
            items = [
                (
                    s.network_config(),
                    s.mix,
                    spec.seed,
                    lengths.manycore_warmup,
                    lengths.manycore_measure,
                )
                for s in manycore
            ]
            for scenario, value in zip(
                manycore, runner.map(_manycore_point, items)
            ):
                run.values[scenario.key] = value
            run.stats.merge(runner.stats)

        analytic = [s for s in spec.scenarios if s.kind == "analytic"]
        if analytic:
            start = time.perf_counter()
            for scenario in analytic:
                run.values[scenario.key] = _analytic_value(scenario)
            run.stats.merge(
                ExecutionStats(
                    jobs_run=len(analytic),
                    wall_seconds=time.perf_counter() - start,
                )
            )
    finally:
        if monitor is not None:
            # Sequence run_finish after every worker event still in flight.
            monitor.flush()
            monitor.emit(
                "run_finish", experiment=spec.name, stats=run.stats.as_dict()
            )
            if server is not None:
                server.close()
            monitor.close()
            if telemetry.trace_export == "chrome":
                from repro.obs import export_chrome_trace

                out = telemetry.trace_export_out or f"{spec.name}_trace.json"
                export_chrome_trace(
                    monitor.stream.events(), out, experiment=spec.name
                )
                print(
                    f"[telemetry] chrome trace written to {out}", file=sys.stderr
                )

    obs = ObservabilityConfig.from_env()
    if obs.metrics and obs.metrics_path:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        run.stats.publish(registry)
        registry.export_jsonl(
            obs.metrics_path, experiment=spec.name, kind="execution_stats"
        )

    return run
