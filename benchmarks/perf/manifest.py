"""Names, units, directions and bounds of everything the benchmark reports.

This module is the one place a workload, span or metric is declared;
``BENCHMARK.json`` at the repository root is ``manifest()`` written out
(``python3 benchmarks/perf/manifest.py > BENCHMARK.json`` regenerates it,
``test_harness.py`` fails when the two drift apart).  It imports nothing
from ``repro`` so the orchestrator can read it before any child starts.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Seconds one run measures (``run_seconds``): timed passes are started
#: until this much time has gone into them, so the last one ends past it
#: (a cold ``f8_sweep`` pass alone is longer).
RUN_SECONDS = 12

#: Fresh interpreters timed for ``setup_s`` (after one that primes bytecode).
SETUP_SAMPLES = 5
#: Samples of ``warm_replay_ms``; untraced, each is the mean over a batch of
#: replays this long (traced: one replay per sample).
WARM_REPLAYS = 30
WARM_REPLAY_BATCH_SECONDS = 0.05
#: Stepped cycles per scenario whose raw spans go to the trace file.
RAW_SPAN_CYCLES = 200

#: The paper's Figure 8 VIX-over-input-first saturation throughput gain (%).
PAPER_VIX_GAIN_PCT = 16.2

WORKLOADS = (
    (
        "mesh8_sat",
        "8x8 mesh at the BENCH_PR7 saturation point on the vectorized engine: "
        "SoA kernels on small arrays, so per-call interpreter overhead dominates",
    ),
    (
        "mesh8_low",
        "same fabric at 0.05x/0.2x load: the vectorized engine delegates to the "
        "object router/NI code, so a saturation-only kernel win must leave it flat",
    ),
    (
        "cmesh16_chiplet",
        "16x16 CMesh, 2x2 vectorized chiplet domains: the same kernels on 16x "
        "larger arrays (bandwidth-bound) plus domain stepping and inter-chip links",
    ),
    (
        "f8_sweep",
        "what `python -m repro f8` users pay: 12 jobs through spec/runner/cache/"
        "journal on the object engine incl. wavefront and augmenting-path, cold+warm",
    ),
)

#: (name, unit, better, bound).  All host time or host memory.  Every
#: workload reports every metric; see README.md for the definitions.
#:
#: The time bounds are the contract's maximum because of what ten runs with
#: ten seeds spread by on the shared 2-vCPU box this was written on: the
#: quartiles of ``wall_s`` sit 5-11 % of the median apart on a typical hour
#: and up to 20 % on a noisy one (the host's speed drifts over minutes; on
#: ``mesh8_sat`` the seed itself moves the simulated drain length by 9 %).
#: A tighter bound would report noise as regressions.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("sim_cycles_per_s", "cycles/s", "higher", 0.25),
    ("flit_hops_per_s", "hops/s", "higher", 0.25),
    ("jobs_per_s", "jobs/s", "higher", 0.25),
    ("warm_replay_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

#: Spans the traced pass records, in layer order.  Each yields
#: ``<span>.calls``, ``<span>.self_s`` and ``<span>.share``.
SPANS = (
    "traffic.tick",
    "sim.vec.deliver",
    "sim.vec.ni_phase",
    "sim.vec.allocate",
    "sim.vec.va_kernel",
    "sim.vec.sa_kernel",
    "sim.vec.apply_grants",
    "sim.vec.build_state",
    "network.step",
    "network.ni_next_flit",
    "network.vc_allocate",
    "network.switch_allocate",
    "network.build",
    "core.allocate.input_first",
    "core.allocate.wavefront",
    "core.allocate.augmenting_path",
    "core.allocate.vix",
    "sim.run",
    "sim.make_engine",
    "sim.partition.domain_step",
    "sim.partition.link_send_flit",
    "sim.partition.link_send_credit",
    "sim.partition.build",
    "parallel.job_key",
    "parallel.cache_get",
    "parallel.cache_put",
    "parallel.journal_record",
    "parallel.job_run",
    "parallel.run_sim_jobs",
    "experiments.spec_build",
    "experiments.execute_spec",
    "experiments.report",
)

#: Single-valued per-layer metrics: (name, unit, better).  0 means "not
#: measured on this workload" for the ratios and cost-per-unit metrics.
#: The direction of a ``model.*`` counter is nominal: it is a simulated
#: statistic that must repeat exactly, not something to optimise.
SINGLES = (
    ("parallel.job_run.median_s", "s", "lower"),
    ("parallel.job_run.max_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("sim.partition.overhead_ratio", "ratio", "lower"),
    ("sim.partition.workers2_ratio", "ratio", "lower"),
    ("obs.metrics_on_ratio", "ratio", "lower"),
    ("harness.trace_overhead_ratio", "ratio", "lower"),
    ("sim.vec.grant_cycle_frac", "fraction", "higher"),
    ("network.sa_grant_frac", "fraction", "higher"),
    ("parallel.cache_hit_frac", "fraction", "higher"),
    ("sim.vec.us_per_kernel_cycle", "us", "lower"),
    ("sim.vec.ns_per_flit_hop", "ns", "lower"),
    ("network.us_per_router_visit", "us", "lower"),
    ("model.cycles", "cycles", "lower"),
    ("model.xbar_traversals", "hops", "higher"),
    ("model.packets_ejected", "packets", "higher"),
    ("model.throughput_flits_per_node", "flits/cyc/node", "higher"),
    ("model.avg_latency_cycles", "cycles", "lower"),
    ("model.p99_latency_cycles", "cycles", "lower"),
    ("model.cycles_skipped", "cycles", "higher"),
    ("model.router_wakeups", "count", "lower"),
    ("model.interchip_flits", "flits", "higher"),
    ("model.vec_kernel_cycle_frac", "fraction", "higher"),
    ("model.vix_gain_pct", "%", "higher"),
    ("model.vix_gain_err_pp", "pp", "lower"),
    ("harness.traced_wall_s", "s", "lower"),
    ("harness.unattributed_s", "s", "lower"),
    ("harness.unattributed_share", "fraction", "lower"),
    ("harness.ops_failed_frac", "fraction", "lower"),
)

SPAN_FIELDS = (("calls", "count"), ("self_s", "s"), ("share", "fraction"))


def per_layer() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    spans = [
        (f"{span}.{field}", unit, "lower")
        for span in SPANS
        for field, unit in SPAN_FIELDS
    ]
    return spans + list(SINGLES)


def units() -> dict[str, str]:
    """Metric name -> unit, end to end and per layer."""
    table = {name: unit for name, unit, _, _ in END_TO_END}
    table.update({name: unit for name, unit, _ in per_layer()})
    return table


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in per_layer()
        ],
    }


if __name__ == "__main__":
    print(json.dumps(manifest(), indent=2))
