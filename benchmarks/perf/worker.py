"""Child interpreter of the benchmark: one mode per invocation.

``run.py`` starts this file in a fresh interpreter with every ``REPRO_*``
variable scrubbed.  Modes:

* ``setup``   — import ``repro`` and construct everything one pass of the
  workload needs, up to but not including the first simulated cycle;
  prints the seconds that took (one ``setup_s`` sample);
* ``import``  — time ``import repro.cli`` (one ``cli.import_s`` sample);
* ``measure`` — warm up, run the timed passes (or the traced pass), the
  warm-cache replays and the correctness checks; prints one JSON object.
"""

from __future__ import annotations

import os
import time


def _stolen() -> float:
    """Seconds the hypervisor has run something else on this guest's vCPUs."""
    try:
        with open("/proc/stat") as handle:
            return int(handle.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0  # no /proc/stat or no steal column: nothing to exclude


class HostTimer:
    """Host seconds since construction, hypervisor steal excluded.

    The benchmark runs one busy thread, so the guest's steal time is time
    that thread sat runnable while the host ran another tenant: minutes-long
    episodes of it (3-4x slowdowns) occur on the shared box this was written
    on.  It is not time the program took, and outside a VM it is zero.
    """

    def __init__(self) -> None:
        self._stolen = _stolen()
        self._start = time.perf_counter()

    def seconds(self) -> float:
        elapsed = time.perf_counter() - self._start
        return max(elapsed - (_stolen() - self._stolen), 0.0)


_SINCE_START = HostTimer()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from manifest import (  # noqa: E402
    PAPER_VIX_GAIN_PCT,
    SINGLES,
    SPANS,
    SRC,
    WARM_REPLAY_BATCH_SECONDS,
    WARM_REPLAYS,
)

sys.path.insert(0, str(SRC))


#: Counters that describe the engine rather than the simulated network;
#: engines agree on everything else (the repository's equivalence contract).
ENGINE_COUNTERS = ("router_wakeups", "cycles_skipped", "vec_kernel_cycles")


def digest(result, *, across_engines: bool = False) -> str:
    """Canonical SHA-256 of one ``SimulationResult``.

    ``across_engines`` leaves out the engine-bookkeeping counters, for
    comparing two engines rather than two runs of one.
    """
    from repro.parallel import result_to_jsonable

    data = result_to_jsonable(result)
    if across_engines:
        for key in ENGINE_COUNTERS:
            data["counters"].pop(key, None)
    payload = json.dumps(data, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def report_body(report: str) -> str:
    """A report minus its ``[perf_counters]`` line (which holds wall time)."""
    return "\n".join(
        line for line in report.splitlines() if not line.startswith("[perf_counters]")
    )


class Tally:
    """Scenario runs attempted, and the ones that failed a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def conserved(self, result, what: str) -> None:
        """Whole-run flit conservation from the result's own counters."""
        c = result.counters
        self.check(
            c["packets_ejected"] * result.packet_length
            <= c["flits_ejected"]
            <= c["xbar_traversals"]
            == c["buffer_reads"]
            <= c["buffer_writes"]
            and result.packets_ejected <= c["packets_ejected"],
            f"{what}: flit conservation violated ({c})",
        )


def _mean(values) -> float:
    finite = [v for v in values if math.isfinite(v)]
    return sum(finite) / len(finite) if finite else 0.0


def model_metrics(jobs, results) -> dict[str, float]:
    """Simulated statistics of one pass; they repeat exactly for a seed."""
    counter = lambda key: sum(r.counters.get(key, 0) for r in results)  # noqa: E731
    cycles = counter("cycles")
    out = {
        "model.cycles": cycles,
        "model.xbar_traversals": counter("xbar_traversals"),
        "model.packets_ejected": sum(r.packets_ejected for r in results),
        "model.throughput_flits_per_node": _mean(
            r.throughput_flits_per_node for r in results
        ),
        "model.avg_latency_cycles": _mean(r.avg_latency for r in results),
        "model.p99_latency_cycles": max(
            (r.latency_p99 for r in results if math.isfinite(r.latency_p99)),
            default=0.0,
        ),
        "model.cycles_skipped": counter("cycles_skipped"),
        "model.router_wakeups": counter("router_wakeups"),
        "model.interchip_flits": counter("interchip_flits"),
        "model.vec_kernel_cycle_frac": counter("vec_kernel_cycles") / cycles,
        "model.vix_gain_pct": 0.0,
        "model.vix_gain_err_pp": 0.0,
    }
    # The paper's reference is the gain with fully backlogged sources.
    saturated = {
        job.config.router.allocator: result.throughput_flits_per_node
        for job, result in zip(jobs, results)
        if job.injection_rate == 1.0
    }
    if {"vix", "input_first"} <= saturated.keys():
        gain = 100.0 * (saturated["vix"] / saturated["input_first"] - 1.0)
        out["model.vix_gain_pct"] = gain
        out["model.vix_gain_err_pp"] = abs(gain - PAPER_VIX_GAIN_PCT)
    return out


def layer_metrics(tracer, region_s: float, region_self_s: float, results) -> dict:
    """Per-layer metrics of the traced region (pass + warm replays)."""
    out: dict[str, float] = {}
    self_s = {}
    for span in SPANS:
        calls, self_ns, _ = tracer.agg[span]
        self_s[span] = self_ns / 1e9
        out[f"{span}.calls"] = calls
        out[f"{span}.self_s"] = self_s[span]
        out[f"{span}.share"] = self_s[span] / region_s
    jobs_s = sorted(ns / 1e9 for ns in tracer.job_ns)
    out["parallel.job_run.median_s"] = jobs_s[len(jobs_s) // 2] if jobs_s else 0.0
    out["parallel.job_run.max_s"] = jobs_s[-1] if jobs_s else 0.0
    out["harness.traced_wall_s"] = region_s
    out["harness.unattributed_s"] = region_s - region_self_s
    out["harness.unattributed_share"] = (region_s - region_self_s) / region_s

    def frac(hits: float, calls: float) -> float:
        return hits / calls if calls else 0.0

    agg = tracer.agg
    out["sim.vec.grant_cycle_frac"] = frac(
        agg["sim.vec.apply_grants"][0], agg["sim.vec.allocate"][0]
    )
    out["network.sa_grant_frac"] = frac(
        agg["network.switch_allocate"][2], agg["network.switch_allocate"][0]
    )
    out["parallel.cache_hit_frac"] = frac(
        agg["parallel.cache_get"][2], agg["parallel.cache_get"][0]
    )
    vec_s = sum(
        self_s[f"sim.vec.{phase}"]
        for phase in ("deliver", "ni_phase", "allocate", "va_kernel", "sa_kernel",
                      "apply_grants")
    )
    kernel_cycles = sum(r.counters.get("vec_kernel_cycles", 0) for r in results)
    hops = sum(r.counters["xbar_traversals"] for r in results)
    out["sim.vec.us_per_kernel_cycle"] = frac(vec_s * 1e6, kernel_cycles)
    out["sim.vec.ns_per_flit_hop"] = frac(vec_s * 1e9, hops) if kernel_cycles else 0.0
    router_s = (
        self_s["network.vc_allocate"]
        + self_s["network.switch_allocate"]
        + sum(s for span, s in self_s.items() if span.startswith("core.allocate."))
    )
    out["network.us_per_router_visit"] = frac(
        router_s * 1e6, agg["network.switch_allocate"][0]
    )
    return out


def measure(args) -> dict:
    import numpy
    from shims import Tracer, traced
    from workloads import WORKLOADS, check_jobs

    workload = WORKLOADS[args.workload]
    tally = Tally()
    caches = (str(Path(args.work) / f"cache-{i}") for i in itertools.count())
    jobs = workload.jobs(args.seed)
    n = len(jobs)

    # Short-window run on the engine under test: the first half of the
    # cross-engine check, and the warm-up of every code path a pass takes.
    checks = [check_jobs(job, workload.check_window) for job in jobs]
    short_digests = [digest(short.run(), across_engines=True) for short, _ in checks]

    # Timed untraced passes: fresh engines and a fresh cache directory each.
    walls, cycles, hops = [], [], []
    first = None
    started = time.perf_counter()
    while True:
        current = workload.new_pass(args.seed, next(caches))
        timer = HostTimer()
        results = current.run()
        walls.append(timer.seconds())
        cycles.append(sum(r.cycles for r in results))
        hops.append(sum(r.counters["xbar_traversals"] for r in results))
        digests = [digest(r) for r in results]
        tally.attempted += n
        for i, result in enumerate(results):
            tally.conserved(result, f"pass {len(walls)} scenario {i}")
        if first is None:
            first = digests
        tally.check(digests == first, f"pass {len(walls)} digests differ from pass 1")
        if args.trace or time.perf_counter() - started >= args.seconds:
            break

    layer: dict[str, float] = {}
    bases: dict[str, str] = {}
    replay_ms: list[float] = []
    replays = []

    def replay_all(pass_, batch_seconds: float) -> str | None:
        """Store ``results`` in the cache, then take WARM_REPLAYS samples, each
        the mean of one batch of replays; returns the cold pass's report.

        A replay takes a millisecond; batches stretch the measurement over
        enough time to see the host's typical state rather than one moment,
        and are long enough for the steal counter's 10 ms ticks.
        """
        cold_report = pass_.report
        pass_.store(results)
        for _ in range(WARM_REPLAYS):
            timer = HostTimer()
            batch_end = time.perf_counter() + batch_seconds
            count = 0
            while True:
                replayed = pass_.replay()
                count += 1
                if time.perf_counter() >= batch_end:
                    break
            replay_ms.append(1000.0 * timer.seconds() / count)
            # Every replay reads the same files: check the first and last.
            del replays[1:]
            replays.append((replayed, pass_.report))
        return cold_report

    if args.trace:
        tracer = Tracer()
        with traced(tracer):
            current = workload.new_pass(args.seed, next(caches), tracer.begin_scenario)
            setup_self = tracer.self_ns()
            t0 = time.perf_counter()
            results = current.run()
            traced_wall = time.perf_counter() - t0
            cold_report = replay_all(current, 0.0)
            region = time.perf_counter() - t0
            region_self = (tracer.self_ns() - setup_self) / 1e9
        tally.attempted += n
        tally.check(
            [digest(r) for r in results] == first,
            "traced pass digests differ from the untraced pass",
        )
        layer.update(layer_metrics(tracer, region, region_self, results))
        layer.update(model_metrics(jobs, results))
        # A ratio this workload does not measure (Workload.ratios) reads 0.
        layer.update({name: 0.0 for name, unit, _ in SINGLES if unit == "ratio"})
        layer["harness.trace_overhead_ratio"] = traced_wall / walls[0]
        bases["harness.trace_overhead_ratio"] = (
            f"traced pass {traced_wall:.3f} s / untraced pass {walls[0]:.3f} s"
        )
        for name, (value, base) in workload.ratios(jobs, walls[0]).items():
            layer[name] = value
            bases[name] = base
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_trace(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        cold_report = replay_all(current, WARM_REPLAY_BATCH_SECONDS)
    # High-water mark of everything a user of the workload runs; the
    # reference-engine check below is the harness's own and comes after.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for replayed, report in replays:
        tally.attempted += n
        tally.check(
            [digest(r) for r in replayed] == first,
            "warm replay digests differ from the cold pass",
        )
        if cold_report is not None:
            tally.check(
                report_body(report) == report_body(cold_report),
                "warm report body differs from the cold report",
            )

    for i, (_, reference) in enumerate(checks):
        tally.attempted += 1
        tally.check(
            digest(reference.run(), across_engines=True) == short_digests[i],
            f"scenario {i}: engine under test and {reference.engine or 'reference'} "
            f"disagree on the {workload.check_window} window",
        )

    if args.trace:
        layer["harness.ops_failed_frac"] = len(tally.failures) / tally.attempted
    return {
        "samples": {
            "wall_s": walls,
            "sim_cycles_per_s": [c / w for c, w in zip(cycles, walls)],
            "flit_hops_per_s": [h / w for h, w in zip(hops, walls)],
            "jobs_per_s": [n / w for w in walls],
            "warm_replay_ms": replay_ms,
            "peak_rss_mb": [rss_mb],
        },
        "layer": layer,
        "bases": bases,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "failures": tally.failures,
        "digest": hashlib.sha256("".join(first).encode()).hexdigest(),
        "scenarios": n,
        "numpy": numpy.__version__,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "import", "measure"), required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out")
    args = parser.parse_args()

    if args.mode == "import":
        t0 = time.perf_counter()
        import repro.cli  # noqa: F401

        print(json.dumps({"seconds": time.perf_counter() - t0}))
    elif args.mode == "setup":
        from workloads import WORKLOADS

        WORKLOADS[args.workload].new_pass(
            args.seed, str(Path(args.work) / f"setup-{os.getpid()}")
        )
        print(json.dumps({"seconds": _SINCE_START.seconds()}))
    else:
        print(json.dumps(measure(args)))


if __name__ == "__main__":
    main()
