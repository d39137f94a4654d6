"""The four workloads: their inputs, and how one pass over them runs.

Every workload is a list of scenarios (``SimJob`` descriptions generated
from the seed); the program under test receives nothing else.  Set-up
(building engines, the experiment spec, the cache directory) happens when a
pass object is constructed; only ``run()`` is timed.  The workload names
are fixed — ``manifest.WORKLOADS`` says why each exists.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass
from typing import Callable

from shims import scenario_label

# Callables the traced pass wraps are reached through their modules, never
# imported by name: a by-name alias here would keep pointing at the
# unwrapped function after shims.install().
import repro.parallel as parallel
import repro.sim.engines as sim_engines
from repro import paper_config
from repro.experiments import fig8_mesh
from repro.experiments.runner import FAST
from repro.network.links import PartitionConfig
from repro.obs import ObservabilityConfig
from repro.parallel import ResultCache, SimJob
from repro.registry import engines as engine_registry
from repro.sim.engines import DOMAIN_PARTITIONED, OBJECT_STEPPING

#: Uniform-traffic saturation of the 8x8 mesh baseline (packets/node/cycle);
#: the legacy BENCH_PR7/PR10 points are fractions of it.
SATURATION_RATE = 0.105
MESH_ALLOCATORS = ("input_first", "vix")
F8_RATES = (0.02, 0.09)


def _config(allocator: str, topology: str = "mesh", terminals: int = 64):
    return dataclasses.replace(
        paper_config(allocator, topology=topology), num_terminals=terminals
    )


def _mesh8_sat(seed: int) -> list[SimJob]:
    return [
        SimJob(
            _config(allocator),
            injection_rate=SATURATION_RATE,
            seed=seed,
            warmup=1000,
            measure=3000,
            engine="vectorized",
        )
        for allocator in MESH_ALLOCATORS
    ]


def _mesh8_low(seed: int) -> list[SimJob]:
    return [
        SimJob(
            _config(allocator),
            injection_rate=round(load * SATURATION_RATE, 6),
            seed=seed,
            warmup=1000,
            measure=6000,
            engine="vectorized",
        )
        for allocator in MESH_ALLOCATORS
        for load in (0.05, 0.2)
    ]


def _cmesh16_chiplet(seed: int) -> list[SimJob]:
    return [
        SimJob(
            _config("vix", "cmesh", 1024),
            injection_rate=SATURATION_RATE,
            seed=seed,
            warmup=500,
            measure=1500,
            drain_limit=0,
            partition=PartitionConfig(
                dims=(2, 2), link_latency=4, domain_engine="vectorized", workers=1
            ),
        )
    ]


def _f8_spec(seed: int):
    return fig8_mesh.spec(rates=F8_RATES, seed=seed, fast=True)


def _f8_sweep(seed: int) -> list[SimJob]:
    return [
        scenario.sim_job(FAST.warmup, FAST.measure, seed)
        for scenario in _f8_spec(seed).scenarios
    ]


def run_engine(job: SimJob, engine):
    """Run an engine built by :func:`build_engine` on ``job``'s windows."""
    return engine.run(
        warmup=job.warmup, measure=job.measure, drain_limit=job.drain_limit
    )


def _timed_run(job: SimJob, **engine_kwargs) -> float:
    """Host seconds of one ``.run()`` of ``job`` (set-up excluded)."""
    engine = build_engine(job, **engine_kwargs)
    t0 = time.perf_counter()
    run_engine(job, engine)
    return time.perf_counter() - t0


def _no_ratios(jobs, pass_wall: float) -> dict:
    return {}


def _sat_ratios(jobs, pass_wall: float) -> dict:
    """Cost of asking the vectorized engine for metrics (it delegates to the
    gated object engine when observed), on the VIX scenario."""
    vix = next(job for job in jobs if job.config.router.allocator == "vix")
    plain = _timed_run(vix)
    observed = _timed_run(vix, obs=ObservabilityConfig(metrics=True))
    return {
        "obs.metrics_on_ratio": (
            observed / plain,
            f"metrics on {observed:.3f} s / plain {plain:.3f} s (VIX scenario)",
        )
    }


def _chiplet_ratios(jobs, pass_wall: float) -> dict:
    """Partition-layer cost against the monolithic engine and 2 workers."""
    (job,) = jobs
    mono = _timed_run(dataclasses.replace(job, partition=None, engine="vectorized"))
    out = {
        "sim.partition.overhead_ratio": (
            pass_wall / mono,
            f"partitioned serial {pass_wall:.3f} s / monolithic vectorized {mono:.3f} s",
        )
    }
    if (os.cpu_count() or 1) >= 2:
        two = _timed_run(
            dataclasses.replace(
                job, partition=dataclasses.replace(job.partition, workers=2)
            )
        )
        out["sim.partition.workers2_ratio"] = (
            two / pass_wall,
            f"workers=2 {two:.3f} s / serial {pass_wall:.3f} s",
        )
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    #: seed -> the scenarios of one pass.
    jobs: Callable[[int], list[SimJob]]
    #: (warmup, measure) of the short cross-engine check run.  300+600
    #: where the reference object engine affords it inside the run-time
    #: cap; shorter on the two workloads where it is 3-5x slower per cycle
    #: than the pass itself.
    check_window: tuple[int, int]
    #: True for the workload that runs through the experiment driver.
    sweep: bool = False
    #: (scenarios, untraced pass wall) -> {ratio metric: (value, its base)};
    #: the extra runs of the traced invocation.
    ratios: Callable = _no_ratios

    def new_pass(self, seed: int, cache_dir: str, begin_scenario=None):
        """Set up one pass (untimed); ``run()`` on the result is the pass."""
        cls = SweepPass if self.sweep else EnginePass
        return cls(self.jobs(seed), seed, cache_dir, begin_scenario)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mesh8_sat", _mesh8_sat, (300, 600), ratios=_sat_ratios),
        Workload("mesh8_low", _mesh8_low, (300, 600)),
        Workload("cmesh16_chiplet", _cmesh16_chiplet, (100, 200), ratios=_chiplet_ratios),
        Workload("f8_sweep", _f8_sweep, (50, 100), sweep=True),
    )
}


def build_engine(job: SimJob, **engine_kwargs):
    """The engine object ``job.run()`` would build, without running it."""
    kwargs = dict(
        **engine_kwargs,
        pattern=job.pattern,
        injection_rate=job.injection_rate,
        packet_length=job.packet_length,
        seed=job.seed,
    )
    if job.partition is not None:
        return sim_engines.make_engine(
            "partitioned", job.config, partition=job.partition, **kwargs
        )
    return sim_engines.make_engine(job.engine, job.config, **kwargs)


class EnginePass:
    """One pass over engines the harness builds itself (set-up excluded)."""

    report = None

    def __init__(self, jobs, seed, cache_dir, begin_scenario=None) -> None:
        self.jobs = jobs
        self.cache = ResultCache(cache_dir)
        self._begin = begin_scenario
        self._engines = [build_engine(job) for job in jobs]

    def run(self) -> list:
        results = []
        for job, engine in zip(self.jobs, self._engines):
            if self._begin is not None:
                self._begin(scenario_label(job))
            results.append(run_engine(job, engine))
        return results

    def store(self, results) -> None:
        """Make the pass's results replayable from the result cache."""
        for job, result in zip(self.jobs, results):
            self.cache.put(job.key(), result)

    def replay(self) -> list:
        """Serve the whole pass from the warm cache through the runner."""
        return parallel.run_sim_jobs(self.jobs, jobs=1, cache=self.cache)


class SweepPass:
    """One ``fig8_mesh.run`` + ``report`` through spec, runner, cache, journal."""

    def __init__(self, jobs, seed, cache_dir, begin_scenario=None) -> None:
        self.seed = seed
        self.report: str | None = None
        # The driver resolves its cache from the environment; this is the
        # only REPRO_* variable the harness ever sets.
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        os.makedirs(cache_dir, exist_ok=True)
        self.spec = _f8_spec(seed)
        self.spec.content_key()

    def run(self) -> list:
        result = fig8_mesh.run(rates=F8_RATES, seed=self.seed, fast=True, jobs=1)
        self.report = fig8_mesh.report(result)
        ordered = []
        for scenario in self.spec.scenarios:
            tag, allocator = scenario.key[0], scenario.key[1]
            if tag == "saturation":
                ordered.append(result.saturation[allocator])
            else:
                ordered.append(
                    result.curves[allocator][F8_RATES.index(scenario.key[2])]
                )
        return ordered

    def store(self, results) -> None:
        """The cold pass already wrote every result through the runner."""

    replay = run


def reference_engine() -> str:
    """The first registered object-stepping engine that is not partitioned."""
    for info in engine_registry.infos():
        if OBJECT_STEPPING in info.flags and DOMAIN_PARTITIONED not in info.flags:
            return info.name
    raise LookupError("no object-stepping engine is registered")


def check_jobs(job: SimJob, window: tuple[int, int]) -> tuple[SimJob, SimJob]:
    """``job`` on the short check window: (engine under test, reference).

    A partitioned scenario keeps its partition and swaps the domain engine,
    since the link latency is part of the simulated result.
    """
    short = dataclasses.replace(job, warmup=window[0], measure=window[1])
    reference = reference_engine()
    if job.partition is not None:
        return short, dataclasses.replace(
            short,
            partition=dataclasses.replace(job.partition, domain_engine=reference),
        )
    return short, dataclasses.replace(short, engine=reference)
