"""Span tracing from outside the program: wrap the layers' public callables.

The traced pass records a span around every call into a layer (see
``manifest.SPANS``) without touching ``src/``: :func:`install` replaces
class attributes and module globals with timing wrappers and
:func:`restore` puts the originals back.  Wrappers must be installed
*before* any engine is constructed — routers cache
``allocator.allocate_fast`` as a bound method and ``VecStepper`` binds its
switch-allocation kernel at init, so an engine built earlier keeps calling
the unwrapped code.  The untraced run imports this module and installs
nothing.

A span's *self time* is its duration minus the part its child spans cover;
self times therefore sum to the duration of the outermost spans.  Spans
are aggregated in memory by name; the raw spans of the first
``RAW_SPAN_CYCLES`` stepped cycles of each scenario are kept for the trace
file.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter_ns

from manifest import RAW_SPAN_CYCLES, SPANS

_MISSING = object()


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        #: name -> [calls, self_ns, hits]; ``hits`` counts the calls whose
        #: return value passed the span's usefulness test.
        self.agg: dict[str, list[int]] = {name: [0, 0, 0] for name in SPANS}
        #: Durations (ns) of every ``parallel.job_run`` span.
        self.job_ns: list[int] = []
        #: Raw spans: (id, name, start_ns, end_ns, parent id, scenario).
        self.raw: list[tuple] = []
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._raw_on = False
        self._scenario = ""
        self._cycle = None
        self._cycles_seen = 0

    def begin_scenario(self, scenario: str) -> None:
        """Label the spans that follow and re-arm raw-span recording."""
        self._scenario = scenario
        self._cycle = None
        self._cycles_seen = 0
        self._raw_on = True

    def on_cycle(self, cycle: int) -> None:
        """Called with the simulated cycle of every injector tick."""
        if cycle != self._cycle:
            self._cycle = cycle
            self._cycles_seen += 1
            self._raw_on = self._cycles_seen <= RAW_SPAN_CYCLES

    def self_ns(self) -> int:
        """Sum of self time over every span recorded so far."""
        return sum(entry[1] for entry in self.agg.values())

    def wrap(self, name: str, fn, *, before=None, hit=None):
        """A wrapper around ``fn`` that records one ``name`` span per call.

        ``before(args)`` runs ahead of the span (scenario/cycle bookkeeping);
        ``hit(result)`` decides whether the call counts as useful.
        """
        entry = self.agg[name]
        stack = self._stack
        jobs = self.job_ns if name == "parallel.job_run" else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1] if stack else None
            frame = [0, -1]  # [ns covered by child spans, raw span id]
            if tracer._raw_on:
                frame[1] = tracer._next_id
                tracer._next_id += 1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                elapsed = end - start
                entry[0] += 1
                entry[1] += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                if jobs is not None:
                    jobs.append(elapsed)
                if frame[1] >= 0:
                    tracer.raw.append(
                        (
                            frame[1],
                            name,
                            start,
                            end,
                            parent[1] if parent is not None else -1,
                            tracer._scenario,
                        )
                    )
            if hit is not None and hit(result):
                entry[2] += 1
            return result

        return wrapper

    def write_trace(self, path) -> None:
        """Write the raw spans as Chrome trace events (Perfetto-loadable)."""
        origin = min((span[2] for span in self.raw), default=0)
        scenarios: dict[str, int] = {}
        events = []
        for span_id, name, start, end, parent, scenario in sorted(self.raw):
            tid = scenarios.setdefault(scenario, len(scenarios))
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "pid": 0,
                    "tid": tid,
                    "ts": (start - origin) / 1000.0,
                    "dur": (end - start) / 1000.0,
                    "args": {"id": span_id, "parent": parent, "scenario": scenario},
                }
            )
        for scenario, tid in scenarios.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                    "args": {"name": scenario},
                }
            )
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, handle)


def scenario_label(job) -> str:
    """Readable id of one scenario (a ``SimJob``)."""
    rc = job.config.router
    label = (
        f"{job.config.topology}{job.config.num_terminals}/{rc.allocator}"
        f"/rate={job.injection_rate:g}"
    )
    if job.partition is not None:
        label += "/" + "x".join(str(d) for d in job.partition.dims)
    return label


def _targets(tracer: Tracer) -> list[tuple]:
    """(owner, attribute, span, wrap options) for every wrapped callable.

    A function owner is the module that *defines* it; :func:`install` also
    rebinds every ``from ... import`` alias of it in loaded ``repro``
    modules.
    """
    mod = importlib.import_module
    injector = mod("repro.traffic.injector").TrafficInjector
    stepper = mod("repro.sim.vec.stepping").VecStepper
    kernels = mod("repro.sim.vec.kernels")
    network = mod("repro.network.network").Network
    router = mod("repro.network.router").Router
    link = mod("repro.network.links").InterChipLink
    engines = mod("repro.sim.engines")
    simulation = mod("repro.sim.engine").Simulation
    vec_sim = mod("repro.sim.vec.engine").VectorizedSimulation
    part_sim = mod("repro.sim.partition.engine").PartitionedSimulation
    jobs = mod("repro.parallel.jobs").SimJob
    cache = mod("repro.parallel.cache").ResultCache
    fig8 = mod("repro.experiments.fig8_mesh")
    not_none = lambda result: result is not None  # noqa: E731
    targets = [
        (injector, "tick", "traffic.tick",
         {"before": lambda args: tracer.on_cycle(args[1])}),
        (stepper, "deliver", "sim.vec.deliver", {}),
        (stepper, "ni_phase", "sim.vec.ni_phase", {}),
        (stepper, "allocate", "sim.vec.allocate", {}),
        (stepper, "apply_grants", "sim.vec.apply_grants", {}),
        (kernels, "va_kernel", "sim.vec.va_kernel", {}),
        (kernels, "sa_input_first", "sim.vec.sa_kernel", {}),
        (kernels, "sa_output_first", "sim.vec.sa_kernel", {}),
        (mod("repro.sim.vec.state").SoAState, "__init__", "sim.vec.build_state", {}),
        (network, "step", "network.step", {}),
        (network, "__init__", "network.build", {}),
        (mod("repro.network.interface").NetworkInterface, "next_flit",
         "network.ni_next_flit", {}),
        (router, "vc_allocate", "network.vc_allocate", {}),
        (router, "switch_allocate", "network.switch_allocate", {"hit": bool}),
        (engines, "make_engine", "sim.make_engine", {}),
        # The default engine (no name given) is built by calling Simulation
        # directly rather than through make_engine.
        (simulation, "__init__", "sim.make_engine", {}),
        (simulation, "run", "sim.run", {}),
        (vec_sim, "run", "sim.run", {}),
        (part_sim, "run", "sim.run", {}),
        (part_sim, "__init__", "sim.partition.build", {}),
        (mod("repro.sim.vec.domain").VecDomain, "step",
         "sim.partition.domain_step", {}),
        (link, "send_flit", "sim.partition.link_send_flit", {}),
        (link, "send_credit", "sim.partition.link_send_credit", {}),
        (jobs, "key", "parallel.job_key", {}),
        (jobs, "run", "parallel.job_run",
         {"before": lambda args: tracer.begin_scenario(scenario_label(args[0]))}),
        (cache, "get", "parallel.cache_get", {"hit": not_none}),
        (cache, "put", "parallel.cache_put", {}),
        (mod("repro.parallel.journal").RunJournal, "record",
         "parallel.journal_record", {}),
        (mod("repro.parallel.runner"), "run_sim_jobs", "parallel.run_sim_jobs", {}),
        (fig8, "spec", "experiments.spec_build", {}),
        (mod("repro.experiments.spec").ExperimentSpec, "content_key",
         "experiments.spec_build", {}),
        (mod("repro.experiments.runner"), "execute_spec",
         "experiments.execute_spec", {}),
        (fig8, "report", "experiments.report", {}),
    ]
    # One span per registered allocator scheme the workloads reach.  VIX
    # inherits the separable allocator's methods, so each scheme's class
    # gets its own wrapper of whatever the attribute resolves to.
    registry = mod("repro.registry").allocators
    for span in SPANS:
        prefix, _, scheme = span.rpartition(".")
        if prefix != "core.allocate":
            continue
        cls = type(registry.create(scheme, 5, 5, 2, 2))
        for attr in ("allocate", "allocate_fast"):
            if getattr(cls, attr) is not None:
                targets.append((cls, attr, span, {}))
    return targets


def _holders(owner, attr: str, original) -> list:
    """``owner`` plus, for a module-level function, every loaded ``repro``
    module that imported it by name."""
    if isinstance(owner, type):
        return [owner]
    return [owner] + [
        module
        for name, module in list(sys.modules.items())
        if name.startswith("repro")
        and module is not owner
        and vars(module).get(attr) is original
    ]


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every target; returns the patches for :func:`restore`."""
    # Resolve every original first: VIX inherits the separable allocator's
    # methods, and must wrap those, not the input_first wrapper.
    resolved = [
        (owner, attr, getattr(owner, attr), span, options)
        for owner, attr, span, options in _targets(tracer)
    ]
    patches: list[tuple] = []
    try:
        for owner, attr, original, span, options in resolved:
            wrapped = tracer.wrap(span, original, **options)
            for holder in _holders(owner, attr, original):
                patches.append((holder, attr, vars(holder).get(attr, _MISSING)))
                setattr(holder, attr, wrapped)
    except BaseException:
        restore(patches)
        raise
    return patches


def restore(patches: list[tuple]) -> None:
    """Undo :func:`install`: every patched attribute gets its old value
    back (or is deleted where the class only inherited it)."""
    for holder, attr, previous in reversed(patches):
        if previous is _MISSING:
            delattr(holder, attr)
        else:
            setattr(holder, attr, previous)
    patches.clear()


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    patches = install(tracer)
    try:
        yield tracer
    finally:
        restore(patches)
