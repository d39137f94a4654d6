"""End-to-end observability: metrics registry, allocator probes, flit
tracing, and profiling hooks.

The package is organised producer-side vs sink-side:

* :mod:`repro.obs.registry` — :class:`MetricsRegistry` (counters, gauges,
  fixed-bucket histograms) with merge and JSONL/CSV export;
* :mod:`repro.obs.probes` — :class:`AllocatorProbe`, the per-cycle
  matching-efficiency telemetry wired into the switch allocators;
* :mod:`repro.obs.trace` — :class:`FlitTracer`, the sampled flit-level
  pipeline event recorder;
* :mod:`repro.obs.profiling` — :class:`PhaseTimer` spans and per-job
  cProfile capture;
* :mod:`repro.obs.config` — :class:`ObservabilityConfig`, resolved from
  the ``REPRO_TRACE`` / ``REPRO_METRICS_OUT`` / ``REPRO_PROFILE``
  environment (the CLI's ``--trace`` / ``--metrics-out`` / ``--profile``).

A second, execution-level telemetry plane streams what the *sweep* is
doing (jobs, workers, retries, progress) rather than what the simulated
network did:

* :mod:`repro.obs.events` — :class:`RunEvent` / :class:`EventStream`,
  the ordered JSONL-backed event bus;
* :mod:`repro.obs.monitor` — :class:`RunMonitor`, the coordinator-side
  aggregator draining worker events off a multiprocessing queue;
* :mod:`repro.obs.exporters` — Prometheus exposition text and Chrome
  trace-event (Perfetto) export;
* :mod:`repro.obs.server` — :class:`TelemetryServer`, the stdlib HTTP
  server behind ``--serve`` (``/status``, ``/metrics``, ``/events`` SSE);
* :class:`TelemetryConfig` (in :mod:`repro.obs.config`) — the
  ``REPRO_MONITOR`` / ``REPRO_SERVE`` / ``REPRO_TRACE_EXPORT`` knobs.

:class:`Observability` below is the per-simulation orchestrator: it
builds the enabled collectors, attaches them to a network (probe on every
router's allocator, tracer on routers/NIs/the network), and finalises the
run into a metrics snapshot plus optional JSONL files.  When the config
is disabled (the default) nothing is attached and the simulator runs its
exact pre-observability code paths.
"""

from __future__ import annotations

from .config import ObservabilityConfig, TelemetryConfig, env_observability_enabled
from .events import EVENT_KINDS, EventStream, RunEvent, event_stream_path
from .exporters import chrome_trace_events, export_chrome_trace, prometheus_text
from .monitor import RunMonitor, emit_worker_event
from .probes import AllocatorProbe, maximum_matching_size
from .profiling import PhaseTimer, profiled_call, spans_from_counters
from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .server import TelemetryServer
from .trace import FlitTracer


class Observability:
    """Collectors for one simulation run, built from a config.

    ``attach(network)`` is activity-gating safe by construction: every
    hook fires from code that only runs when a component actually does
    work, so slept routers generate no events, and the gated and dense
    stepping modes produce identical telemetry.
    """

    def __init__(self, config: ObservabilityConfig) -> None:
        self.config = config
        self.registry = MetricsRegistry() if config.metrics else None
        self.probe = AllocatorProbe() if config.metrics else None
        self.tracer = (
            FlitTracer(sample=config.trace_sample, capacity=config.trace_buffer)
            if config.trace
            else None
        )
        self.timer = PhaseTimer() if config.profile else None

    def attach(self, network) -> None:
        """Hook the enabled collectors into ``network``'s components."""
        probe = self.probe
        tracer = self.tracer
        if probe is not None:
            self.probe.name = network.config.router.allocator
            for router in network.routers:
                if router is None:
                    continue  # partition-domain hole (unowned router)
                router.allocator.probe = probe
                # The forced-move fast path bypasses the instrumented
                # matrix path; its grants (and arbiter state) are
                # identical, so disabling it only changes visibility.
                router._alloc_fast = None
        if tracer is not None:
            network.tracer = tracer
            for router in network.routers:
                if router is not None:
                    router.tracer = tracer
            for ni in network.interfaces:
                if ni is not None:
                    ni.tracer = tracer

    def finalize(self, counters: dict, **context) -> dict | None:
        """Close out a run: flush files, return the metrics snapshot.

        ``counters`` is the finished run's activity-counter dict (one
        network's snapshot, or the aggregate over partition domains);
        ``context`` fields (allocator, rate, seed, ...) are stamped onto
        every exported line so aggregation across runs and worker
        processes needs no out-of-band bookkeeping.
        """
        registry = self.registry
        if self.tracer is not None:
            if registry is not None:
                for name, value in self.tracer.stats().items():
                    registry.counter(name).inc(value)
            if self.config.trace_path:
                self.tracer.write_jsonl(self.config.trace_path, **context)
        if registry is None:
            return None
        if self.probe is not None:
            self.probe.publish(registry)
        for name, value in counters.items():
            registry.counter(name).inc(value)
        if self.config.metrics_path:
            registry.export_jsonl(self.config.metrics_path, **context)
        return registry.as_dict()


__all__ = [
    "AllocatorProbe",
    "Counter",
    "EVENT_KINDS",
    "EventStream",
    "FlitTracer",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "ObservabilityConfig",
    "PhaseTimer",
    "RunEvent",
    "RunMonitor",
    "TelemetryConfig",
    "TelemetryServer",
    "chrome_trace_events",
    "emit_worker_event",
    "env_observability_enabled",
    "event_stream_path",
    "export_chrome_trace",
    "maximum_matching_size",
    "profiled_call",
    "prometheus_text",
    "spans_from_counters",
]
