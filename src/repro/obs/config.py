"""Observability configuration: what to collect, at what cost, and where.

The configuration is a frozen dataclass so it can ride inside frozen
:class:`~repro.parallel.jobs.SimJob` specs and cross process boundaries.
The **environment** is the canonical transport to worker processes: the
CLI's ``--trace`` / ``--metrics-out`` / ``--profile`` flags set the
``REPRO_*`` variables, every :class:`~repro.sim.engine.Simulation`
constructed without an explicit config resolves
:meth:`ObservabilityConfig.from_env`, and ``ProcessPoolExecutor`` children
inherit the parent's environment — so a flag given once observes every
simulation an experiment fans out, in every worker.

Everything defaults to *off*: the default config is falsy and simulations
run the exact pre-observability code paths (byte-identical results).

Run *telemetry* (the streaming event bus of :mod:`repro.obs.events`) is
resolved into :class:`TelemetryConfig` by the experiment layer.  Telemetry
observes the **execution** layer (jobs, workers, wall clock), not
simulation results, so — unlike the observability variables — it does NOT
bypass the result cache and cannot change a single result byte.

The variables themselves (names, defaults, accepted values) are rows of
:data:`repro.settings.SETTINGS`; ``python -m repro list`` prints them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import settings


@dataclass(frozen=True)
class ObservabilityConfig:
    """What the observability layer should collect for one simulation."""

    #: Enable the metrics registry + allocator probes.
    metrics: bool = False
    #: JSONL file that each run appends its metrics snapshot to (optional
    #: even when ``metrics`` is on: results also carry the snapshot).
    metrics_path: str | None = None
    #: Enable the flit/packet event tracer.
    trace: bool = False
    #: JSONL file the trace is written to after the run.
    trace_path: str | None = None
    #: Fraction of packets traced, chosen deterministically by pid.
    trace_sample: float = 1.0
    #: Ring-buffer capacity (events); oldest events drop beyond it.
    trace_buffer: int = 100_000
    #: Record per-phase (warmup/measure/drain) wall-time spans.
    profile: bool = False
    #: Directory for per-job cProfile dumps (parallel runner).
    profile_dir: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.trace_sample <= 1.0:
            raise ValueError(
                f"trace_sample must be in (0, 1], got {self.trace_sample}"
            )
        if self.trace_buffer < 1:
            raise ValueError(
                f"trace_buffer must be >= 1, got {self.trace_buffer}"
            )

    @property
    def enabled(self) -> bool:
        """True when any collection is requested."""
        return self.metrics or self.trace or self.profile

    def __bool__(self) -> bool:
        return self.enabled

    @classmethod
    def from_env(cls) -> "ObservabilityConfig":
        """Resolve the environment-configured observability settings."""
        trace_path = settings.get("REPRO_TRACE")
        metrics_path = settings.get("REPRO_METRICS_OUT")
        profile_dir = settings.get("REPRO_PROFILE_DIR")
        return cls(
            metrics=metrics_path is not None,
            metrics_path=metrics_path,
            trace=trace_path is not None,
            trace_path=trace_path,
            trace_sample=settings.get("REPRO_TRACE_SAMPLE"),
            trace_buffer=settings.get("REPRO_TRACE_BUFFER"),
            profile=settings.get("REPRO_PROFILE") or profile_dir is not None,
            profile_dir=profile_dir,
        )


@dataclass(frozen=True)
class TelemetryConfig:
    """Run-telemetry settings: monitor, HTTP server, trace export.

    Deliberately separate from :class:`ObservabilityConfig`: telemetry
    watches the sweep's execution (jobs/workers/retries), never the
    simulation, so enabling it must not flip
    :func:`env_observability_enabled` — results stay cacheable and
    byte-identical with telemetry on or off.
    """

    #: Aggregate events in a RunMonitor with a live terminal progress line.
    monitor: bool = False
    #: HTTP server port (``/status``, ``/metrics``, ``/events``); 0 = any
    #: free port; ``None`` = no server.
    serve: int | None = None
    #: Trace-export format after the run (``"chrome"``) or ``None``.
    trace_export: str | None = None
    #: Output path for the exported trace (``None`` = derive from spec name).
    trace_export_out: str | None = None

    def __post_init__(self) -> None:
        if self.trace_export is not None and self.trace_export != "chrome":
            raise ValueError(
                f"unknown trace export format: {self.trace_export!r}"
                " (supported: chrome)"
            )

    @property
    def enabled(self) -> bool:
        """True when any telemetry sink is requested."""
        return (
            self.monitor or self.serve is not None or self.trace_export is not None
        )

    def __bool__(self) -> bool:
        return self.enabled

    @classmethod
    def from_env(cls) -> "TelemetryConfig":
        """Resolve the environment-configured telemetry settings."""
        return cls(
            monitor=settings.get("REPRO_MONITOR"),
            serve=settings.get("REPRO_SERVE"),
            trace_export=settings.get("REPRO_TRACE_EXPORT"),
            trace_export_out=settings.get("REPRO_TRACE_EXPORT_OUT"),
        )


def env_observability_enabled() -> bool:
    """Cheap check used by the cache layer: is any env observability on?

    Observability-enabled runs must bypass the result cache (a cached
    result was produced without probes and carries no metrics), so the
    parallel layer consults this before constructing its default cache.
    """
    return bool(
        settings.get("REPRO_TRACE")
        or settings.get("REPRO_METRICS_OUT")
        or settings.get("REPRO_PROFILE")
        or settings.get("REPRO_PROFILE_DIR")
    )
