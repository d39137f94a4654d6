"""Content-addressed on-disk cache for simulation results.

Entries are JSON documents, one file per job key, sharded by the first two
hex digits of the key.  The root directory is ``$REPRO_CACHE_DIR`` when set,
else ``~/.cache/repro``; ``$REPRO_NO_CACHE=1`` disables the default cache
entirely.  Corrupt or unreadable entries behave as misses (and are removed),
and every filesystem error degrades to "no cache" rather than failing the
experiment — the cache is an accelerator, never a dependency.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

from repro import settings

if TYPE_CHECKING:  # imported lazily at runtime: repro.sim imports us back
    from repro.sim.engine import SimulationResult

_ENVELOPE_VERSION = 1


def result_to_jsonable(result: SimulationResult) -> dict:
    """Flatten a :class:`SimulationResult` into JSON-able data."""
    return {
        "allocator": result.allocator,
        "topology": result.topology,
        "injection_rate": result.injection_rate,
        "packet_length": result.packet_length,
        "avg_latency": result.avg_latency,
        "throughput_flits": result.throughput_flits,
        "throughput_packets_per_node": result.throughput_packets_per_node,
        "fairness": result.fairness,
        "packets_created": result.packets_created,
        "packets_ejected": result.packets_ejected,
        "drained": result.drained,
        "cycles": result.cycles,
        "per_source_ejected": list(result.per_source_ejected),
        "counters": dict(result.counters),
        "latency_p50": result.latency_p50,
        "latency_p95": result.latency_p95,
        "latency_p99": result.latency_p99,
        "metrics": result.metrics,
    }


def result_from_jsonable(data: dict) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` written by
    :func:`result_to_jsonable`.  Raises on malformed data (callers treat
    that as a corrupt cache entry)."""
    from repro.sim.engine import SimulationResult

    return SimulationResult(
        allocator=data["allocator"],
        topology=data["topology"],
        injection_rate=data["injection_rate"],
        packet_length=data["packet_length"],
        avg_latency=data["avg_latency"],
        throughput_flits=data["throughput_flits"],
        throughput_packets_per_node=data["throughput_packets_per_node"],
        fairness=data["fairness"],
        packets_created=data["packets_created"],
        packets_ejected=data["packets_ejected"],
        drained=data["drained"],
        cycles=data["cycles"],
        per_source_ejected=list(data["per_source_ejected"]),
        counters={str(k): int(v) for k, v in data["counters"].items()},
        latency_p50=data.get("latency_p50", math.nan),
        latency_p95=data.get("latency_p95", math.nan),
        latency_p99=data.get("latency_p99", math.nan),
        metrics=data.get("metrics"),
    )


def default_cache_dir() -> Path:
    """Resolve the cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    return Path(settings.get("REPRO_CACHE_DIR")).expanduser()


def cache_disabled() -> bool:
    """True when the environment opts out of result caching."""
    return settings.get("REPRO_NO_CACHE")


class ResultCache:
    """JSON result store addressed by :meth:`SimJob.key` content hashes."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    @classmethod
    def default(cls) -> "ResultCache | None":
        """The environment-configured cache, or ``None`` when disabled."""
        if cache_disabled():
            return None
        return cls()

    def path_for(self, key: str) -> Path:
        """On-disk location of ``key``'s entry."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> SimulationResult | None:
        """The cached result for ``key``, or ``None`` on miss/corruption."""
        path = self.path_for(key)
        try:
            raw = path.read_text()
        except OSError:
            return None
        try:
            document = json.loads(raw)
            if document.get("envelope") != _ENVELOPE_VERSION:
                raise ValueError(f"unknown cache envelope in {path}")
            return result_from_jsonable(document["result"])
        except (ValueError, KeyError, TypeError):
            # Corrupt entry: drop it so the slot can be rewritten cleanly.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, key: str, result: SimulationResult) -> None:
        """Store ``result`` under ``key`` (atomically; errors are ignored)."""
        path = self.path_for(key)
        document = {
            "envelope": _ENVELOPE_VERSION,
            "key": key,
            "result": result_to_jsonable(result),
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(document, handle, sort_keys=True)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # Read-only or full filesystem: run uncached rather than fail.
            pass
