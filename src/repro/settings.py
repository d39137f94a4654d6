"""Every ``REPRO_*`` environment variable, declared once.

The environment is the transport to worker processes (they inherit it; the
CLI writes its flags into it and is the only writer).  This module is the
only reader: :data:`SETTINGS` has one row per variable, and consumers call
:func:`get` at their point of use, so a test that patches the environment
is seen by the next read.

One contract for all rows: unset or blank is the default; text the row's
parser rejects raises ``ValueError("invalid $NAME value 'raw': expected
...")``.  :func:`parse` reads an explicit argument or a CLI flag's text
the same way (its error leaves out ``$NAME``); :func:`resolve` is
"explicit argument beats environment".

A leaf module, importing nothing from ``repro``: the row holding a
registry name (``REPRO_ENGINE``) and ``REPRO_FAULTS`` have their owner's
parser passed as ``convert=``, under the same contract.  A set ``REPRO_*``
name that no row declares is an error too (:func:`undeclared`, checked by
the CLI), so a misspelt or removed variable cannot be silently ignored.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Setting:
    """One variable: ``parser`` raises ``ValueError`` on text it rejects,
    ``expected`` completes the error, ``flag`` is the CLI flag writing it."""

    name: str
    parser: Callable[[str], Any]
    default: Any
    expected: str
    help: str
    flag: str | None = None


def _switch(text: str) -> bool:
    word = text.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


def _integer(low: int, high: float = math.inf) -> Callable[[str], int]:
    def parse(text: str) -> int:
        value = int(text)
        if not low <= value <= high:
            raise ValueError(text)
        return value

    return parse


def _number(accept: Callable[[float], bool]) -> Callable[[str], float]:
    def parse(text: str) -> float:
        value = float(text)
        if not accept(value):  # NaN fails every comparison
            raise ValueError(text)
        return value

    return parse


def _workers(text: str) -> int | str:
    return "auto" if text.lower() == "auto" else int(text)


def _grid(text: str) -> tuple[int, int]:
    px, sep, py = text.lower().partition("x")
    if not (sep and px.isdigit() and py.isdigit()):
        raise ValueError(text)
    return int(px), int(py)


def _choice(*names: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text.lower() not in names:
            raise ValueError(text)
        return text.lower()

    return parse


_SWITCH = "1/true/yes/on or 0/false/no/off"

SETTINGS: dict[str, Setting] = {
    s.name: s
    for s in (
        # --- experiments -----------------------------------------------------
        Setting("REPRO_FULL", _switch, False, _SWITCH,
                "paper-fidelity run lengths instead of the fast preset", "--full"),
        Setting("REPRO_JOBS", _workers, 1,
                "an integer or 'auto' (one worker per CPU core); < 1 also "
                "means auto",
                "worker processes for simulation fan-out", "--jobs"),
        Setting("REPRO_ENGINE", str.lower, None,
                "a registered engine name (`python -m repro list`)",
                "engine for every run that names none; unset = vectorized "
                "where it can run, else gated", "--engine"),
        Setting("REPRO_VEC_MIN_FLITS", _number(lambda v: v >= 0), 6.0,
                "a non-negative number of flits/cycle",
                "expected injected flits/cycle below which a vectorized "
                "request runs on the gated engine"),
        # --- result cache and resume -----------------------------------------
        Setting("REPRO_CACHE_DIR", str, "~/.cache/repro", "a directory path",
                "root of the result cache, run journals and event streams"),
        Setting("REPRO_NO_CACHE", _switch, False, _SWITCH,
                "skip the on-disk result cache", "--no-cache"),
        Setting("REPRO_RESUME", _switch, False, _SWITCH,
                "serve jobs an interrupted run journaled complete from the "
                "cache", "--resume"),
        # --- fault tolerance -------------------------------------------------
        Setting("REPRO_TIMEOUT", _number(lambda v: v > 0), None,
                "a per-job budget in seconds (must be > 0)",
                "kill and retry a job that runs longer", "--timeout"),
        Setting("REPRO_MAX_RETRIES", _integer(0), 2, "an integer >= 0",
                "retries per job after a crash, timeout or exception",
                "--max-retries"),
        Setting("REPRO_RETRY_BACKOFF", _number(lambda v: 0 <= v < math.inf), 0.05,
                "seconds as a number >= 0",
                "base of the capped exponential retry backoff"),
        Setting("REPRO_FAULTS", str, None,
                "comma-separated kind@index[xcount] directives, kind raise, "
                "hang or exit, count >= 1 or '*'",
                "deterministic fault injection (test suite and CI only)"),
        Setting("REPRO_FAULT_HANG_SECONDS", _number(lambda v: v >= 0), 300.0,
                "seconds as a number >= 0", "how long a `hang` fault sleeps"),
        # --- chiplet partition (with REPRO_ENGINE=partitioned) ---------------
        Setting("REPRO_PARTITION", _grid, (2, 2), "PXxPY (e.g. 2x2)",
                "partition grid; 1x1 is the monolithic-equivalent"),
        Setting("REPRO_DOMAIN_ENGINE", _choice("gated", "dense", "vectorized"), None,
                "gated, dense or vectorized",
                "engine stepping each domain; unset = vectorized where it "
                "can run and pays, else gated"),
        # --- simulation observability (bypasses the result cache) ------------
        Setting("REPRO_TRACE", str, None, "a file path",
                "write a flit-level event trace (JSONL) there", "--trace"),
        Setting("REPRO_TRACE_SAMPLE", _number(lambda v: 0 < v <= 1), 1.0,
                "a number in (0, 1]", "fraction of packets traced",
                "--trace-sample"),
        Setting("REPRO_TRACE_BUFFER", _integer(1), 100_000, "an integer >= 1",
                "trace ring-buffer capacity in events"),
        Setting("REPRO_METRICS_OUT", str, None, "a file path",
                "append per-run metrics snapshots (JSONL) there", "--metrics-out"),
        Setting("REPRO_PROFILE", _switch, False, _SWITCH,
                "per-phase wall-time spans in the [perf_counters] footer",
                "--profile"),
        Setting("REPRO_PROFILE_DIR", str, None, "a directory path",
                "one cProfile dump per job there; implies REPRO_PROFILE",
                "--profile"),
        # --- run telemetry (never changes or bypasses a result) --------------
        Setting("REPRO_MONITOR", _switch, False, _SWITCH,
                "live progress line; events stream to JSONL next to the "
                "journal", "--monitor"),
        Setting("REPRO_SERVE", _integer(0, 65535), None, "a TCP port (0-65535)",
                "serve /status, /metrics and /events there; 0 = any free port",
                "--serve"),
        Setting("REPRO_TRACE_EXPORT", _choice("chrome"), None, "chrome",
                "export the job timeline after the run", "--trace-export"),
        Setting("REPRO_TRACE_EXPORT_OUT", str, None, "a file path",
                "where the export goes (default <experiment>_trace.json)",
                "--trace-export"),
    )
}


def undeclared() -> list[str]:
    """The ``REPRO_*`` variables set in the environment that no row declares."""
    return sorted(n for n in os.environ if n.startswith("REPRO_") and n not in SETTINGS)


def _parse(setting: Setting, raw: str, source: str, convert) -> Any:
    try:
        value = setting.parser(raw)
        return value if convert is None else convert(value)
    except ValueError:
        raise ValueError(
            f"invalid {source}value {raw!r}: expected {setting.expected}"
        ) from None


def get(name: str, convert: Callable[[Any], Any] | None = None) -> Any:
    """The value of ``$name``: its default when unset or blank."""
    setting = SETTINGS[name]
    raw = os.environ.get(name, "").strip()
    if not raw:
        return setting.default
    return _parse(setting, raw, f"${name} ", convert)


def parse(name: str, value: object, convert: Callable[[Any], Any] | None = None) -> Any:
    """``value`` (an argument or a flag's text) read as ``$name`` would be."""
    return _parse(SETTINGS[name], str(value).strip(), "", convert)


def resolve(name: str, explicit: object = None) -> Any:
    """Explicit argument beats environment beats default."""
    return get(name) if explicit is None else parse(name, explicit)


def _shown(default: Any) -> str:
    if default is None:
        return "unset"
    if default is False:
        return "off"
    if isinstance(default, tuple):
        return "x".join(map(str, default))
    return str(default)


def table() -> str:
    """The settings as a Markdown table (README and ``python -m repro list``)."""
    lines = [
        "| Variable | CLI flag | Default | Expected | Effect |",
        "|---|---|---|---|---|",
    ]
    for s in SETTINGS.values():
        flag = f"`{s.flag}`" if s.flag else ""
        lines.append(
            f"| `{s.name}` | {flag} | {_shown(s.default)} | {s.expected} | {s.help} |"
        )
    return "\n".join(lines)
