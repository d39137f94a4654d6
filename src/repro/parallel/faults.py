"""Deterministic fault injection for the parallel layer.

Faults are enabled through the environment so they reach worker processes
with no API plumbing (the same transport the observability layer uses):

``REPRO_FAULTS``
    Comma-separated directives ``<kind>@<index>[x<count>]``:

    * ``kind`` — ``raise`` (raise :class:`FaultInjected`), ``hang``
      (sleep ``$REPRO_FAULT_HANG_SECONDS`` before running the job, i.e. a
      hung worker that *would* eventually finish if nobody killed it), or
      ``exit`` (``os._exit(86)``: an instant worker death that skips all
      cleanup, the worst-case crash);
    * ``index`` — 0-based position of the job in the executed batch (for
      cached runs: its position among the cache misses);
    * ``count`` — how many *attempts* fault (default 1, so the first retry
      succeeds; ``x*`` faults every attempt and the job exhausts its
      retries).

``REPRO_FAULT_HANG_SECONDS``
    Hang duration in seconds (default 300 — far beyond any sane per-job
    ``timeout=``, so an unkilled hang is loudly visible).

Examples: ``REPRO_FAULTS="exit@1,hang@2"`` crashes the second job's first
attempt and hangs the third job's first attempt; ``REPRO_FAULTS="raise@0x*"``
makes job 0 fail deterministically until its retries are exhausted.

The hook is consulted by the worker entry point
(:func:`repro.parallel.runner._run_job`) before every attempt of every
job, inline and in workers alike; with ``REPRO_FAULTS`` unset the probe is
a single dict lookup.  This module exists for the fault-tolerance test
suite and the CI fault smoke job — production sweeps never set these
variables.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import lru_cache

from repro import settings

FAULTS_ENV = "REPRO_FAULTS"
HANG_SECONDS_ENV = "REPRO_FAULT_HANG_SECONDS"

#: Exit status of an ``exit`` fault — distinctive in worker post-mortems.
FAULT_EXIT_CODE = 86


class FaultInjected(RuntimeError):
    """The deterministic failure raised by a ``raise`` fault directive."""


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``kind@index[xcount]`` directive."""

    kind: str
    index: int
    #: Number of attempts that fault (``None`` = every attempt).
    attempts: int | None = 1

    def matches(self, index: int, attempt: int) -> bool:
        """True when the fault fires for ``index`` at 0-based ``attempt``."""
        if index != self.index:
            return False
        return self.attempts is None or attempt < self.attempts


@lru_cache(maxsize=16)
def parse_faults(text: str) -> tuple[FaultSpec, ...]:
    """Parse a ``$REPRO_FAULTS`` directive string (cached per value)."""
    specs = []
    for part in text.split(","):
        part = part.strip().lower()
        if not part:
            continue
        kind, _, rest = part.partition("@")
        index_text, _, count_text = rest.partition("x")
        try:
            if kind not in ("raise", "hang", "exit"):
                raise ValueError(f"unknown fault kind {kind!r}")
            index = int(index_text)
            attempts: int | None = 1
            if count_text == "*":
                attempts = None
            elif count_text:
                attempts = int(count_text)
        except ValueError:
            raise ValueError(
                f"invalid ${FAULTS_ENV} directive {part!r}: expected "
                "kind@index or kind@indexxcount (count = attempts that "
                "fault, '*' = all) with kind one of raise|hang|exit"
            ) from None
        if index < 0:
            raise ValueError(f"fault index must be >= 0, got {index}")
        if attempts is not None and attempts < 1:
            raise ValueError(f"fault count must be >= 1, got {attempts}")
        specs.append(FaultSpec(kind, index, attempts))
    return tuple(specs)


def hang_seconds() -> float:
    """How long a ``hang`` fault sleeps (``$REPRO_FAULT_HANG_SECONDS``)."""
    return settings.get(HANG_SECONDS_ENV)


def inject_fault(index: int, attempt: int) -> None:
    """Fire any matching fault for job ``index`` at 0-based ``attempt``.

    No-op (one environment lookup) unless ``$REPRO_FAULTS`` is set.
    """
    for spec in settings.get(FAULTS_ENV, parse_faults) or ():
        if not spec.matches(index, attempt):
            continue
        if spec.kind == "raise":
            raise FaultInjected(
                f"injected failure for job {index} (attempt {attempt})"
            )
        if spec.kind == "hang":
            # Sleep *then* fall through to run the job: an unkilled hung
            # worker eventually completes — exactly the zombie double
            # execution the runner's cancellation must prevent.
            time.sleep(hang_seconds())
        elif spec.kind == "exit":
            os._exit(FAULT_EXIT_CODE)
