#!/usr/bin/env python
"""Byte-identity gates: every contract CI enforces, as one table of rows.

A row runs one command under a reference side and under one or more
other sides, and requires the outputs to be identical once the
wall-clock ``[perf_counters]`` footer is stripped:

* ``engines`` -- no engine named (the SoA kernel wherever it can run,
  gated elsewhere) == the ``REPRO_ENGINE=dense`` reference loop; f9 also
  with numpy unimportable, where every job must run on ``gated``; topo
  puts cmesh (four terminals per router) and fbfly on the kernel;
* ``partition`` -- a 1x1 zero-latency partition on gated domains == the
  monolithic dense engine; f12 on the dense engine == the vectorized
  engine == 1x1 vectorized domains == 1x1 domains with no engine named
  (the vectorized engine is the 1x1 kernel partition, so dense is the
  row's only object-engine reference);
* ``golden`` -- the reference source tree given by ``--ref-src`` (CI: the
  pre-refactor commit 44fd589) == this tree;
* ``faults`` -- a reduced Figure-8 sweep with one worker hard-exiting and
  one job hanging twice == the clean sweep, and the run journal records
  the timeout kill, the retries and every job's completion;
* ``telemetry`` -- the same sweep with the live monitor, the HTTP server
  and the Chrome export on == the plain sweep; ``/status`` and
  ``/metrics`` answer mid-run, the event stream brackets the run, the
  trace has one slice per job, and the wall time keeps its budget.

Each distinct (command, side) runs once, in a child process started from
the caller's environment minus every ``REPRO_*`` variable, with a fresh
cache root; every path is resolved from this file, not the cwd.

Usage::

    python scripts/check.py --ref-src /tmp/prereg/src     # every row
    python scripts/check.py engines partition/f12          # suites / rows
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Child processes (and a fault-injected hang nobody kills) fail past this.
TIMEOUT_SECONDS = 900

#: The reduced sweep the fault and telemetry rows share: 2 allocators x
#: (2 curve rates + 1 saturation) = 6 jobs, fanned out to 2 workers.
REDUCED_F8 = "reduced-f8"
_REDUCED_F8_CODE = (
    "from repro.experiments import fig8_mesh as f8; "
    "print(f8.report(f8.run(rates=(0.02, 0.06), "
    "allocators=('input_first', 'vix'), jobs=2)))"
)
REDUCED_F8_JOBS = 6

#: Telemetry wall time must stay under factor * plain + slack seconds.
OVERHEAD_FACTOR = 1.5
OVERHEAD_SLACK_SECONDS = 5.0


@dataclass
class Run:
    """One finished child process."""

    stdout: str
    seconds: float
    workdir: Path
    #: Problems found while the child was running (``Side.live``).
    problems: list[str]

    @property
    def report(self) -> list[str]:
        return [ln for ln in self.stdout.splitlines() if "[perf_counters]" not in ln]


@dataclass(frozen=True)
class Side:
    """A named child environment."""

    env: dict[str, str] = field(default_factory=dict)
    #: Run the ``--ref-src`` tree instead of this one.
    ref: bool = False
    #: Put a ``numpy`` that fails to import ahead of the tree.
    no_numpy: bool = False
    #: ``live(proc) -> problems``, called while the child runs.
    live: Callable[[subprocess.Popen], list[str]] | None = None
    #: ``check(run, reference_run) -> problems``, after the child exits.
    check: Callable[[Run, Run], list[str]] | None = None


def _jsonl(run: Run, kind: str) -> list[dict]:
    """Records of the one ``<cache>/<kind>/*.jsonl`` file the run wrote."""
    paths = glob.glob(str(run.workdir / "cache" / kind / "*.jsonl"))
    if len(paths) != 1:
        raise ValueError(f"expected 1 {kind} file, found {paths}")
    with open(paths[0]) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _ran_on_gated(run: Run, ref: Run) -> list[str]:
    footer = [ln for ln in run.stdout.splitlines() if "engines:" in ln]
    if footer and "vectorized" not in footer[-1]:
        return []
    return [f"expected every job on gated, footer: {footer}"]


def _journal_records_faults(run: Run, ref: Run) -> list[str]:
    entries = _jsonl(run, "journals")
    statuses = {e["status"] for e in entries}
    completed = {e["job_key"] for e in entries if e["status"] == "completed"}
    problems = [
        f"journal records no {s}" for s in ("timeout", "retry") if s not in statuses
    ]
    if len(completed) != REDUCED_F8_JOBS:
        problems.append(
            f"journal records {len(completed)} completed jobs, "
            f"expected {REDUCED_F8_JOBS}"
        )
    if problems:
        return problems + [f"  {entry}" for entry in entries]
    print(f"  journal: {len(completed)} jobs completed, statuses {sorted(statuses)}")
    return []


def _get(url: str) -> str:
    with urllib.request.urlopen(url, timeout=2) as resp:
        return resp.read().decode()


def _check_prometheus(text: str) -> list[str]:
    """Every sample line must be '<name or name{labels}> <value>'."""
    problems, samples = [], 0
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        try:
            float(line.rsplit(" ", 1)[1])
            samples += 1
        except (IndexError, ValueError):
            problems.append(f"unparseable /metrics line: {line!r}")
    if samples == 0:
        problems.append("/metrics carried no samples")
    if "repro_jobs_total" not in text:
        problems.append("/metrics is missing repro_jobs_total")
    return problems


def _poll_endpoints(proc: subprocess.Popen) -> list[str]:
    """Scrape ``/status`` and ``/metrics`` while the sweep runs."""
    # The serving line is printed before the first scenario executes, so
    # everything after it is genuinely mid-run.  The \r-progress renderer
    # shares stderr, so the line may follow a carriage-returned segment.
    marker, url, seen = "[telemetry] serving ", None, []
    for line in proc.stderr:
        seen.append(line)
        if marker in line:
            url = line.split(marker, 1)[1].split()[0]
            break
    if url is None:
        return ["no '[telemetry] serving' line on stderr:\n" + "".join(seen)]
    status = metrics = None
    while proc.poll() is None:
        try:
            doc = json.loads(_get(url + "/status"))
        except (OSError, ValueError):
            break  # server already gone: the sweep finished
        if doc.get("jobs_total", 0) > 0 and not doc.get("finished"):
            # Keep the first live snapshot; prefer one that caught a job
            # actually in flight in a worker.
            if status is None or doc.get("in_flight_count", 0) > 0:
                status, metrics = doc, _get(url + "/metrics")
            if doc.get("in_flight_count", 0) > 0:
                break
        time.sleep(0.05)
    if status is None:
        return ["/status never reflected an in-progress sweep"]
    print(
        f"  mid-run /status: {status['completed']}/{status['jobs_total']} jobs, "
        f"{status['in_flight_count']} in flight"
    )
    return _check_prometheus(metrics)


def _telemetry_kept_its_promises(run: Run, plain: Run) -> list[str]:
    problems = []
    events = _jsonl(run, "events")
    kinds = [e["kind"] for e in events]
    seqs = [e["seq"] for e in events]
    if seqs != sorted(set(seqs)):
        problems.append("event seqs are not strictly increasing")
    if kinds[:1] != ["run_start"] or kinds[-1:] != ["run_finish"]:
        problems.append(
            f"event stream does not bracket the run: {kinds[:2]} ... {kinds[-2:]}"
        )
    for kind in ("job_start", "job_finish"):
        if kinds.count(kind) != REDUCED_F8_JOBS:
            problems.append(
                f"expected {REDUCED_F8_JOBS} {kind} events, got {kinds.count(kind)}"
            )
    with open(run.workdir / "trace.json") as handle:
        trace = json.load(handle).get("traceEvents") or []
    slices = [e for e in trace if e.get("ph") == "X" and e.get("cat") == "job"]
    if len(slices) != REDUCED_F8_JOBS:
        problems.append(
            f"expected {REDUCED_F8_JOBS} job slices in the trace, got {len(slices)}"
        )
    if not any(e.get("ph") == "M" for e in trace):
        problems.append("chrome trace has no process metadata")
    budget = OVERHEAD_FACTOR * plain.seconds + OVERHEAD_SLACK_SECONDS
    print(
        f"  {len(events)} events, {len(trace)} trace events; wall: plain "
        f"{plain.seconds:.2f}s, telemetry {run.seconds:.2f}s (budget {budget:.2f}s)"
    )
    if run.seconds > budget:
        problems.append(
            f"telemetry run took {run.seconds:.2f}s, over its {budget:.2f}s budget"
        )
    return problems


#: The degenerate decomposition: one domain owning the whole network.
ONE_BY_ONE = {"REPRO_ENGINE": "partitioned", "REPRO_PARTITION": "1x1"}

SIDES = {
    "dense": Side({"REPRO_ENGINE": "dense"}),
    "default": Side(),
    "1x1-gated": Side({**ONE_BY_ONE, "REPRO_DOMAIN_ENGINE": "gated"}),
    "1x1-vectorized": Side({**ONE_BY_ONE, "REPRO_DOMAIN_ENGINE": "vectorized"}),
    "1x1-unnamed": Side(ONE_BY_ONE),
    "vectorized": Side({"REPRO_ENGINE": "vectorized"}),
    "faulted": Side(
        {
            # Job 1's first attempt hard-exits its worker (breaking the
            # pool); job 2 hangs on two attempts and is killed on its
            # budget both times.  The hang outlasts the child timeout, so
            # a hang nobody kills fails instead of passing slowly.
            "REPRO_FAULTS": "exit@1,hang@2x2",
            "REPRO_FAULT_HANG_SECONDS": str(TIMEOUT_SECONDS),
            "REPRO_TIMEOUT": "15",
            "REPRO_MAX_RETRIES": "3",
        },
        check=_journal_records_faults,
    ),
    "telemetry": Side(
        {
            "REPRO_MONITOR": "1",
            "REPRO_SERVE": "0",  # any free port, scraped from stderr
            "REPRO_TRACE_EXPORT": "chrome",
            "REPRO_TRACE_EXPORT_OUT": "trace.json",  # in the child's cwd
        },
        live=_poll_endpoints,
        check=_telemetry_kept_its_promises,
    ),
    "ref": Side(ref=True),
    "no-numpy": Side(no_numpy=True, check=_ran_on_gated),
}

#: (suite, command, reference side, other sides...).  A command is an
#: experiment id run through the CLI, or ``REDUCED_F8``.
ROWS = (
    ("engines", "f8", "dense", "default"),
    ("engines", "f9", "dense", "default", "no-numpy"),
    ("engines", "t1", "dense", "default"),
    ("engines", "topo", "dense", "default"),
    ("partition", "f8", "dense", "1x1-gated"),
    ("partition", "t1", "dense", "1x1-gated"),
    ("partition", "f12", "dense", "vectorized", "1x1-vectorized", "1x1-unnamed"),
    ("golden", "f8", "ref", "default"),
    ("golden", "t1", "ref", "default"),
    ("faults", REDUCED_F8, "default", "faulted"),
    ("telemetry", REDUCED_F8, "default", "telemetry"),
)


class Runner:
    """Runs each distinct (command, side) once and compares reports."""

    def __init__(self, tmp: str, ref_src: str | None):
        self.tmp = Path(tmp)
        self.ref_src = ref_src
        self.runs: dict[tuple[str, str], Run] = {}

    def run(self, command: str, name: str) -> Run:
        if (command, name) in self.runs:
            return self.runs[command, name]
        side = SIDES[name]
        workdir = Path(tempfile.mkdtemp(dir=self.tmp))
        path = [self.ref_src if side.ref else SRC]
        if side.no_numpy:
            (workdir / "numpy.py").write_text("raise ImportError('numpy disabled')\n")
            path.insert(0, str(workdir))
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(path)
        env["REPRO_CACHE_DIR"] = str(workdir / "cache")
        env.update(side.env)
        if command == REDUCED_F8:
            argv = ["-c", _REDUCED_F8_CODE]
        else:
            argv = ["-m", "repro.cli", command]
        print(f"  {command} on {name} ...", flush=True)
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, *argv],
            cwd=workdir,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as proc:
            problems = side.live(proc) if side.live else []
            try:
                stdout, stderr = proc.communicate(timeout=TIMEOUT_SECONDS)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise SystemExit(f"{command} on {name}: no exit in {TIMEOUT_SECONDS}s")
        if proc.returncode != 0:
            raise SystemExit(f"{command} on {name} exited {proc.returncode}:\n{stderr}")
        run = Run(stdout, time.perf_counter() - start, workdir, problems)
        self.runs[command, name] = run
        return run

    def check_row(self, command: str, reference: str, *others: str) -> bool:
        ref = self.run(command, reference)
        ok = True
        for name in others:
            new = self.run(command, name)
            problems = list(new.problems)
            if new.report != ref.report:
                a, b = ref.report, new.report
                i = next(
                    (i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                    min(len(a), len(b)),
                )
                problems.append(
                    f"report differs from {reference} at line {i + 1}:\n"
                    f"    {reference}: {a[i] if i < len(a) else '<end of report>'}\n"
                    f"    {name}: {b[i] if i < len(b) else '<end of report>'}"
                )
            elif SIDES[name].check is not None:
                try:
                    problems += SIDES[name].check(new, ref)
                except (OSError, ValueError) as exc:  # a missing or garbled artifact
                    problems.append(str(exc))
            for problem in problems:
                print(f"  FAIL {name}: {problem}")
            if not problems:
                print(f"  OK {name} == {reference} ({len(ref.report)} lines)")
            ok &= not problems
        return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ref-src", help="src/ of the reference tree the golden rows compare against"
    )
    parser.add_argument(
        "targets",
        nargs="*",
        help="suites (engines) or rows (engines/f8); default: every row",
    )
    args = parser.parse_args(argv)
    ref_src = args.ref_src and str(Path(args.ref_src).resolve())
    known = {suite for suite, *_ in ROWS} | {f"{s}/{c}" for s, c, *_ in ROWS}
    unknown = set(args.targets) - known
    if unknown:
        parser.error(f"unknown targets {sorted(unknown)}; choose from {sorted(known)}")
    ok, suite_seconds = True, {}
    with tempfile.TemporaryDirectory(prefix="repro-check-") as tmp:
        runner = Runner(tmp, ref_src)
        for suite, command, *sides in ROWS:
            row = f"{suite}/{command}"
            if args.targets and suite not in args.targets and row not in args.targets:
                continue
            print(f"[{row}]", flush=True)
            if ref_src is None and any(SIDES[s].ref for s in sides):
                print("  SKIPPED: needs --ref-src")
                continue
            start = time.perf_counter()
            ok &= runner.check_row(command, *sides)
            seconds = time.perf_counter() - start
            suite_seconds[suite] = suite_seconds.get(suite, 0.0) + seconds
    walls = ", ".join(f"{s} {t:.1f}s" for s, t in suite_seconds.items())
    print(f"{'OK' if ok else 'FAIL'}: {len(runner.runs)} child processes; {walls}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
