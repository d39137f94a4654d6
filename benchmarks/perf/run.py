#!/usr/bin/env python3
"""The repository's performance benchmark: one re-runnable command.

    python3 benchmarks/perf/run.py                      # every workload, both passes
    python3 benchmarks/perf/run.py --workload mesh8_sat --seed 1 --seconds 15 --trace 0
    python3 benchmarks/perf/run.py --agree              # everything twice, compared

One run = one workload, closed loop, single process, single thread, in
fresh child interpreters (``worker.py``) whose environment has every
``REPRO_*`` variable scrubbed.  ``--trace 0`` reports the end-to-end
metrics with tracing off; ``--trace 1`` reports the per-layer metrics from a
separately traced pass.  Every metric is printed by name with its unit; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero when
an output check fails or the simulator source is missing.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from manifest import (
    END_TO_END,
    HERE,
    ROOT,
    RUN_SECONDS,
    SETUP_SAMPLES,
    SRC,
    WORKLOADS,
    per_layer,
    units,
)

#: Output records and trace files of the last runs (git-ignored).
OUT = HERE / "out"

#: Seconds a whole run may take before its current child is killed (the
#: driver allows a run 180 s).
RUN_TIMEOUT = 170.0


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not an output-check failure)."""


def child_env(work: Path) -> tuple[dict[str, str], list[str]]:
    """The children's environment, and the ``REPRO_*`` names scrubbed from it."""
    env = dict(os.environ)
    scrubbed = sorted(name for name in env if name.startswith("REPRO_"))
    for name in scrubbed:
        del env[name]
    # No child may fall back to ~/.cache/repro: reads and writes stay inside
    # the checkout.  SweepPass points this at a fresh directory per pass.
    env["REPRO_CACHE_DIR"] = str(work / "cache-default")
    # Users import from warm bytecode.  Keep it in the work directory so the
    # first child compiles, the timed ones do not, and src/ is never written.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env, scrubbed


def spawn(mode: str, work: Path, env: dict[str, str], deadline: float, *extra: str) -> dict:
    """Run one worker to completion and return the JSON it printed."""
    command = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
               "--work", str(work), *extra]
    child = subprocess.Popen(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as error:
        # Timeout or interrupt: take down the child and anything it forked
        # (partition workers), then reap it.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        if isinstance(error, subprocess.TimeoutExpired):
            raise HarnessError(f"worker --mode {mode} ran past the run's deadline")
        raise
    if child.returncode != 0:
        raise HarnessError(f"worker --mode {mode} exited with {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def summary(samples: list[float]) -> dict:
    """Median with quartiles, extremes and the sample count."""
    q1, _, q3 = (
        statistics.quantiles(samples, n=4) if len(samples) > 1 else [samples[0]] * 3
    )
    return {
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
    }


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload; returns the full output record."""
    work = HERE / ".work" / f"{os.getpid()}-{time.monotonic_ns()}"
    work.mkdir(parents=True)
    env, scrubbed = child_env(work)
    deadline = time.monotonic() + RUN_TIMEOUT
    common = (deadline, "--workload", workload, "--seed", str(seed))
    try:
        # The first child compiles every module; its timing is discarded.
        spawn("setup", work, env, *common)
        if trace:
            imports = [
                spawn("import", work, env, deadline)["seconds"] for _ in range(3)
            ]
            setups = []
        else:
            setups = [
                spawn("setup", work, env, *common)["seconds"]
                for _ in range(SETUP_SAMPLES)
            ]
        measured = spawn(
            "measure", work, env, *common, "--seconds", str(seconds),
            "--trace", str(trace), "--out", str(OUT),
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unit = units()
    if trace:
        values = dict(measured["layer"])
        values["cli.import_s"] = statistics.median(imports)
        stats = {}
        names = [name for name, _, _ in per_layer()]
    else:
        samples = dict(measured["samples"], setup_s=setups)
        measured["samples"] = samples
        stats = {name: summary(samples[name]) for name, _, _, _ in END_TO_END}
        values = {name: s["median"] for name, s in stats.items()}
        names = [name for name, _, _, _ in END_TO_END]
    missing = [name for name in names if name not in values]
    if missing:
        raise HarnessError(f"{workload}: metrics not produced: {missing}")
    return {
        "workload": workload,
        "trace": trace,
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "failures": measured["failures"],
        "metrics": {n: {"value": values[n], "unit": unit[n]} for n in names},
        "stats": stats,
        # Raw samples, except the thousands of sub-millisecond replays.
        "samples": {k: v for k, v in measured["samples"].items() if len(v) <= 100},
        "bases": measured["bases"],
        "digest": measured["digest"],
        "provenance": {
            "git_commit": git_commit(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": measured["numpy"],
            "seed": seed,
            "run_seconds": seconds,
            "repetitions": {
                "setup": len(setups),
                "passes": len(measured["samples"]["wall_s"]),
                "warm_replays": len(measured["samples"]["warm_replay_ms"]),
                "scenarios_per_pass": measured["scenarios"],
            },
            "scrubbed_env": scrubbed,
        },
    }


def show(record: dict) -> None:
    """Human-readable table of one record."""
    kind = "per-layer (traced)" if record["trace"] else "end-to-end (untraced)"
    prov = record["provenance"]
    print(f"== {record['workload']}  {kind}  seed {prov['seed']} ==")
    print(
        f"   commit {prov['git_commit']}  cpus {prov['cpu_count']}  python "
        f"{prov['python']}  numpy {prov['numpy']}  repetitions {prov['repetitions']}"
        f"  scrubbed {prov['scrubbed_env']}"
    )
    for name, metric in record["metrics"].items():
        line = f"   {name:36s} {metric['value']:>16.6g} {metric['unit']}"
        stat = record["stats"].get(name)
        if stat:
            line += (
                f"   [q1 {stat['q1']:.6g}  q3 {stat['q3']:.6g}  min {stat['min']:.6g}"
                f"  max {stat['max']:.6g}  n {stat['n']}]"
            )
        if name in record["bases"]:
            line += f"   ({record['bases'][name]})"
        print(line)
    print(
        f"   checks: {record['attempted']} scenario runs attempted, "
        f"{record['failed']} failed; digest {record['digest'][:16]}"
    )
    for failure in record["failures"]:
        print(f"   FAILED: {failure}")


def contract_line(record: dict) -> str:
    return json.dumps(
        {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    )


def save(record: dict) -> None:
    OUT.mkdir(exist_ok=True)
    name = f"{record['workload']}-seed{record['provenance']['seed']}-trace{record['trace']}"
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n")


def agreement(first: dict, second: dict) -> bool:
    """Print how two runs of one workload agree; True when all are ok."""
    print(f"== agreement: {first['workload']} ==")
    ok = first["digest"] == second["digest"]
    print(f"   result digest        {'ok' if ok else 'unresolved'} (must match exactly)")
    for name, _, _, bound in END_TO_END:
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        diff = abs(a - b) / min(a, b)
        verdict = "ok" if diff <= bound else "unresolved"
        ok = ok and diff <= bound
        print(
            f"   {name:20s} {a:>14.6g} {b:>14.6g}  diff {diff:7.2%}  "
            f"bound {bound:.0%}  {verdict}"
        )
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [name for name, _ in WORKLOADS]
    parser.add_argument("--workload", choices=names, help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0 end-to-end, 1 per-layer; default: both")
    parser.add_argument("--agree", action="store_true",
                        help="run the untraced set twice and compare the medians")
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no simulator source at {SRC}", file=sys.stderr)
        return 2

    workloads = [args.workload] if args.workload else names
    traces = [args.trace] if args.trace is not None else [0, 1]
    if args.agree:
        traces = [0]
    records = []
    agreed = True
    try:
        for workload in workloads:
            for trace in traces:
                record = run_one(workload, args.seed, args.seconds, trace)
                show(record)
                save(record)
                records.append(record)
                if args.agree:
                    again = run_one(workload, args.seed, args.seconds, trace)
                    show(again)
                    records.append(again)
                    agreed = agreement(record, again) and agreed
    except HarnessError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1

    if len(records) == 1:
        final = records[0]
    else:
        final = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {
                f"{r['workload']}.{name}": metric
                for r in records[:: 2 if args.agree else 1]
                for name, metric in r["metrics"].items()
            },
        }
    print(contract_line(final))
    return 0 if final["correct"] and agreed else 1


if __name__ == "__main__":
    sys.exit(main())
