#!/usr/bin/env python
"""Golden-output check for the experiment-driver refactor.

Runs the CLI for the given experiments against two source trees — the
current one and a reference checkout — and requires the reports to be
byte-identical after stripping the ``[perf_counters]`` footer (which
reports wall-clock seconds and so can never be stable).

Usage::

    python scripts/check_golden.py --ref-src /tmp/ref/src f8 t1

The cache is disabled in both runs so every number is freshly computed
through each tree's own execution path.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys


def run_cli(src_dir: str, experiment: str) -> str:
    """One experiment's report, with volatile footer lines stripped."""
    # The caller's REPRO_* exports must not change what the gate compares.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=src_dir, REPRO_NO_CACHE="1")
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", experiment],
        capture_output=True,
        text=True,
        env=env,
    )
    if result.returncode != 0:
        raise SystemExit(
            f"{experiment} failed under {src_dir}:\n{result.stderr}"
        )
    lines = [
        line
        for line in result.stdout.splitlines()
        if not line.startswith("[perf_counters]")
    ]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--ref-src",
        required=True,
        help="src/ directory of the reference checkout (the golden tree)",
    )
    parser.add_argument(
        "--src",
        default="src",
        help="src/ directory of the tree under test (default: src)",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["f8", "t1"],
        help="experiment ids to compare (default: f8 t1)",
    )
    args = parser.parse_args(argv)

    failures = 0
    for experiment in args.experiments or ["f8", "t1"]:
        golden = run_cli(args.ref_src, experiment)
        current = run_cli(args.src, experiment)
        if current == golden:
            print(f"[golden] {experiment}: identical")
            continue
        failures += 1
        print(f"[golden] {experiment}: MISMATCH")
        sys.stdout.writelines(
            difflib.unified_diff(
                golden.splitlines(keepends=True),
                current.splitlines(keepends=True),
                fromfile=f"golden/{experiment}",
                tofile=f"current/{experiment}",
            )
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
