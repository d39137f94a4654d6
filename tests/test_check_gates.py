"""The gate table in ``scripts/check.py``: well formed, and its runner
tells equal reports from different ones.

The runner is driven for real on its cheapest row (``engines/t1``) from a
working directory outside the repository, with no ``PYTHONPATH``: every
path must resolve from the script itself.  A planted mismatch -- a copy
of the tree whose t1 report says something else, passed as the golden
rows' reference tree -- must fail and name the first differing line.
"""

from __future__ import annotations

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

from repro.registry import experiments

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "check.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("check_gates", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _gate(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_rows_are_well_formed():
    check = _load_script()
    ids = [f"{suite}/{command}" for suite, command, *_ in check.ROWS]
    assert len(ids) == len(set(ids))
    for suite, command, *sides in check.ROWS:
        row = f"{suite}/{command}"
        assert len(sides) >= 2, row
        assert set(sides) <= set(check.SIDES), row
        assert len(set(sides)) == len(sides), f"{row} compares a side with itself"
        assert command == check.REDUCED_F8 or command in experiments, row


def test_cheapest_row_passes_from_any_cwd(tmp_path):
    proc = _gate(tmp_path, "engines/t1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "OK default == dense" in proc.stdout
    assert "OK: 2 child processes" in proc.stdout


def test_planted_mismatch_fails_at_the_first_differing_line(tmp_path):
    planted = tmp_path / "planted"
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    shutil.copytree(REPO / "src", planted, ignore=ignore)
    table = planted / "repro" / "experiments" / "table1_delays.py"
    source = table.read_text()
    assert "Crossbar slack:" in source
    table.write_text(source.replace("Crossbar slack:", "Crossbar slack (planted):"))

    proc = _gate(tmp_path, "--ref-src", str(planted), "golden/t1")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL default: report differs from ref at line" in proc.stdout
    assert "ref: Crossbar slack (planted):" in proc.stdout
    assert "default: Crossbar slack:" in proc.stdout
