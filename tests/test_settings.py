"""The settings table (ISSUE 24): one contract for every ``REPRO_*`` variable.

Table-driven: each case below is parametrized over every row of
:data:`repro.settings.SETTINGS`, and each row is exercised through the
function that actually reads it, so a reader that bypasses the table — or
a variable that is not a row of it — fails here.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

from repro import settings
from repro.cli import main
from repro.experiments.runner import full_fidelity_requested, resume_requested
from repro.network.config import NetworkConfig, RouterConfig
from repro.network.links import PartitionConfig
from repro.obs import ObservabilityConfig, TelemetryConfig
from repro.parallel.cache import cache_disabled, default_cache_dir
from repro.parallel.faults import hang_seconds, inject_fault
from repro.parallel.runner import (
    resolve_backoff,
    resolve_jobs,
    resolve_max_retries,
    resolve_timeout,
)
from repro.sim.engines import default_engine, make_engine

REPO = Path(__file__).resolve().parent.parent
NAMES = list(settings.SETTINGS)
SWITCHES = [n for n, s in settings.SETTINGS.items() if s.default is False]


def _min_flits_reader():
    pytest.importorskip("numpy")
    cfg = NetworkConfig(
        topology="mesh",
        num_terminals=16,
        router=RouterConfig(num_vcs=4, allocator="input_first"),
    )
    return make_engine("vectorized", cfg, injection_rate=1.0)


_PART = PartitionConfig.from_env
_OBS = ObservabilityConfig.from_env
_TEL = TelemetryConfig.from_env

#: name -> (the first function a run reaches that reads it, values it must
#: reject).  Path rows reject nothing.  Marked: bugs at ISSUE 24's parent.
ROWS = {
    "REPRO_FULL": (full_fidelity_requested, ["maybe"]),
    "REPRO_JOBS": (resolve_jobs, ["max", "2.5"]),
    "REPRO_ENGINE": (default_engine, ["warp"]),
    "REPRO_VEC_MIN_FLITS": (_min_flits_reader, ["six", "-1", "nan"]),
    "REPRO_CACHE_DIR": (default_cache_dir, []),
    "REPRO_NO_CACHE": (cache_disabled, ["maybe"]),
    "REPRO_RESUME": (resume_requested, ["maybe"]),
    "REPRO_TIMEOUT": (resolve_timeout, ["never", "0", "-1"]),
    "REPRO_MAX_RETRIES": (resolve_max_retries, ["lots", "-1"]),
    "REPRO_RETRY_BACKOFF": (resolve_backoff, ["soon", "-0.1", "inf"]),
    "REPRO_FAULTS": (lambda: inject_fault(0, 0), ["nuke@0", "raise@", "hang@1x0"]),
    "REPRO_FAULT_HANG_SECONDS": (hang_seconds, ["soon"]),  # bare float() error
    "REPRO_PARTITION": (_PART, ["2by2", "2x"]),
    "REPRO_DOMAIN_ENGINE": (_PART, ["simd"]),
    "REPRO_TRACE": (_OBS, []),
    "REPRO_TRACE_SAMPLE": (_OBS, ["abc", "2", "0"]),  # bare float() / unnamed
    "REPRO_TRACE_BUFFER": (_OBS, ["big", "0"]),  # bare int() / unnamed
    "REPRO_METRICS_OUT": (_OBS, []),
    "REPRO_PROFILE": (_OBS, ["maybe"]),
    "REPRO_PROFILE_DIR": (_OBS, []),
    "REPRO_MONITOR": (_TEL, ["maybe"]),
    "REPRO_SERVE": (_TEL, ["http", "70000", "-1"]),  # bare int() / unchecked
    "REPRO_TRACE_EXPORT": (_TEL, ["perfetto"]),
    "REPRO_TRACE_EXPORT_OUT": (_TEL, []),
}
READERS = {name: reader for name, (reader, _) in ROWS.items()}
#: Rows whose membership check is the owner's parser, passed as ``convert=``.
CONVERTED = ("REPRO_ENGINE", "REPRO_FAULTS")


@pytest.fixture(autouse=True)
def _clean_environment():
    """No row set on entry; whatever a test (or ``main``) sets is undone."""
    saved = {name: os.environ.pop(name, None) for name in NAMES}
    yield
    for name, value in saved.items():
        os.environ.pop(name, None)
        if value is not None:
            os.environ[name] = value


def test_every_row_is_covered_here():
    assert list(ROWS) == NAMES and len(NAMES) == 24


@pytest.mark.parametrize("name", NAMES)
def test_unset_and_blank_are_the_default(name, monkeypatch):
    default = settings.SETTINGS[name].default
    assert settings.get(name) == default
    unset = READERS[name]()
    monkeypatch.setenv(name, "   ")
    assert settings.get(name) == default
    blank = READERS[name]()
    if name != "REPRO_VEC_MIN_FLITS":  # its reader builds an engine
        assert blank == unset


@pytest.mark.parametrize(
    "name, raw", [(n, raw) for n, (_, values) in ROWS.items() for raw in values]
)
def test_malformed_value_names_the_variable_at_its_reader(name, raw, monkeypatch):
    monkeypatch.setenv(name, raw)
    expected = settings.SETTINGS[name].expected
    with pytest.raises(ValueError) as exc:
        READERS[name]()
    assert str(exc.value) == f"invalid ${name} value {raw!r}: expected {expected}"
    # The same text as an explicit argument: same parser, no variable named.
    if name not in CONVERTED:
        with pytest.raises(ValueError) as exc:
            settings.parse(name, raw)
        assert str(exc.value) == f"invalid value {raw!r}: expected {expected}"


@pytest.mark.parametrize("name", [n for n, (_, bad) in ROWS.items() if not bad])
def test_path_rows_take_any_text(name, monkeypatch):
    monkeypatch.setenv(name, " ~/some dir/x.jsonl ")
    assert settings.get(name) == "~/some dir/x.jsonl"
    READERS[name]()


@pytest.mark.parametrize("name", SWITCHES)
def test_one_rule_for_every_switch(name, monkeypatch):
    assert len(SWITCHES) == 5
    for raw in ("1", "true", "TRUE", "yes", "On"):
        monkeypatch.setenv(name, raw)
        assert settings.get(name) is True, raw
    # FALSE / False read as *on* for three of the five at the parent commit.
    for raw in ("0", "false", "False", "FALSE", "off", "no", ""):
        monkeypatch.setenv(name, raw)
        assert settings.get(name) is False, raw


def test_switch_misreadings_fixed_at_their_readers(monkeypatch):
    monkeypatch.setenv("REPRO_FULL", "FALSE")
    monkeypatch.setenv("REPRO_NO_CACHE", "False")
    monkeypatch.setenv("REPRO_RESUME", "False")
    assert not full_fidelity_requested()
    assert not cache_disabled()
    assert not resume_requested()


def test_explicit_argument_beats_environment(monkeypatch):
    monkeypatch.setenv("REPRO_TIMEOUT", "7.5")
    monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
    assert resolve_timeout() == 7.5 and resolve_timeout(2) == 2.0
    assert resolve_max_retries() == 5 and resolve_max_retries(0) == 0
    with pytest.raises(ValueError, match=r"^invalid value '-1': expected"):
        resolve_max_retries(-1)


# --- the CLI writes each flag through the table -----------------------------

#: One invocation per flagged row: (arguments, what ``get`` then returns).
FLAG_CASES = {
    "REPRO_FULL": (["--full"], True),
    "REPRO_JOBS": (["--jobs", "3"], 3),
    "REPRO_ENGINE": (["--engine", "gated"], "gated"),
    "REPRO_NO_CACHE": (["--no-cache"], True),
    "REPRO_RESUME": (["--resume"], True),
    "REPRO_TIMEOUT": (["--timeout", "7.5"], 7.5),
    "REPRO_MAX_RETRIES": (["--max-retries", "0"], 0),
    "REPRO_TRACE": (["--trace", "t.jsonl"], "t.jsonl"),
    "REPRO_TRACE_SAMPLE": (["--trace-sample", "0.5"], 0.5),
    "REPRO_METRICS_OUT": (["--metrics-out", "m.jsonl"], "m.jsonl"),
    "REPRO_PROFILE": (["--profile"], True),
    "REPRO_PROFILE_DIR": (["--profile", "prof"], "prof"),
    "REPRO_MONITOR": (["--monitor"], True),
    "REPRO_SERVE": (["--serve", "0"], 0),
    "REPRO_TRACE_EXPORT": (["--trace-export", "chrome"], "chrome"),
    "REPRO_TRACE_EXPORT_OUT": (["--trace-export", "chrome:out.json"], "out.json"),
}


def test_every_flagged_row_has_a_case():
    flagged = {n for n, s in settings.SETTINGS.items() if s.flag is not None}
    assert set(FLAG_CASES) == flagged
    for name, (argv, _) in FLAG_CASES.items():
        assert argv[0] == settings.SETTINGS[name].flag


@pytest.mark.parametrize("name", FLAG_CASES)
def test_flag_round_trips_through_its_variable(name, capsys):
    argv, value = FLAG_CASES[name]
    assert main(["list", *argv]) == 0
    assert settings.get(name) == value
    others = set(NAMES) - {name, "REPRO_PROFILE", "REPRO_TRACE_EXPORT"}
    assert not [n for n in others if n in os.environ]


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["--trace-sample", "2"], "--trace-sample: invalid value '2': expected"),
        (["--serve", "70000"], "--serve: invalid value '70000': expected"),
        (["--timeout", "0"], "--timeout: invalid value '0': expected"),
        (["--max-retries", "-1"], "--max-retries: invalid value '-1': expected"),
        (["--jobs", "many"], "--jobs: invalid value 'many': expected"),
        (["--engine", "warp"], "--engine: invalid value 'warp': expected"),
        (["--trace-export", "perfetto:x"], "--trace-export: invalid value 'perfetto'"),
    ],
)
def test_flag_errors_come_from_the_table(argv, fragment, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["list", *argv])
    assert exc.value.code == 2
    assert fragment in capsys.readouterr().err


def test_list_prints_the_table(capsys):
    assert main(["list"]) == 0
    assert settings.table() in capsys.readouterr().out


def test_undeclared_variable_is_rejected_by_name(monkeypatch, capsys):
    """A removed knob must not be silently ignored: with it set, the CLI
    stops before running anything and names it."""
    monkeypatch.setenv("REPRO_LINK_WIDTH", "2")
    monkeypatch.setenv("REPRO_PARTITION", "2x2")  # declared: not named
    with pytest.raises(SystemExit) as exc:
        main(["list"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "undeclared REPRO_* variable(s) set: REPRO_LINK_WIDTH " in err
    assert settings.undeclared() == ["REPRO_LINK_WIDTH"]


# --- one home, and no undeclared knobs --------------------------------------


def test_only_settings_reads_and_only_the_cli_writes_the_environment():
    touching = {}
    for path in (REPO / "src" / "repro").rglob("*.py"):
        hits = re.findall(r"\b(?:os\.)?(?:environ|getenv|putenv)\b.*", path.read_text())
        if hits:
            touching[path.name] = hits
    assert set(touching) == {"settings.py", "cli.py"}
    # Reads are per-name gets, plus the one scan for undeclared names.
    reads = [h for h in touching["settings.py"] if not h.startswith("os.environ.get(")]
    assert reads == ['os.environ if n.startswith("REPRO_") and n not in SETTINGS)']
    assert all(h.startswith("os.environ[name] = ") for h in touching["cli.py"])


def test_every_repro_name_in_the_tree_is_a_row():
    files = [REPO / "Makefile", REPO / "README.md"]
    for top, pattern in (("src", "*.py"), ("scripts", "*"), (".github", "*.yml")):
        files += [p for p in (REPO / top).rglob(pattern) if p.is_file()]
    undeclared = {}
    for path in files:
        if path.suffix == ".pyc":
            continue
        # ``REPRO_LINK_*`` names a family: some row must start with it.
        text = path.read_text()
        for name, star in re.findall(r"\b(REPRO_[A-Z_]*[A-Z])(_?\*)?", text):
            known = any(n.startswith(name) for n in NAMES) if star else name in NAMES
            if not known:
                undeclared.setdefault(str(path.relative_to(REPO)), set()).add(name)
    assert not undeclared


def test_readme_table_is_the_rendered_table():
    assert settings.table() in (REPO / "README.md").read_text()
