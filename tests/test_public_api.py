"""Public-API surface tests: everything advertised must import and exist."""

import importlib

import pytest

import repro

PACKAGES = [
    "repro.core",
    "repro.network",
    "repro.topology",
    "repro.routing",
    "repro.traffic",
    "repro.sim",
    "repro.timing",
    "repro.energy",
    "repro.manycore",
    "repro.parallel",
    "repro.analysis",
    "repro.report",
    "repro.experiments",
    "repro.cli",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports(package):
    importlib.import_module(package)


def test_top_level_all_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} missing"


@pytest.mark.parametrize("package", PACKAGES[:-1])
def test_subpackage_all_resolves(package):
    mod = importlib.import_module(package)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{package}.{name} missing"


def test_version_string():
    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_packaging_version_is_single_sourced():
    """pyproject.toml reads ``repro.__version__`` and states no second one."""
    from pathlib import Path

    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    data = tomllib.loads(pyproject.read_text())
    assert "version" not in data["project"]
    assert data["project"]["dynamic"] == ["version"]
    assert data["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "repro.__version__"
    }


def test_headline_workflow_composes():
    """The README quickstart snippet works as written (tiny scale)."""
    from repro import paper_config, saturation_throughput

    cfg = paper_config("vix")
    assert cfg.router.allocator == "vix"
    # A 16-terminal stand-in keeps this a unit test.
    from dataclasses import replace

    small = replace(cfg, num_terminals=16)
    res = saturation_throughput(small, seed=1, warmup=100, measure=300)
    assert res.throughput_flits_per_node > 0
