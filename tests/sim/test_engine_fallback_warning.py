"""Which engine a run gets, and when the choice is announced.

ISSUE 9 satellite: when the environment prefers the vectorized engine but
the configuration cannot be vectorized, the run silently used the gated
engine — correct, but invisible.  The fallback now emits a one-line
``RuntimeWarning`` naming the scheme and the engine actually used, so a
sweep's logs show exactly which points ran where.

ISSUE 17: with no engine named anywhere the built-in default picks
``vectorized`` where the SoA kernel can run and ``gated`` elsewhere —
silently, because no preference was stated.
"""

from __future__ import annotations

import sys
import warnings

import pytest

pytest.importorskip("numpy")

from repro.network.config import NetworkConfig, RouterConfig
from repro.sim.engine import run_simulation
from repro.sim.engines import resolve_engine

RUN = dict(injection_rate=0.1, seed=1, warmup=50, measure=100, drain_limit=200)


def _config(allocator: str, topology: str = "mesh") -> NetworkConfig:
    return NetworkConfig(
        topology=topology,
        num_terminals=16,
        router=RouterConfig(num_vcs=4, allocator=allocator),
    )


def _unsupported_config() -> NetworkConfig:
    # sparoflo is not in the vectorized kernel's supported set.
    return _config("sparoflo")


class TestFallbackWarning:
    def test_warns_naming_scheme_and_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "vectorized")
        with pytest.warns(RuntimeWarning, match=r"'sparoflo'.*gated") as record:
            result = run_simulation(_unsupported_config(), **RUN)
        assert result.packets_ejected > 0
        messages = [str(w.message) for w in record]
        assert any("REPRO_ENGINE=vectorized" in m for m in messages)

    def test_no_warning_when_vectorizable(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "vectorized")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run_simulation(_config("input_first"), **RUN)

    def test_no_warning_without_env_preference(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run_simulation(_unsupported_config(), **RUN)

    def test_explicit_vectorized_still_fails_loudly(self):
        from repro.registry import UnknownSchemeError

        with pytest.raises(UnknownSchemeError):
            run_simulation(_unsupported_config(), engine="vectorized", **RUN)


class TestDefaultEngine:
    def test_default_engine_resolution(self, monkeypatch):
        """No engine named anywhere: the kernel where it can run, gated
        where it cannot, and not a word about it either way."""
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        # Above the low-load delegation threshold, so "vectorized" means
        # the kernel really steps the run.
        busy = dict(RUN, injection_rate=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for allocator in ("input_first", "vix", "wavefront", "augmenting_path"):
                result = run_simulation(_config(allocator), **busy)
                assert result.counters["vec_kernel_cycles"] > 0, allocator
            for cfg in (_config("packet_chaining"), _config("input_first", "torus")):
                result = run_simulation(cfg, **busy)
                assert "vec_kernel_cycles" not in result.counters
                assert result.counters["router_wakeups"] > 0
            # The dense reference loop is still one keyword away.
            assert (
                resolve_engine(_config("input_first"), activity_gating=False)
                == "dense"
            )

        # A stated preference that cannot be met is still announced.
        monkeypatch.setenv("REPRO_ENGINE", "vectorized")
        with pytest.warns(RuntimeWarning, match="'gated' engine instead"):
            run_simulation(_config("packet_chaining"), **busy)
        monkeypatch.delenv("REPRO_ENGINE")

        # No numpy: the default is the gated engine, silently.
        monkeypatch.setitem(sys.modules, "numpy", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_simulation(_config("input_first"), **busy)
        assert "vec_kernel_cycles" not in result.counters
        assert result.counters["router_wakeups"] > 0
