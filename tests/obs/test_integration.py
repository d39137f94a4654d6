"""End-to-end observability: result identity, IF-vs-VIX telemetry, traces.

The two load-bearing guarantees:

* **Result identity** — enabling metrics/tracing must not change a single
  simulation output field (the probes disable the grant-equivalent fast
  paths, so this actually exercises the equivalence claim).
* **The paper's story is measurable** — at equal load the baseline IF
  allocator shows non-zero phase-2 kills and input-port-constraint blocks,
  and 1:2 VIX shows strictly fewer blocks, a strictly lower overall
  lost-opportunity rate, and strictly higher matching efficiency.
"""

import dataclasses
import json
import math

import pytest

from repro.network.config import NetworkConfig, RouterConfig
from repro.obs import ObservabilityConfig
from repro.sim.engine import run_simulation


def mesh_config(allocator="input_first", **router_overrides):
    return NetworkConfig(
        topology="mesh",
        num_terminals=16,
        router=RouterConfig(allocator=allocator, **router_overrides),
        packet_length=4,
    )


def run(config, *, obs=None, rate=0.15, **overrides):
    defaults = dict(injection_rate=rate, seed=3, warmup=100, measure=400)
    defaults.update(overrides)
    return run_simulation(config, obs=obs, **defaults)


METRICS = ObservabilityConfig(metrics=True)
#: Counters measuring the engine that ran, not the simulated network.
ENGINE_COUNTERS = ("router_wakeups", "cycles_skipped", "vec_kernel_cycles")
FULL_TRACE = ObservabilityConfig(metrics=True, trace=True)


class TestResultIdentity:
    @pytest.mark.parametrize("allocator", ["input_first", "vix", "wavefront"])
    def test_observability_does_not_change_results(self, allocator):
        base = run(mesh_config(allocator))
        observed = run(mesh_config(allocator), obs=FULL_TRACE)
        assert base.metrics is None
        assert observed.metrics is not None
        # The default engine steps this load on the SoA kernel (where
        # numpy is installed) and hands an observed run to the gated object
        # engine, so the counters that describe the engine itself are the
        # one legitimate difference.
        for result in (base, observed):
            for key in ENGINE_COUNTERS:
                result.counters.pop(key, None)
        for f in dataclasses.fields(base):
            if f.name == "metrics":
                continue
            assert getattr(base, f.name) == getattr(observed, f.name), f.name

    def test_disabled_default_attaches_nothing(self, monkeypatch):
        for var in ("REPRO_TRACE", "REPRO_METRICS_OUT", "REPRO_PROFILE",
                    "REPRO_PROFILE_DIR"):
            monkeypatch.delenv(var, raising=False)
        from repro.sim.engine import Simulation

        sim = Simulation(mesh_config())
        assert sim._obs is None
        network = sim.domains[0]
        assert network.tracer is None
        assert all(r.allocator.probe is None for r in network.routers)
        assert all(r._alloc_fast is not None for r in network.routers)

    def test_gated_and_dense_telemetry_identical(self):
        gated = run(mesh_config(), obs=METRICS, activity_gating=True)
        dense = run(mesh_config(), obs=METRICS, activity_gating=False)
        g, d = dict(gated.metrics), dict(dense.metrics)
        # Gating-bookkeeping counters legitimately differ; the telemetry
        # the probes produce must not.
        for key in ("router_wakeups", "cycles_skipped"):
            g.pop(key, None)
            d.pop(key, None)
        assert g == d


class TestPaperStory:
    def test_if_vs_vix_matching_telemetry(self):
        m_if = run(mesh_config("input_first"), rate=0.2).metrics or {}
        assert m_if == {}  # sanity: disabled runs carry no metrics
        m_if = run(mesh_config("input_first"), obs=METRICS, rate=0.2).metrics
        m_vix = run(mesh_config("vix"), obs=METRICS, rate=0.2).metrics

        # Baseline IF suffers both problems the paper names.
        assert m_if["sa_phase2_kills"] > 0
        assert m_if["sa_input_port_blocks"] > 0
        # 1:2 VIX relaxes the input-port constraint: strictly fewer
        # requests hidden behind a busy crossbar input...
        assert m_vix["sa_input_port_blocks"] < m_if["sa_input_port_blocks"]
        # ...at the price of more phase-2 exposure, but the *total* lost
        # opportunity per exposed request strictly drops...
        lost_if = (m_if["sa_phase2_kills"] + m_if["sa_input_port_blocks"]) / m_if["sa_requests"]
        lost_vix = (m_vix["sa_phase2_kills"] + m_vix["sa_input_port_blocks"]) / m_vix["sa_requests"]
        assert lost_vix < lost_if
        # ...and achieved/maximal matching strictly improves.
        assert m_vix["sa_matching_efficiency"] > m_if["sa_matching_efficiency"]

    def test_probe_accounting_is_self_consistent(self):
        m = run(mesh_config("input_first"), obs=METRICS, rate=0.2).metrics
        assert m["sa_requests"] == (
            m["sa_phase1_winners"] + m["sa_input_port_blocks"]
        )
        assert m["sa_phase1_winners"] == m["sa_grants"] + m["sa_phase2_kills"]
        assert m["sa_grants"] <= m["sa_max_matching"]


class TestTraceIntegration:
    def test_trace_schema_and_per_packet_ordering(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs = ObservabilityConfig(trace=True, trace_path=str(path))
        res = run(mesh_config("vix"), obs=obs)
        events = [json.loads(l) for l in path.read_text().splitlines()]
        assert events
        stages_seen = set()
        by_pid = {}
        for ev in events:
            assert set(ev) >= {"cycle", "pid", "flit", "router", "stage", "vc", "vin"}
            stages_seen.add(ev["stage"])
            by_pid.setdefault(ev["pid"], []).append(ev)
        assert stages_seen == {"inject", "arrive", "va", "sa", "eject"}
        # Cycles are monotonic within a packet (events recorded in order)
        # and each fully traced packet starts with inject, ends with eject.
        full = [evs for evs in by_pid.values()
                if evs[0]["stage"] == "inject" and evs[-1]["stage"] == "eject"]
        assert full
        for evs in full:
            cycles = [e["cycle"] for e in evs]
            assert cycles == sorted(cycles)
        # VIX uses both virtual inputs of a port somewhere in the run.
        vins = {ev["vin"] for ev in events if ev["stage"] == "sa"}
        assert vins == {0, 1}
        assert res.packets_ejected > 0

    def test_sampled_trace_is_a_subset(self):
        full = run(mesh_config(), obs=ObservabilityConfig(trace=True))
        # No trace_path: nothing written, but the engine still traced.
        assert full.metrics is None
        sampled = run(
            mesh_config(),
            obs=ObservabilityConfig(
                metrics=True, trace=True, trace_sample=0.2
            ),
        ).metrics
        everything = run(
            mesh_config(), obs=ObservabilityConfig(metrics=True, trace=True)
        ).metrics
        assert 0 < sampled["trace_events_recorded"] < everything["trace_events_recorded"]

    def test_ring_buffer_drop_accounting_surfaces_in_metrics(self):
        m = run(
            mesh_config(),
            obs=ObservabilityConfig(metrics=True, trace=True, trace_buffer=50),
        ).metrics
        assert m["trace_events_buffered"] <= 50
        assert (
            m["trace_events_recorded"]
            == m["trace_events_buffered"] + m["trace_dropped_events"]
        )


class TestMetricsFileAndPercentiles:
    def test_metrics_jsonl_carries_run_context(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        obs = ObservabilityConfig(metrics=True, metrics_path=str(path))
        run(mesh_config("vix"), obs=obs)
        run(mesh_config(), obs=obs)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["allocator"] == "vix"
        assert lines[0]["virtual_inputs"] == 2
        assert lines[1]["allocator"] == "input_first"
        assert lines[0]["metrics"]["sa_rounds"] > 0

    def test_latency_percentiles_on_result(self):
        res = run(mesh_config())
        assert res.latency_p50 <= res.latency_p95 <= res.latency_p99
        assert res.latency_p50 > 0
        # Percentiles live in the same units/ballpark as the mean.
        assert res.latency_p99 >= res.avg_latency >= res.latency_p50 / 3

    def test_percentiles_nan_when_nothing_measured(self):
        res = run(mesh_config(), rate=0.0, warmup=10, measure=50)
        assert math.isnan(res.latency_p50)
        assert math.isnan(res.latency_p99)
