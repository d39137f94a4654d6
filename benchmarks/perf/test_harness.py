"""Tests of the benchmark harness itself (tiny windows, seconds).

    python3 -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import manifest
import pytest

sys.path.insert(0, str(manifest.SRC))

import shims  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_is_the_manifest():
    declared = json.loads((manifest.ROOT / "BENCHMARK.json").read_text())
    assert declared == manifest.manifest()


def test_names_and_counts_fit_the_contract():
    spec = manifest.manifest()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in spec["end_to_end"] if m["name"] == "setup_s"
    ).items()
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit) for unit in units)
    assert set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}


def test_nested_self_times_sum_to_the_parent():
    tracer = shims.Tracer()
    tracer.begin_scenario("t")

    def spin(n):
        return sum(range(n))

    leaf = tracer.wrap("sim.vec.va_kernel", spin)
    middle = tracer.wrap("sim.vec.allocate", lambda: leaf(20000) + leaf(20000) + spin(20000))
    root = tracer.wrap("sim.run", lambda: middle() + spin(20000))
    root()
    spans = {name: (start, end, parent, span_id)
             for span_id, name, start, end, parent, _ in tracer.raw}
    root_ns = spans["sim.run"][1] - spans["sim.run"][0]
    assert tracer.self_ns() == root_ns
    assert tracer.agg["sim.vec.va_kernel"][0] == 2
    # Every level's self time is its duration minus its children's.
    middle_ns = spans["sim.vec.allocate"][1] - spans["sim.vec.allocate"][0]
    assert tracer.agg["sim.run"][1] == root_ns - middle_ns
    assert spans["sim.vec.allocate"][2] == spans["sim.run"][3]
    assert all(entry[1] > 0 for name, entry in tracer.agg.items()
               if name in ("sim.run", "sim.vec.allocate", "sim.vec.va_kernel"))


def test_raw_spans_stop_after_the_first_cycles():
    tracer = shims.Tracer()
    tracer.begin_scenario("t")
    tick = tracer.wrap("traffic.tick", lambda injector, cycle: 0,
                       before=lambda args: tracer.on_cycle(args[1]))
    for cycle in range(manifest.RAW_SPAN_CYCLES + 50):
        tick(None, cycle)
        tick(None, cycle)  # a second injector, same simulated cycle
    assert tracer.agg["traffic.tick"][0] == 2 * (manifest.RAW_SPAN_CYCLES + 50)
    assert len(tracer.raw) == 2 * manifest.RAW_SPAN_CYCLES


def _patched_attributes(tracer):
    """(holder, attribute) -> raw class/module dict entry, for every target."""
    seen = {}
    for owner, attr, _, _ in shims._targets(tracer):
        for holder in shims._holders(owner, attr, getattr(owner, attr)):
            seen[(holder, attr)] = vars(holder).get(attr, shims._MISSING)
    return seen


def test_restore_leaves_every_patched_attribute_identical():
    tracer = shims.Tracer()
    before = _patched_attributes(tracer)
    with pytest.raises(RuntimeError):
        with shims.traced(tracer):
            during = {key: vars(key[0]).get(key[1]) for key in before}
            raise RuntimeError("restore must run in the finally")
    after = _patched_attributes(tracer)
    assert all(during[key] is not before[key] for key in before)
    assert before.keys() == after.keys()
    assert all(before[key] is after[key] for key in before)


TINY = dict(warmup=50, measure=100)


def _tiny_jobs(engine):
    config = dataclasses.replace(workloads._config("vix"), num_terminals=16)
    other = dataclasses.replace(workloads._config("input_first"), num_terminals=16)
    return [
        workloads.SimJob(cfg, injection_rate=0.3, seed=3, engine=engine, **TINY)
        for cfg in (config, other)
    ]


@pytest.mark.parametrize("engine", ["vectorized", "dense"])
def test_traced_pass_reproduces_untraced_digests(engine, tmp_path, monkeypatch):
    # Delegation to the object engine would bypass the kernels under test.
    monkeypatch.setenv("REPRO_VEC_MIN_FLITS", "0")
    jobs = _tiny_jobs(engine)
    plain = workloads.EnginePass(jobs, 3, str(tmp_path / "a")).run()
    tracer = shims.Tracer()
    with shims.traced(tracer):
        # Built inside the block: routers cache allocate_fast and the
        # stepper binds its SA kernel when they are constructed.
        traced = workloads.EnginePass(jobs, 3, str(tmp_path / "b"), tracer.begin_scenario)
        results = traced.run()
        traced.store(results)
        replayed = traced.replay()
    assert [worker.digest(r) for r in results] == [worker.digest(r) for r in plain]
    assert [worker.digest(r) for r in replayed] == [worker.digest(r) for r in plain]
    calls = {name: entry[0] for name, entry in tracer.agg.items()}
    assert calls["sim.run"] == 2 and calls["traffic.tick"] > 0
    assert calls["parallel.cache_put"] == 2 and tracer.agg["parallel.cache_get"][2] == 2
    if engine == "vectorized":
        assert calls["sim.vec.sa_kernel"] > 0 and calls["sim.vec.va_kernel"] > 0
        assert calls["network.step"] == 0
    else:
        assert calls["core.allocate.vix"] > 0 and calls["core.allocate.input_first"] > 0
        assert calls["network.switch_allocate"] >= tracer.agg["network.switch_allocate"][2] > 0
    assert {span[5] for span in tracer.raw} == {shims.scenario_label(j) for j in jobs}
    trace_file = tmp_path / "trace.json"
    tracer.write_trace(trace_file)
    events = json.loads(trace_file.read_text())["traceEvents"]
    assert {"name", "ph", "ts", "dur", "args"} <= events[0].keys()
    layer = worker.layer_metrics(tracer, 1.0, tracer.self_ns() / 1e9, results)
    layer.update(worker.model_metrics(jobs, results))
    produced = set(layer) | {
        name for name, unit, _ in manifest.SINGLES if unit == "ratio"
    } | {"cli.import_s", "harness.ops_failed_frac"}
    assert produced == {name for name, _, _ in manifest.per_layer()}


def test_cross_engine_check_pairs_each_scenario_with_the_reference():
    assert workloads.reference_engine() == "dense"
    for workload in workloads.WORKLOADS.values():
        for job in workload.jobs(1):
            short, reference = workloads.check_jobs(job, (10, 20))
            assert (short.warmup, short.measure) == (10, 20)
            if job.partition is not None:
                assert reference.partition.domain_engine == "dense"
                assert reference.partition.link_latency == job.partition.link_latency
            else:
                assert reference.engine == "dense"


def test_exits_nonzero_without_a_result_when_the_simulator_is_missing(tmp_path):
    shutil.copy(manifest.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(manifest.HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "mesh8_sat",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
