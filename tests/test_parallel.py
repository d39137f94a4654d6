"""Tests for the parallel execution layer: job specs, fan-out, caching.

The headline property is *serial equivalence*: any number of worker
processes must produce results field-for-field identical to a plain serial
loop, including after cache hits and worker-crash fallbacks.
"""

import dataclasses
import json
import multiprocessing
import os
import pickle

import pytest

from repro.network.config import NetworkConfig, RouterConfig
from repro.parallel import (
    ExecutionStats,
    ParallelRunner,
    ResultCache,
    SimJob,
    resolve_jobs,
    result_from_jsonable,
    result_to_jsonable,
    run_sim_jobs,
)
from repro.sim.sweep import find_saturation_rate, latency_sweep
from repro.traffic.patterns import Transpose


def small_config(allocator="input_first"):
    return NetworkConfig(
        topology="mesh",
        num_terminals=16,
        router=RouterConfig(
            allocator=allocator,
            vc_policy="vix_dimension" if allocator == "vix" else "max_credit",
        ),
        packet_length=4,
    )


def small_job(allocator="input_first", **overrides):
    defaults = dict(injection_rate=0.05, seed=2, warmup=100, measure=300)
    defaults.update(overrides)
    return SimJob(small_config(allocator), **defaults)


class TestSimJob:
    def test_hashable_and_picklable(self):
        job = small_job()
        assert hash(job) == hash(small_job())
        assert pickle.loads(pickle.dumps(job)) == job

    def test_key_is_stable_and_content_addressed(self):
        job = small_job()
        assert job.key() == small_job().key()
        assert len(job.key()) == 64
        # Any semantic change moves the address.
        assert job.key() != small_job(seed=3).key()
        assert job.key() != small_job(injection_rate=0.06).key()
        assert job.key() != small_job("vix").key()
        assert job.key() != small_job(drain_limit=0).key()

    def test_pattern_identity_in_key(self):
        by_name = small_job(pattern="transpose")
        by_instance = small_job(pattern=Transpose(16))
        assert by_name.key() != small_job(pattern="uniform").key()
        # Name and instance are distinct spellings, hence distinct keys,
        # but each is self-consistent.
        assert by_instance.key() == small_job(pattern=Transpose(16)).key()
        assert by_name.key() == small_job(pattern="transpose").key()

    def test_run_matches_direct_call(self):
        from repro.sim.engine import run_simulation

        job = small_job()
        direct = run_simulation(
            job.config,
            injection_rate=job.injection_rate,
            seed=job.seed,
            warmup=job.warmup,
            measure=job.measure,
        )
        assert job.run() == direct


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = small_job()
        result = job.run()
        key = job.key()
        assert cache.get(key) is None
        cache.put(key, result)
        restored = cache.get(key)
        assert restored == result
        for f in dataclasses.fields(result):
            assert getattr(restored, f.name) == getattr(result, f.name)

    def test_jsonable_round_trip(self):
        result = small_job().run()
        data = json.loads(json.dumps(result_to_jsonable(result)))
        assert result_from_jsonable(data) == result

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = small_job().key()
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text("{ not json")
        assert cache.get(key) is None
        assert not path.exists()

    def test_unknown_envelope_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = small_job()
        cache.put(job.key(), job.run())
        path = cache.path_for(job.key())
        document = json.loads(path.read_text())
        document["envelope"] = 999
        path.write_text(json.dumps(document))
        assert cache.get(job.key()) is None
        # The stale-envelope entry must be dropped so the slot can be
        # rewritten cleanly by the current version.
        assert not path.exists()

    def test_put_survives_unwritable_root(self):
        cache = ResultCache("/proc/definitely-not-writable/repro")
        job = small_job()
        cache.put(job.key(), job.run())  # must not raise

    def test_put_skips_on_readonly_root_and_cleans_temp(
        self, monkeypatch, tmp_path
    ):
        # Root runs ignore permission bits, so model a read-only cache
        # root by failing the atomic rename itself.
        cache = ResultCache(tmp_path)
        job = small_job()

        def denied(src, dst):
            raise OSError(30, "Read-only file system")

        monkeypatch.setattr(os, "replace", denied)
        cache.put(job.key(), job.run())  # must not raise
        assert cache.get(job.key()) is None
        # The orphaned temp file must not accumulate.
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_put_skips_when_temp_creation_fails(self, monkeypatch, tmp_path):
        import tempfile

        cache = ResultCache(tmp_path)
        job = small_job()

        def denied(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(tempfile, "mkstemp", denied)
        cache.put(job.key(), job.run())  # must not raise
        assert cache.get(job.key()) is None
        assert cache.get(job.key()) is None

    def test_default_honours_no_cache_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert ResultCache.default() is None
        monkeypatch.setenv("REPRO_NO_CACHE", "0")
        assert ResultCache.default() is not None

    def test_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        assert ResultCache().root == tmp_path / "alt"


class TestResolveJobs:
    def test_explicit_values(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7
        assert resolve_jobs("3") == 3
        assert resolve_jobs("auto") == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5
        monkeypatch.setenv("REPRO_JOBS", "auto")
        assert resolve_jobs(None) == (os.cpu_count() or 1)

    def test_non_numeric_env_value_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "max")
        with pytest.raises(ValueError) as excinfo:
            resolve_jobs(None)
        message = str(excinfo.value)
        assert "$REPRO_JOBS" in message
        assert "'max'" in message
        assert "auto" in message

    def test_non_numeric_argument_error_omits_env_var(self):
        with pytest.raises(ValueError) as excinfo:
            resolve_jobs("many")
        message = str(excinfo.value)
        assert "REPRO_JOBS" not in message
        assert "auto" in message


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("allocator", ["input_first", "wavefront", "vix"])
    def test_run_sim_jobs_identical(self, allocator):
        jobs = [small_job(allocator, injection_rate=r) for r in (0.03, 0.06)]
        serial = run_sim_jobs(jobs, jobs=1, cache=None)
        parallel = run_sim_jobs(jobs, jobs=4, cache=None)
        assert serial == parallel

    def test_latency_sweep_identical(self):
        cfg = small_config("vix")
        kwargs = dict(rates=(0.02, 0.05, 0.08), seed=2, warmup=100, measure=300)
        serial = latency_sweep(cfg, cache=None, jobs=1, **kwargs)
        parallel = latency_sweep(cfg, cache=None, jobs=4, **kwargs)
        assert serial == parallel

    def test_find_saturation_rate_identical(self):
        cfg = small_config("vix")
        kwargs = dict(high=0.4, warmup=100, measure=400, seed=2)
        serial = find_saturation_rate(cfg, cache=None, jobs=1, **kwargs)
        parallel = find_saturation_rate(cfg, cache=None, jobs=2, **kwargs)
        assert serial == parallel


class TestRunnerCaching:
    def test_second_run_served_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [small_job(injection_rate=r) for r in (0.03, 0.06, 0.09)]
        first = ParallelRunner(1, cache=cache)
        cold = first.run(jobs)
        assert first.stats.jobs_run == 3 and first.stats.cache_hits == 0
        second = ParallelRunner(1, cache=cache)
        warm = second.run(jobs)
        assert second.stats.jobs_run == 0 and second.stats.cache_hits == 3
        assert warm == cold

    def test_engine_mix_names_the_engine_that_stepped(self, tmp_path, monkeypatch):
        """The footer's ``engines:`` mix is read off what each run did, not
        off the request: a delegated or fallen-back run counts as gated."""
        pytest.importorskip("numpy")
        import repro.sim.engines as engines

        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        monkeypatch.delenv("REPRO_VEC_MIN_FLITS", raising=False)
        jobs = [
            small_job(injection_rate=0.5),  # default, busy: the kernel
            small_job(injection_rate=0.02),  # default, delegates at low load
            small_job("packet_chaining", injection_rate=0.5),  # no kernel
            small_job(injection_rate=0.02, engine="vectorized"),  # named, delegates
        ]
        cache = ResultCache(tmp_path)
        first = ParallelRunner(1, cache=cache)
        first.run(jobs)
        assert first.stats.engine_jobs == {"gated": 3, "vectorized": 1}
        assert "engines: gated=3 vectorized=1" in first.stats.summary()

        # A cache hit never resolves an engine (that builds a topology).
        def resolved_on_a_hit(*args, **kwargs):
            raise AssertionError("engine resolved on the cache-hit path")

        monkeypatch.setattr(engines, "resolve_engine", resolved_on_a_hit)
        second = ParallelRunner(1, cache=cache)
        second.run(jobs)
        assert second.stats.cache_hits == 4 and not second.stats.engine_jobs

    def test_partitioned_footer_names_the_domain_engine(self, monkeypatch):
        """``partitioned[...]`` reports what stepped the domains: a named
        engine as named, an unnamed one by whether the kernel ran."""
        pytest.importorskip("numpy")
        from repro.network.links import PartitionConfig

        for name in ("REPRO_ENGINE", "REPRO_DOMAIN_ENGINE", "REPRO_VEC_MIN_FLITS"):
            monkeypatch.delenv(name, raising=False)
        part = dict(dims=(2, 2), link_latency=2)
        jobs = [
            small_job(injection_rate=0.5, partition=PartitionConfig(**part)),
            small_job(injection_rate=0.001, partition=PartitionConfig(**part)),
            small_job(
                injection_rate=0.5,
                partition=PartitionConfig(domain_engine="dense", **part),
            ),
        ]
        runner = ParallelRunner(1, cache=None)
        runner.run(jobs)
        assert runner.stats.engine_jobs == {
            "partitioned[vectorized]": 1,
            "partitioned[gated]": 1,
            "partitioned[dense]": 1,
        }
        # Unnamed runs key on the engine as named (null), like SimJob.engine.
        assert jobs[0].key() != small_job(
            injection_rate=0.5,
            partition=PartitionConfig(domain_engine="vectorized", **part),
        ).key()

    def test_sweep_cache_hit_rate(self, tmp_path):
        cache = ResultCache(tmp_path)
        cfg = small_config()
        kwargs = dict(rates=(0.02, 0.05, 0.08), seed=2, warmup=100, measure=300)
        stats = ExecutionStats()
        cold = latency_sweep(cfg, cache=cache, stats=stats, **kwargs)
        again = ExecutionStats()
        warm = latency_sweep(cfg, cache=cache, stats=again, **kwargs)
        assert warm == cold
        # The acceptance bar: >= 90% of the repeat sweep comes from cache.
        assert again.cache_hits / len(kwargs["rates"]) >= 0.9
        assert again.jobs_run == 0

    def test_saturation_probes_each_rate_once(self, monkeypatch):
        import repro.sim.engine as engine

        probed = []
        real = engine.run_simulation

        def counting(config, **kwargs):
            probed.append(kwargs["injection_rate"])
            return real(config, **kwargs)

        # SimJob.run resolves run_simulation at call time, so patching the
        # engine module intercepts every probe.
        monkeypatch.setattr(engine, "run_simulation", counting)
        find_saturation_rate(
            small_config(), high=0.4, warmup=100, measure=300, cache=None, jobs=1
        )
        assert probed, "bisection ran no simulations"
        assert len(probed) == len(set(probed)), "a rate was simulated twice"


def _crash_in_worker(value):
    """Succeed inline, die instantly inside a pool worker."""
    if multiprocessing.parent_process() is not None:
        os._exit(13)
    return value * 2


class TestWorkerCrashFallback:
    def test_retry_then_inline_fallback(self):
        runner = ParallelRunner(2)
        with pytest.warns(RuntimeWarning, match="falling back to inline"):
            outputs = runner.map(_crash_in_worker, [1, 2, 3])
        assert outputs == [2, 4, 6]
        assert runner.stats.worker_retries > 0
        assert runner.stats.inline_fallbacks > 0

    def test_job_exception_does_not_crash_runner(self):
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ZeroDivisionError):
                ParallelRunner(2).map(_divide, [1, 0])


def _divide(value):
    return 1 // value
