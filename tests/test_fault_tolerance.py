"""Fault-tolerance tests: cancellation, retry, journal, resume.

These exercise the failure paths of the parallel layer under the
deterministic fault-injection harness (:mod:`repro.parallel.faults`):
hung workers must be genuinely killed (no zombie completes the job a
second time, pool shutdown never blocks), crashes retry per job, and an
interrupted sweep resumes from the checkpoint journal with byte-identical results.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.experiments.runner import execute_spec
from repro.experiments.spec import ExperimentSpec, ScenarioSpec
from repro.parallel import (
    FaultInjected,
    JobTimeoutError,
    ParallelRunner,
    RunJournal,
    journal_path,
    result_to_jsonable,
)
from repro.parallel.faults import (
    FAULTS_ENV,
    HANG_SECONDS_ENV,
    FaultSpec,
    hang_seconds,
    parse_faults,
)
from repro.parallel.journal import COMPLETED_STATUSES
from repro.parallel.runner import BACKOFF_CAP_SECONDS


def _double(value):
    return value * 2


def _touch(path_str):
    """Touch a marker file — detects zombie (post-kill) job completion."""
    Path(path_str).touch()
    return path_str


@pytest.fixture(autouse=True)
def _clean_fault_env(monkeypatch):
    """Fault/knob variables never leak between tests."""
    for name in (
        FAULTS_ENV,
        HANG_SECONDS_ENV,
        "REPRO_TIMEOUT",
        "REPRO_MAX_RETRIES",
        "REPRO_RETRY_BACKOFF",
        "REPRO_RESUME",
        "REPRO_JOBS",
    ):
        monkeypatch.delenv(name, raising=False)


class TestFaultParsing:
    def test_directives(self):
        assert parse_faults("raise@0") == (FaultSpec("raise", 0, 1),)
        assert parse_faults("exit@1, hang@2x3") == (
            FaultSpec("exit", 1, 1),
            FaultSpec("hang", 2, 3),
        )
        assert parse_faults("raise@4x*") == (FaultSpec("raise", 4, None),)
        assert parse_faults("") == ()

    def test_matching_counts_attempts(self):
        once = FaultSpec("raise", 2, 1)
        assert once.matches(2, 0) and not once.matches(2, 1)
        assert not once.matches(1, 0)
        forever = FaultSpec("raise", 2, None)
        assert forever.matches(2, 0) and forever.matches(2, 7)

    @pytest.mark.parametrize(
        "text", ["nuke@0", "raise@", "raise@x2", "hang@1x0", "raise@-1"]
    )
    def test_invalid_directives(self, text):
        with pytest.raises(ValueError, match="REPRO_FAULTS|must be >="):
            parse_faults(text)

    def test_hang_seconds_env(self, monkeypatch):
        assert hang_seconds() == 300.0
        monkeypatch.setenv(HANG_SECONDS_ENV, "2.5")
        assert hang_seconds() == 2.5


class TestTimeoutCancellation:
    def test_hung_job_is_killed_not_awaited(self, monkeypatch, tmp_path):
        """A hanging job is killed within ~2x its budget; no zombie runs it."""
        monkeypatch.setenv(FAULTS_ENV, "hang@1x*")
        monkeypatch.setenv(HANG_SECONDS_ENV, "2")
        markers = [str(tmp_path / f"job{i}.done") for i in range(3)]
        runner = ParallelRunner(2, cache=None, timeout=0.5, max_retries=0)
        start = time.monotonic()
        with pytest.raises(JobTimeoutError, match="index 1"):
            runner.map(_touch, markers)
        elapsed = time.monotonic() - start
        # Far below the 2s hang: the worker was killed, not waited out.
        assert elapsed < 2.0
        assert runner.stats.cancellations >= 1
        # A zombie would finish its 2s sleep and touch the marker; wait
        # past that horizon and verify the kill really took.
        time.sleep(max(0.0, 2.3 - elapsed))
        assert not os.path.exists(markers[1])
        assert os.path.exists(markers[0]) and os.path.exists(markers[2])

    def test_hang_once_then_retry_succeeds(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "hang@0")
        monkeypatch.setenv(HANG_SECONDS_ENV, "30")
        runner = ParallelRunner(2, cache=None, timeout=1.0, max_retries=1)
        assert runner.map(_double, [1, 2, 3]) == [2, 4, 6]
        assert runner.stats.cancellations >= 1
        assert runner.stats.worker_retries >= 1


class TestCrashIsolation:
    def test_persistent_raise_fault_propagates(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise@0x*")
        runner = ParallelRunner(2, cache=None, max_retries=1)
        with pytest.warns(RuntimeWarning, match="falling back to inline"):
            with pytest.raises(FaultInjected):
                runner.map(_double, [1, 2])
        assert runner.stats.worker_retries >= 1

    def test_transient_raise_fault_retried(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise@1")
        runner = ParallelRunner(2, cache=None, max_retries=2)
        assert runner.map(_double, [1, 2, 3]) == [2, 4, 6]
        assert runner.stats.worker_retries == 1
        assert runner.stats.inline_fallbacks == 0


class TestBackoff:
    def test_capped_exponential_schedule(self):
        runner = ParallelRunner(2, cache=None, backoff=0.2)
        assert runner._backoff_delay(1) == pytest.approx(0.2)
        assert runner._backoff_delay(2) == pytest.approx(0.4)
        assert runner._backoff_delay(3) == pytest.approx(0.8)
        assert runner._backoff_delay(10) == BACKOFF_CAP_SECONDS

    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
        monkeypatch.setenv("REPRO_TIMEOUT", "7.5")
        runner = ParallelRunner(2, cache=None)
        assert runner.max_retries == 5
        assert runner.backoff == 0.01
        assert runner.timeout == 7.5

    @pytest.mark.parametrize(
        ("name", "value", "match"),
        [
            ("REPRO_MAX_RETRIES", "lots", "REPRO_MAX_RETRIES"),
            ("REPRO_RETRY_BACKOFF", "soon", "REPRO_RETRY_BACKOFF"),
            ("REPRO_TIMEOUT", "never", "REPRO_TIMEOUT"),
            ("REPRO_TIMEOUT", "-1", "must be > 0"),
        ],
    )
    def test_env_knob_errors(self, monkeypatch, name, value, match):
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError, match=match):
            ParallelRunner(2, cache=None)


class TestRunJournal:
    def test_record_load_roundtrip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.record("k1", "completed", attempt=0, seconds=1.5)
        journal.record("k2", "timeout", attempt=1)
        journal.record("k2", "retry", attempt=1)
        journal.record("k2", "completed", attempt=1, seconds=0.2)
        entries = RunJournal.load(path)
        assert [e["status"] for e in entries] == [
            "completed",
            "timeout",
            "retry",
            "completed",
        ]
        assert entries[0] == {
            "job_key": "k1",
            "status": "completed",
            "attempt": 0,
            "seconds": 1.5,
        }
        assert RunJournal.completed_keys(path) == {"k1", "k2"}

    def test_resumed_counts_as_complete(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunJournal(path).record("k1", "resumed")
        assert "resumed" in COMPLETED_STATUSES
        assert RunJournal.completed_keys(path) == {"k1"}

    def test_torn_and_foreign_lines_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        good = json.dumps({"job_key": "k1", "status": "completed"})
        path.write_text(f'{good}\n{{"job_key": "k2", "st\n[1, 2]\n')
        assert RunJournal.completed_keys(path) == {"k1"}

    def test_missing_file_is_empty(self, tmp_path):
        assert RunJournal.load(tmp_path / "absent.jsonl") == []
        assert RunJournal.completed_keys(tmp_path / "absent.jsonl") == frozenset()

    def test_fresh_truncates(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunJournal(path).record("k1", "completed")
        RunJournal(path, fresh=True)
        assert RunJournal.load(path) == []

    def test_record_swallows_filesystem_errors(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        RunJournal(blocker / "run.jsonl").record("k1", "completed")

    def test_journal_path_lives_next_to_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert journal_path("abc") == tmp_path / "journals" / "abc.jsonl"


def _tiny_spec():
    scenarios = tuple(
        ScenarioSpec(
            key=("r", rate),
            num_terminals=16,
            num_vcs=2,
            buffer_depth=3,
            injection_rate=rate,
        )
        for rate in (0.02, 0.04, 0.06)
    )
    return ExperimentSpec(name="tiny", scenarios=scenarios, seed=3, fast=True)


class TestExecuteSpecResume:
    def test_interrupted_sweep_resumes_with_identical_results(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        spec = _tiny_spec()

        # Run 1 dies on its third job: two jobs journal as completed.
        monkeypatch.setenv(FAULTS_ENV, "raise@2x*")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "0")
        with pytest.raises(FaultInjected):
            execute_spec(spec, jobs=1)
        path = journal_path(spec.content_key())
        assert len(RunJournal.completed_keys(path)) == 2

        # Run 2 resumes: only the missing job executes.
        monkeypatch.delenv(FAULTS_ENV)
        resumed = execute_spec(spec, jobs=1, resume=True)
        assert resumed.stats.resumed_jobs == 2
        assert resumed.stats.jobs_run == 1
        statuses = {e["status"] for e in RunJournal.load(path)}
        assert {"resumed", "completed"} <= statuses

        # The resumed sweep is field-for-field identical to a clean one.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "scratch"))
        clean = execute_spec(spec, jobs=1)
        assert set(resumed.values) == set(clean.values)
        for key, value in clean.values.items():
            assert result_to_jsonable(resumed.values[key]) == result_to_jsonable(
                value
            )

    def test_resume_env_flag(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        spec = _tiny_spec()
        execute_spec(spec, jobs=1)
        monkeypatch.setenv("REPRO_RESUME", "1")
        resumed = execute_spec(spec, jobs=1)
        assert resumed.stats.resumed_jobs == 3
        assert resumed.stats.jobs_run == 0

    def test_stats_published_to_metrics_registry(self, monkeypatch, tmp_path):
        from repro.obs import MetricsRegistry
        from repro.parallel import ExecutionStats

        stats = ExecutionStats(
            jobs_run=3, worker_retries=2, cancellations=1, resumed_jobs=4
        )
        registry = MetricsRegistry()
        stats.publish(registry)
        data = registry.as_dict()
        assert data["runner_jobs_run"] == 3
        assert data["runner_worker_retries"] == 2
        assert data["runner_cancellations"] == 1
        assert data["runner_resumed_jobs"] == 4

        # execute_spec exports one execution_stats line when --metrics-out
        # is active.
        metrics_path = tmp_path / "metrics.jsonl"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_METRICS_OUT", str(metrics_path))
        execute_spec(_tiny_spec(), jobs=1)
        monkeypatch.delenv("REPRO_METRICS_OUT")
        lines = [
            json.loads(line)
            for line in metrics_path.read_text().splitlines()
            if line.strip()
        ]
        summary = [l for l in lines if l.get("kind") == "execution_stats"]
        assert len(summary) == 1
        assert summary[0]["experiment"] == "tiny"
        assert summary[0]["metrics"]["runner_jobs_run"] == 3

    def test_fresh_run_restarts_journal(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        spec = _tiny_spec()
        execute_spec(spec, jobs=1)
        # Without --resume the journal restarts; cached results are hits
        # but not "resumed" (nothing was interrupted).
        rerun = execute_spec(spec, jobs=1)
        assert rerun.stats.cache_hits == 3
        assert rerun.stats.resumed_jobs == 0
