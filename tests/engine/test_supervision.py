"""Worker supervision: retries, quarantine, respawn, degradation, resume."""

import os

import pytest

from repro.errors import ConfigurationError, ExecutionError
from repro.engine.checkpoint import RunJournal, task_key
from repro.engine.config import EngineConfig
from repro.engine.events import (
    RunCheckpointed,
    RunResumed,
    TaskRetried,
    WorkerRespawned,
)
from repro.engine.faults import FaultPlan
from repro.engine.observer import RunObserver
from repro.engine.parallel import ParallelChipRunner

# Module-level task functions so they cross the process boundary by
# reference (the linter's WS002 rule applies to the engine itself; tests
# follow the same discipline).


def _square(x):
    return x * x


def _fail_if_negative(x):
    if x < 0:
        raise ValueError(f"bad task {x}")
    return x


def _fail_in_workers(task):
    main_pid, value = task
    if os.getpid() != main_pid:
        raise ValueError("poisoned in worker")
    return value


_CALLS = {"count": 0}


def _counted(x):
    _CALLS["count"] += 1
    return x + 100


class _EventLog(RunObserver):
    def __init__(self):
        self.retried = []
        self.respawned = []
        self.checkpointed = []
        self.resumed = []

    def handle(self, event):
        if isinstance(event, TaskRetried):
            self.retried.append((event.label, event.index, event.attempt))
        elif isinstance(event, WorkerRespawned):
            self.respawned.append((event.label, event.pool_failures))
        elif isinstance(event, RunCheckpointed):
            self.checkpointed.append((event.label, event.flushed))
        elif isinstance(event, RunResumed):
            self.resumed.append((event.label, event.restored))


def _fast_config(**overrides):
    base = dict(workers=1, retry_backoff_s=0.001)
    base.update(overrides)
    return EngineConfig(**base)


class TestSerialSupervision:
    def test_retry_exhaustion_raises_execution_error(self):
        with ParallelChipRunner(config=_fast_config(max_retries=2)) as runner:
            with pytest.raises(ExecutionError) as excinfo:
                runner.map(_fail_if_negative, [1, -1, 2])
            assert isinstance(excinfo.value.__cause__, ValueError)
            assert runner.stats.task_retries == 2

    def test_injected_errors_retried_to_success(self):
        plan = FaultPlan(seed=5, error_rate=1.0, max_faults_per_task=1)
        observer = _EventLog()
        config = _fast_config(max_retries=2, fault_plan=plan)
        with ParallelChipRunner(config=config) as runner:
            results = runner.map(
                _square, [2, 3, 4], observer=observer, label="faulty"
            )
        assert results == [4, 9, 16]
        assert runner.stats.task_retries == 3
        assert [entry[1] for entry in observer.retried] == [0, 1, 2]

    def test_injected_corruption_retried_to_success(self):
        plan = FaultPlan(seed=5, corrupt_rate=1.0, max_faults_per_task=1)
        config = _fast_config(max_retries=2, fault_plan=plan)
        with ParallelChipRunner(config=config) as runner:
            assert runner.map(_square, [2, 3]) == [4, 9]
        assert runner.stats.task_retries == 2

    def test_zero_retry_budget_fails_fast(self):
        plan = FaultPlan(seed=5, error_rate=1.0, max_faults_per_task=1)
        config = _fast_config(max_retries=0, fault_plan=plan)
        with ParallelChipRunner(config=config) as runner:
            with pytest.raises(ExecutionError):
                runner.map(_square, [2])


class TestPoolSupervision:
    def test_crash_injection_respawns_and_completes(self):
        plan = FaultPlan(seed=3, crash_rate=1.0, max_faults_per_task=1)
        observer = _EventLog()
        config = _fast_config(workers=2, fault_plan=plan, max_retries=3)
        with ParallelChipRunner(config=config) as runner:
            results = runner.map(
                _square, [5, 6, 7], observer=observer, label="crashy"
            )
        assert results == [25, 36, 49]
        assert runner.stats.worker_respawns >= 1
        assert observer.respawned
        assert not runner.degraded

    def test_hang_trips_timeout_and_recovers(self):
        plan = FaultPlan(
            seed=3, hang_rate=1.0, hang_s=30.0, max_faults_per_task=1
        )
        config = _fast_config(
            workers=2, fault_plan=plan, task_timeout=0.4, max_retries=2
        )
        with ParallelChipRunner(config=config) as runner:
            assert runner.map(_square, [2, 3]) == [4, 9]
            assert runner.stats.task_retries >= 1
            assert runner.pool_failures >= 1

    def test_poison_task_quarantined_then_finished_inline(self):
        tasks = [(os.getpid(), 1), (os.getpid(), 2), (os.getpid(), 3)]
        config = _fast_config(workers=2, max_retries=1)
        with ParallelChipRunner(config=config) as runner:
            results = runner.map(_fail_in_workers, tasks)
        # Every task fails in the pool, exhausts its pool retry budget,
        # and is quarantined -- then finishes inline in the main process.
        assert results == [1, 2, 3]
        assert runner.stats.tasks_quarantined == 3

    def test_repeated_pool_failures_degrade_to_serial(self):
        plan = FaultPlan(seed=9, crash_rate=1.0, max_faults_per_task=1)
        config = _fast_config(
            workers=2, fault_plan=plan, max_pool_failures=1, max_retries=2
        )
        with ParallelChipRunner(config=config) as runner:
            results = runner.map(_square, [4, 5, 6])
            assert results == [16, 25, 36]
            assert runner.degraded
            # A degraded runner never goes back to the pool.
            assert runner.map(_square, [7, 8]) == [49, 64]
        assert runner.stats.worker_respawns == 1

    def test_fault_injected_run_matches_fault_free(self):
        plan = FaultPlan(
            seed=13, crash_rate=0.2, error_rate=0.2, corrupt_rate=0.2,
            max_faults_per_task=1,
        )
        tasks = list(range(12))
        with ParallelChipRunner(config=_fast_config(workers=2)) as clean:
            expected = clean.map(_square, tasks)
        config = _fast_config(workers=2, fault_plan=plan, max_retries=3)
        with ParallelChipRunner(config=config) as faulty:
            assert faulty.map(_square, tasks) == expected


class TestCheckpointAndResume:
    def test_results_flushed_and_restored_without_recompute(self, tmp_path):
        observer = _EventLog()
        config = _fast_config(checkpoint_dir=tmp_path)
        _CALLS["count"] = 0
        with ParallelChipRunner(config=config) as runner:
            first = runner.map(_counted, [1, 2, 3], observer=observer)
        assert _CALLS["count"] == 3
        assert runner.stats.results_checkpointed == 3
        assert observer.checkpointed == [("batch", 3)]

        resumed_config = config.replace(resume=True)
        with ParallelChipRunner(config=resumed_config) as runner:
            second = runner.map(_counted, [1, 2, 3], observer=observer)
        assert second == first
        assert _CALLS["count"] == 3  # nothing recomputed
        assert runner.stats.results_resumed == 3
        assert observer.resumed == [("batch", 3)]

    def test_partial_journal_resumes_missing_only(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.record(task_key(_counted, 1), 101)
        journal.record(task_key(_counted, 3), 103)
        _CALLS["count"] = 0
        config = _fast_config(checkpoint_dir=tmp_path, resume=True)
        with ParallelChipRunner(config=config) as runner:
            results = runner.map(_counted, [1, 2, 3])
        assert results == [101, 102, 103]
        assert _CALLS["count"] == 1  # only the missing middle task ran
        assert runner.stats.results_resumed == 2
        assert runner.stats.results_checkpointed == 1

    def test_changed_payload_misses_journal(self, tmp_path):
        config = _fast_config(checkpoint_dir=tmp_path)
        with ParallelChipRunner(config=config) as runner:
            runner.map(_square, [1, 2])
        resumed = config.replace(resume=True)
        with ParallelChipRunner(config=resumed) as runner:
            assert runner.map(_square, [1, 9]) == [1, 81]
            assert runner.stats.results_resumed == 1

    def test_fresh_run_recomputes_what_an_earlier_run_stored(self, tmp_path):
        config = _fast_config(checkpoint_dir=tmp_path)
        with ParallelChipRunner(config=config) as runner:
            runner.map(_counted, [1, 2])
        _CALLS["count"] = 0
        with ParallelChipRunner(config=config) as runner:
            assert runner.map(_counted, [1, 2]) == [101, 102]
            assert runner.stats.results_resumed == 0
            assert runner.stats.results_checkpointed == 2
        assert _CALLS["count"] == 2

    def test_close_reopens_in_resume_mode(self, tmp_path):
        config = _fast_config(checkpoint_dir=tmp_path)
        runner = ParallelChipRunner(config=config)
        try:
            runner.map(_square, [1, 2])
            runner.close()
            # A later batch through the same runner keeps flushed entries.
            runner.map(_square, [1, 2])
            assert runner.stats.results_resumed == 2
        finally:
            runner.close()

    def test_no_checkpoint_dir_means_no_journal(self, tmp_path):
        with ParallelChipRunner(config=_fast_config()) as runner:
            runner.map(_square, [1, 2])
        assert runner.stats.results_checkpointed == 0
        assert list(tmp_path.iterdir()) == []


class TestRunnerConfigSurface:
    def test_positional_engine_config(self):
        config = EngineConfig(workers=2)
        runner = ParallelChipRunner(config)
        assert runner.workers == 2
        runner.close()

    def test_config_both_positional_and_keyword_rejected(self):
        config = EngineConfig(workers=2)
        with pytest.raises(TypeError):
            ParallelChipRunner(config, config=config)

    def test_legacy_keywords_removed(self):
        with pytest.raises(TypeError):
            ParallelChipRunner(workers=2)
        with pytest.raises(TypeError):
            ParallelChipRunner(evaluator_cache_size=3)

    def test_keyword_config_accepted(self):
        runner = ParallelChipRunner(config=EngineConfig(workers=3))
        assert runner.config.workers == 3
        assert runner.workers == 3
        runner.close()
