"""The subprocess-fleet executor: identity, dedupe, crash recovery."""

import os
import signal
import sys
import textwrap

import pytest

from repro.engine.config import EngineConfig, SUBPROCESS_FLEET_BACKEND
from repro.engine.parallel import ParallelChipRunner
from repro.errors import ConfigurationError
from repro.service.fleet import SubprocessFleetExecutor, resolve_queue_dir
from repro.variation import harmonic_mean

TASKS = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [2.0, 9.0], [7.0, 8.0]]


def fleet_config(tmp_path, **overrides) -> EngineConfig:
    fields = dict(
        workers=2,
        backend=SUBPROCESS_FLEET_BACKEND,
        fleet_size=2,
        queue_dir=tmp_path / "queue",
    )
    fields.update(overrides)
    return EngineConfig(**fields)


class TestQueueDirResolution:
    def test_explicit_queue_dir_wins(self, tmp_path):
        config = fleet_config(tmp_path, checkpoint_dir=tmp_path / "ckpt")
        path, private = resolve_queue_dir(config)
        assert path == tmp_path / "queue"
        assert private is False

    def test_checkpoint_dir_hosts_the_queue(self, tmp_path):
        config = EngineConfig(
            backend=SUBPROCESS_FLEET_BACKEND,
            checkpoint_dir=tmp_path / "ckpt",
        )
        path, private = resolve_queue_dir(config)
        assert path == tmp_path / "ckpt"
        assert private is False

    def test_fallback_is_a_private_tempdir(self):
        config = EngineConfig(backend=SUBPROCESS_FLEET_BACKEND)
        path, private = resolve_queue_dir(config)
        try:
            assert private is True
            assert path.is_dir()
        finally:
            path.rmdir()

    def test_task_timeout_unsupported(self, tmp_path):
        config = fleet_config(tmp_path, task_timeout=1.0)
        with pytest.raises(ConfigurationError, match="task_timeout"):
            SubprocessFleetExecutor(config)


class TestFleetIdentity:
    def test_results_identical_to_local_backend(self, tmp_path):
        with ParallelChipRunner(fleet_config(tmp_path)) as runner:
            fleet = runner.map(harmonic_mean, TASKS, label="identity")
        with ParallelChipRunner(EngineConfig(workers=1)) as runner:
            local = runner.map(harmonic_mean, TASKS, label="identity")
        assert fleet == local

    def test_shared_queue_dedupes_across_runs(self, tmp_path):
        config = fleet_config(tmp_path)
        with ParallelChipRunner(config) as runner:
            first = runner.map(harmonic_mean, TASKS, label="dedupe")
        # A second runner over the same queue directory never recomputes.
        with ParallelChipRunner(config) as runner:
            runner.map(harmonic_mean, TASKS, label="dedupe")
            executor = runner._fleet
            assert executor.deduped == len(TASKS)
            second = [
                v for v in runner.map(harmonic_mean, TASKS, label="dedupe")
            ]
        assert second == first

    def test_duplicate_keys_within_a_batch_fan_out(self, tmp_path):
        tasks = [[2.0, 2.0], [2.0, 2.0], [4.0, 4.0]]
        with ParallelChipRunner(fleet_config(tmp_path)) as runner:
            out = runner.map(harmonic_mean, tasks, label="fanout")
        assert out == [2.0, 2.0, 4.0]


class TestStaleErrorResults:
    """An ERROR result already in the queue belongs to an earlier run."""

    @staticmethod
    def _plant_error(config, key):
        from repro.service.queue import DurableTaskQueue, ERROR

        DurableTaskQueue(config.queue_dir).complete(
            "w000", key, ERROR, "ValueError: an earlier run failed"
        )

    def test_stale_error_is_recomputed_not_deduped(self, tmp_path):
        from repro.engine.checkpoint import task_key
        from repro.service.backends import BatchItem

        config = fleet_config(tmp_path, fleet_size=1)
        key = task_key(abs, -3)
        self._plant_error(config, key)
        events = []
        executor = SubprocessFleetExecutor(config)
        try:
            out = list(executor.run_batch(
                abs, [BatchItem(0, key, -3)], events.append,
            ))
        finally:
            executor.close()
        assert out == [(0, 3)]
        assert executor.deduped == 0
        assert events == []

    def test_stale_error_is_not_charged_to_the_batch(self, tmp_path):
        from repro.engine.checkpoint import task_key

        config = fleet_config(tmp_path, fleet_size=1, max_retries=0)
        self._plant_error(config, task_key(abs, -3))
        with ParallelChipRunner(config) as runner:
            assert runner.map(abs, [-3]) == [3]
        assert runner.stats.task_retries == 0


SLOW_MODULE = textwrap.dedent(
    """
    import os
    import tempfile
    import time

    def slow_square(task):
        delay, value = task
        time.sleep(delay)
        return value * value

    def marked_square(task):
        marker_dir, value = task
        os.close(tempfile.mkstemp(dir=marker_dir)[0])
        return value * value
    """
)


@pytest.fixture
def slow_helper(tmp_path, monkeypatch):
    """An importable module whose tasks are slow enough to kill under."""
    helper_dir = tmp_path / "helpers"
    helper_dir.mkdir()
    (helper_dir / "fleet_test_helper.py").write_text(SLOW_MODULE)
    monkeypatch.syspath_prepend(str(helper_dir))
    existing = os.environ.get("PYTHONPATH")
    monkeypatch.setenv(
        "PYTHONPATH",
        str(helper_dir) if not existing
        else os.pathsep.join([str(helper_dir), existing]),
    )
    import importlib

    importlib.invalidate_caches()
    module = importlib.import_module("fleet_test_helper")
    try:
        yield module
    finally:
        sys.modules.pop("fleet_test_helper", None)


class TestCrashRecovery:
    def test_sigkilled_worker_is_respawned_and_batch_completes(
        self, tmp_path, slow_helper
    ):
        from repro.engine.checkpoint import task_key
        from repro.service.backends import BatchItem

        tasks = [(0.25, n) for n in range(6)]
        config = fleet_config(tmp_path, fleet_size=2)
        executor = SubprocessFleetExecutor(config)
        batch = [
            BatchItem(i, task_key(slow_helper.slow_square, t), t)
            for i, t in enumerate(tasks)
        ]
        results = {}
        killed = {"done": False}
        try:
            for index, value in executor.run_batch(
                slow_helper.slow_square, batch, lambda e: None,
                label="sigkill",
            ):
                results[index] = value
                if not killed["done"] and executor._workers:
                    # First result observed: SIGKILL a live worker while
                    # the rest of the batch is still in flight.
                    worker = sorted(executor._workers)[0]
                    os.kill(executor._workers[worker].pid, signal.SIGKILL)
                    killed["done"] = True
        finally:
            executor.close()
        assert killed["done"], "no worker was alive to kill"
        assert results == {i: n * n for i, (_, n) in enumerate(tasks)}

    def test_results_byte_identical_after_worker_sigkill(
        self, tmp_path, slow_helper
    ):
        import pickle

        tasks = [(0.0, n) for n in range(6)]
        reference = [slow_helper.slow_square(t) for t in tasks]
        config = fleet_config(
            tmp_path, fleet_size=2, queue_dir=tmp_path / "q2"
        )
        with ParallelChipRunner(config) as runner:
            out = runner.map(slow_helper.slow_square, tasks, label="ident")
        assert pickle.dumps(out) == pickle.dumps(reference)


class TestOneTaskStore:
    """The fleet shares the runner's task store under ``checkpoint_dir``."""

    @staticmethod
    def _run(helper, config, tasks):
        with ParallelChipRunner(config) as runner:
            out = runner.map(helper.marked_square, tasks, label="store")
        return out, runner

    def test_fresh_runs_over_one_checkpoint_dir_both_execute(
        self, tmp_path, slow_helper
    ):
        markers = tmp_path / "markers"
        markers.mkdir()
        tasks = [(str(markers), n) for n in range(3)]
        config = EngineConfig(
            workers=1, backend=SUBPROCESS_FLEET_BACKEND, fleet_size=1,
            checkpoint_dir=tmp_path / "ckpt",
        )
        first, _ = self._run(slow_helper, config, tasks)
        second, runner = self._run(slow_helper, config, tasks)
        # Without --resume the second run recomputes every task ...
        assert len(list(markers.iterdir())) == 2 * len(tasks)
        assert runner.stats.results_resumed == 0
        assert second == first == [0, 1, 4]
        # ... and with it, a third run restores them all.
        third, runner = self._run(
            slow_helper, config.replace(resume=True), tasks
        )
        assert runner.stats.results_resumed == len(tasks)
        assert len(list(markers.iterdir())) == 2 * len(tasks)
        assert third == first

    def test_local_resume_restores_what_the_fleet_stored(
        self, tmp_path, slow_helper
    ):
        markers = tmp_path / "markers"
        markers.mkdir()
        tasks = [(str(markers), n) for n in range(4)]
        fleet = EngineConfig(
            workers=1, backend=SUBPROCESS_FLEET_BACKEND, fleet_size=1,
            checkpoint_dir=tmp_path / "ckpt",
        )
        stored, _ = self._run(slow_helper, fleet, tasks)
        assert len(list(markers.iterdir())) == len(tasks)
        local = EngineConfig(
            workers=1, checkpoint_dir=tmp_path / "ckpt", resume=True
        )
        restored, runner = self._run(slow_helper, local, tasks)
        assert runner.stats.results_resumed == len(tasks)
        assert len(list(markers.iterdir())) == len(tasks)  # never called
        assert restored == stored
