"""The subprocess-fleet executor: identity, private queues, crash recovery."""

import os
import pathlib
import signal
import sys
import textwrap
import time

import pytest

from repro.engine.config import EngineConfig, SUBPROCESS_FLEET_BACKEND
from repro.engine.parallel import ParallelChipRunner
from repro.errors import ConfigurationError
from repro.service.fleet import SubprocessFleetExecutor
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
    """Every executor makes a fresh private queue and deletes it."""

    def test_explicit_queue_dir_wins(self, tmp_path):
        config = fleet_config(tmp_path, checkpoint_dir=tmp_path / "ckpt")
        assert not config.queue_dir.exists()
        executors = [SubprocessFleetExecutor(config) for _ in range(2)]
        try:
            first, second = (e.queue_dir for e in executors)
            assert first != second
            assert first.parent == second.parent == config.queue_dir
            assert (first / "tasks").is_dir()
            assert not config.checkpoint_dir.exists()
        finally:
            for executor in executors:
                executor.close()
        assert list(config.queue_dir.iterdir()) == []

    def test_fallback_is_a_private_tempdir(self, tmp_path):
        import tempfile

        executor = SubprocessFleetExecutor(
            fleet_config(tmp_path, queue_dir=None)
        )
        try:
            assert executor.queue_dir.is_dir()
            assert executor.queue_dir.parent == pathlib.Path(
                tempfile.gettempdir()
            )
        finally:
            executor.close()
        assert not executor.queue_dir.exists()

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

    def test_duplicate_keys_within_a_batch_fan_out(self, tmp_path):
        tasks = [[2.0, 2.0], [2.0, 2.0], [4.0, 4.0]]
        with ParallelChipRunner(fleet_config(tmp_path)) as runner:
            out = runner.map(harmonic_mean, tasks, label="fanout")
        assert out == [2.0, 2.0, 4.0]


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

    def fails_first(task):
        # Fails the first attempt at each value, then squares it.
        marker_dir, value = task
        marker = os.path.join(marker_dir, str(value))
        if not os.path.exists(marker):
            open(marker, "w").close()
            raise ValueError(f"first attempt at {value}")
        return value * value

    def cached_seeds(task):
        # This worker's pid and the seeds of its cached evaluators,
        # after it fetched the task's evaluator.
        from repro.engine import parallel

        spec, _ = task
        parallel.evaluator_for(spec)
        time.sleep(0.05)  # lets every worker take a share of the batch
        return os.getpid(), sorted(s.seed for s in parallel._EVALUATOR_CACHE)
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
    """The runner's journal is the only durable store of fleet results."""

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

    def test_a_fleet_run_leaves_only_the_journal(
        self, tmp_path, slow_helper
    ):
        markers = tmp_path / "markers"
        markers.mkdir()
        tasks = [(str(markers), n) for n in range(4)]
        checkpoints = tmp_path / "ckpt"
        fleet = EngineConfig(
            workers=1, backend=SUBPROCESS_FLEET_BACKEND, fleet_size=1,
            checkpoint_dir=checkpoints,
        )
        with ParallelChipRunner(fleet) as runner:
            stored = runner.map(slow_helper.marked_square, tasks)
            queue_dir = runner._fleet.queue_dir
        assert runner.stats.results_checkpointed == len(tasks)
        assert [p.name for p in checkpoints.iterdir()] == ["results"]
        assert not queue_dir.exists()
        local = EngineConfig(
            workers=1, checkpoint_dir=checkpoints, resume=True
        )
        restored, runner = self._run(slow_helper, local, tasks)
        assert runner.stats.results_resumed == len(tasks)
        assert len(list(markers.iterdir())) == len(tasks)  # never rerun
        assert restored == stored == [0, 1, 4, 9]

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


class TestSharedFleet:
    """One executor lent to several runners, as the job service does."""

    def test_runs_reuse_warm_workers_with_run_scoped_caches(
        self, tmp_path, slow_helper
    ):
        from repro.engine.parallel import EvaluatorSpec
        from repro.technology.node import NODE_32NM

        config = fleet_config(tmp_path, queue_dir=None)
        executor = SubprocessFleetExecutor(config)
        served = {}
        try:
            for seed in (1, 2, 3):
                spec = EvaluatorSpec(
                    node=NODE_32NM, n_references=50, seed=seed,
                    benchmarks=("applu",),
                )
                with ParallelChipRunner(config, fleet=executor) as runner:
                    out = runner.map(
                        slow_helper.cached_seeds,
                        [(spec, n) for n in range(4)], label=f"job{seed}",
                    )
                # Whatever the worker cached for an earlier run is gone.
                assert {tuple(seeds) for _, seeds in out} == {(seed,)}
                served[seed] = {pid for pid, _ in out}
            workers = list(executor._workers.values())
            assert executor.spawned == config.fleet_size
        finally:
            executor.close()
        # Three runs on two workers: some worker served two of them.
        pids = [pid for run in served.values() for pid in run]
        assert len(set(pids)) < len(pids)
        # The runners never closed the borrowed fleet; close() reaped it.
        assert all(process.poll() is not None for process in workers)

    def test_abandoned_batch_withdraws_its_unclaimed_tasks(
        self, tmp_path, slow_helper
    ):
        import threading

        from repro.engine.checkpoint import task_key
        from repro.service.backends import BatchItem

        executor = SubprocessFleetExecutor(
            fleet_config(tmp_path, queue_dir=None, fleet_size=1)
        )
        fn = slow_helper.slow_square
        items = [
            BatchItem(i, task_key(fn, (0.2, i)), (0.2, i)) for i in range(6)
        ]
        # Workers claim in key order: the last key stays unclaimed longest.
        shared = max(items, key=lambda item: item.key)
        second_out = []
        try:
            # A second batch awaits one of the first batch's keys.
            second = threading.Thread(target=lambda: second_out.extend(
                executor.run_batch(fn, [shared], lambda e: None)
            ))
            second.start()
            while not executor._waiting.get(shared.key):
                time.sleep(0.01)
            first = executor.run_batch(fn, items, lambda e: None)
            next(first)
            first.close()
            assert executor.queue.pending_tasks() == [shared.key]
            second.join(timeout=60)
            assert second_out == [(shared.index, shared.index ** 2)]
        finally:
            executor.close()

    @pytest.mark.parametrize("await_again", [False, True])
    def test_a_withdrawn_claimed_task_leaves_no_result(
        self, tmp_path, slow_helper, await_again
    ):
        from repro.engine.checkpoint import task_key
        from repro.service.backends import BatchItem

        executor = SubprocessFleetExecutor(
            fleet_config(tmp_path, queue_dir=None, fleet_size=1)
        )
        fn = slow_helper.slow_square
        items = [
            BatchItem(i, task_key(fn, (0.3, i)), (0.3, i)) for i in range(3)
        ]
        claims = executor.queue.claims_dir
        try:
            first = executor.run_batch(fn, items, lambda e: None)
            done = items[next(first)[0]].key

            def in_flight():
                return {p.stem for p in claims.glob("*/*.task")} - {done}

            while not in_flight():
                time.sleep(0.01)
            (claimed,) = in_flight()
            first.close()
            assert executor._orphans == {claimed}
            if await_again:
                # The claimed attempt answers a batch that awaits its key
                # again; it is not queued a second time.
                item = next(i for i in items if i.key == claimed)
                out = list(executor.run_batch(fn, [item], lambda e: None))
                assert out == [(item.index, item.index ** 2)]
            else:
                # Its result lands during another batch, which drops it.
                other = BatchItem(0, task_key(fn, (0.0, 7)), (0.0, 7))
                assert list(
                    executor.run_batch(fn, [other], lambda e: None)
                ) == [(0, 49)]
            assert executor._orphans == set()
            assert executor.queue.pending_tasks() == []
            assert list(claims.glob("*/*.task")) == []
            assert list(executor.queue_dir.glob("results/*/*")) == []
        finally:
            executor.close()

    def test_consumed_failures_leave_nothing_for_a_later_run(
        self, tmp_path, slow_helper
    ):
        config = fleet_config(
            tmp_path, queue_dir=None, fleet_size=1, retry_backoff_s=0.001
        )
        executor = SubprocessFleetExecutor(config)
        markers = tmp_path / "markers"
        markers.mkdir()
        tasks = [(str(markers), n) for n in range(3)]
        queue = executor.queue
        try:
            retries = []
            for _ in range(2):
                with ParallelChipRunner(config, fleet=executor) as runner:
                    assert runner.map(slow_helper.fails_first, tasks) == [
                        0, 1, 4,
                    ]
                retries.append(runner.stats.task_retries)
                # At rest the private queue holds no task, claim,
                # failure or result that a later batch could pick up.
                assert queue.pending_tasks() == []
                assert list(queue.claims_dir.glob("*/*")) == []
                assert list(queue.failed_dir.iterdir()) == []
                assert list(executor.queue_dir.glob("results/*/*")) == []
            # Each task failed once in the first run; the second run is
            # charged nothing.
            assert retries == [len(tasks), 0]
        finally:
            executor.close()

    def test_concurrent_runners_stress_one_executor(self, tmp_path):
        import threading

        config = fleet_config(tmp_path, queue_dir=None)
        executor = SubprocessFleetExecutor(config)
        results, errors = {}, []

        def client(n):
            try:
                with ParallelChipRunner(config, fleet=executor) as runner:
                    # Overlapping key ranges: clients await each other's
                    # keys as well as their own.
                    for round_ in range(3):
                        values = [-(v + 4 * n + round_) for v in range(8)]
                        results[n, round_] = (values, runner.map(abs, values))
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=client, args=(n,)) for n in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert len(results) == 4 * 3
            for values, out in results.values():
                assert out == [abs(v) for v in values]
            assert executor._waiting == {} and executor._failures == {}
            # Every result was delivered, so the private store is empty.
            assert executor.queue.results._entries == {}
            assert list(executor.queue_dir.glob("results/*/*")) == []
            assert executor.spawned == config.fleet_size
        finally:
            sys.setswitchinterval(interval)
            executor.close()
