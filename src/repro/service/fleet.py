"""Subprocess-fleet batch executor over the durable task queue.

:class:`SubprocessFleetExecutor` is the coordinator half of the
``"subprocess-fleet"`` backend: it spawns N persistent
``python -m repro.service.worker`` processes over one
:class:`~repro.service.queue.DurableTaskQueue`, enqueues each batch item
under its content-digest task key, and polls for durably recorded
results.  Like the runner's other executors it runs one attempt per
item and reports the outcome; the retry budget is
:meth:`~repro.engine.parallel.ParallelChipRunner.map`'s.  What it does
supervise is its own processes: a SIGKILLed worker is respawned and its
claimed tasks are requeued
(:class:`~repro.engine.events.WorkerRespawned` fires).

Workers record results in the queue root's task store (layout in
:mod:`repro.service.queue`).  By default that root is the run's
``checkpoint_dir``, so the store and its trust rule are the runner's
own.  An explicit ``queue_dir`` is the fleet-wide memo: a second run --
or a concurrent client sharing it -- never recomputes a key any worker
has finished, and :attr:`SubprocessFleetExecutor.deduped` counts exactly
those skips.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError, ExecutionError
from repro.engine.checkpoint import RunJournal
from repro.engine.config import EngineConfig
from repro.engine.events import EngineEvent, WorkerRespawned
from repro.engine.parallel import BatchItem, TaskFailed
from repro.service.queue import DurableTaskQueue, TaskEnvelope

#: Coordinator poll period while waiting on queue results.
RESULT_POLL_S = 0.02

#: Seconds a stopping fleet worker gets before it is killed.
SHUTDOWN_GRACE_S = 5.0

_MISSING = object()


def _worker_env() -> Dict[str, str]:
    """Child environment with the repro package importable by name."""
    import repro

    package_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing
        else os.pathsep.join([package_root, existing])
    )
    return env


def resolve_queue_dir(config: EngineConfig) -> Tuple[pathlib.Path, bool]:
    """The queue directory for ``config``; True when it is private.

    An explicit ``queue_dir`` (shared fleet-wide dedupe) wins; otherwise
    the queue lives in ``checkpoint_dir`` itself, around the run's task
    store; with neither, a private temporary directory is created (and
    removed when the executor closes).
    """
    if config.queue_dir is not None:
        return config.queue_dir, False
    if config.checkpoint_dir is not None:
        return config.checkpoint_dir, False
    return (
        pathlib.Path(tempfile.mkdtemp(prefix="repro-fleet-queue-")), True
    )


class SubprocessFleetExecutor:
    """Coordinates persistent worker subprocesses over one durable queue."""

    def __init__(
        self, config: EngineConfig, journal: Optional[RunJournal] = None
    ):
        if config.task_timeout is not None:
            raise ConfigurationError(
                "task_timeout is not supported by the subprocess-fleet "
                "backend (workers own their tasks durably); use the "
                "local backend for timeout supervision"
            )
        self.config = config
        self.fleet_size = config.effective_fleet_size
        self.queue_dir, self._private_queue = resolve_queue_dir(config)
        self.queue = DurableTaskQueue(self.queue_dir)
        if config.queue_dir is None and journal is not None:
            # The queue root is the checkpoint dir: share the runner's
            # store, and with it the trust rule and this run's records.
            self.store = journal
        else:
            self.store = RunJournal(self.queue_dir, resume=True)
        self.deduped = 0
        """Batch items served from results already in the store."""
        self._workers: Dict[str, subprocess.Popen] = {}
        self._respawns = 0
        self._closed = False

    # ------------------------------------------------------------------

    def _spawn(self, worker_id: str) -> None:
        command = [
            sys.executable, "-m", "repro.service.worker",
            "--queue", str(self.queue_dir),
            "--worker-id", worker_id,
            "--parent-pid", str(os.getpid()),
        ]
        self._workers[worker_id] = subprocess.Popen(
            command,
            env=_worker_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def ensure_fleet(self) -> None:
        """Spawn (or top up) the worker fleet."""
        self.queue.clear_stop()
        for n in range(self.fleet_size):
            worker_id = f"w{n:03d}"
            if worker_id not in self._workers:
                self._spawn(worker_id)

    def _supervise_workers(
        self, notify: Callable[[EngineEvent], None], label: str
    ) -> None:
        """Respawn dead workers, requeueing their claimed tasks."""
        for worker_id in sorted(self._workers):
            process = self._workers[worker_id]
            if process.poll() is None:
                continue
            self.queue.requeue_worker(worker_id)
            del self._workers[worker_id]
            self._respawns += 1
            notify(WorkerRespawned(label, self._respawns))
            self._spawn(worker_id)

    # ------------------------------------------------------------------

    def run_batch(
        self,
        fn: Callable[[Any], Any],
        items: List[BatchItem],
        notify: Callable[[EngineEvent], None],
        label: str = "batch",
    ) -> Iterator[Tuple[int, Any]]:
        """Run one attempt of each item; yield ``(index, outcome)``.

        Every key is enqueued before any is polled for.  A recorded
        result yields its value; a recorded failure is consumed and
        yields a :class:`~repro.engine.parallel.TaskFailed`.  Identical
        keys within a batch are computed once and fanned out to every
        index.
        """
        if self._closed:
            raise ExecutionError("fleet executor already closed")
        by_key: Dict[str, List[int]] = {}
        tasks_by_key: Dict[str, Any] = {}
        for item in items:
            by_key.setdefault(item.key, []).append(item.index)
            tasks_by_key[item.key] = item.task
        # Built up front so a lambda or closure is rejected before any I/O.
        envelope = TaskEnvelope.for_call(fn, None)
        pending = sorted(by_key)
        for key in pending:
            if key in self.store:
                self.deduped += len(by_key[key])
                continue
            # A stale failure belongs to an earlier attempt, and an
            # untrusted entry must not answer for this one.
            self.queue.take_failure(key)
            self.store.discard(key)
            # False when a concurrent client enqueued the key first;
            # either way its result arrives.
            self.queue.enqueue(key, replace(envelope, task=tasks_by_key[key]))
        self.ensure_fleet()
        while pending:
            progressed = False
            for key in list(pending):
                value = self.store.load(key, _MISSING)
                if value is _MISSING:
                    reason = self.queue.take_failure(key)
                    if reason is None:
                        continue
                    value = TaskFailed(reason)
                pending.remove(key)
                progressed = True
                for index in by_key[key]:
                    yield index, value
            if pending and not progressed:
                self._supervise_workers(notify, label)
                time.sleep(RESULT_POLL_S)

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop the fleet; a private queue directory is removed."""
        if self._closed:
            return
        self._closed = True
        self.queue.request_stop()
        deadline = time.monotonic() + SHUTDOWN_GRACE_S
        for worker_id in sorted(self._workers):
            process = self._workers[worker_id]
            budget = max(0.0, deadline - time.monotonic())
            try:
                process.wait(timeout=budget)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self._workers.clear()
        if self._private_queue:
            shutil.rmtree(self.queue_dir, ignore_errors=True)


__all__ = [
    "RESULT_POLL_S",
    "SHUTDOWN_GRACE_S",
    "SubprocessFleetExecutor",
    "resolve_queue_dir",
]
