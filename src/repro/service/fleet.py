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

Every executor owns a fresh private queue directory (layout in
:mod:`repro.service.queue`), made under ``EngineConfig.queue_dir`` when
that is set and under the system temp dir otherwise, and removed by
:meth:`SubprocessFleetExecutor.close`; no other process knows it.  Its
store holds a result only until every batch awaiting it has received
it, so it stays small however long the executor lives: the runner
journals every result it receives in its own task store, and reusing
tasks across runs is ``--checkpoint-dir DIR --resume``.  The job service
keeps one executor per fleet size and lends it to every fleet job, so
one executor can serve several runners at once; a batch abandoned
mid-way (a cancelled job) withdraws the unclaimed tasks no other batch
awaits, and the outcome of one a worker had already claimed is dropped
once it lands, unless a later batch awaits that key.
"""

from __future__ import annotations

import itertools
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import replace
from typing import Any, Callable, Dict, Iterator, List, Set, Tuple

from repro.errors import ConfigurationError, ExecutionError
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


class SubprocessFleetExecutor:
    """Coordinates persistent worker subprocesses over one durable queue.

    Thread-safe: concurrent runners may share one executor.  Its lock
    guards the worker table, the counters, and which batches await
    which keys.
    """

    def __init__(self, config: EngineConfig):
        if config.task_timeout is not None:
            raise ConfigurationError(
                "task_timeout is not supported by the subprocess-fleet "
                "backend (workers own their tasks durably); use the "
                "local backend for timeout supervision"
            )
        self.fleet_size = config.effective_fleet_size
        if config.queue_dir is not None:
            config.queue_dir.mkdir(parents=True, exist_ok=True)
        self.queue_dir = pathlib.Path(tempfile.mkdtemp(
            prefix="repro-fleet-queue-", dir=config.queue_dir
        ))
        """This executor's private queue root, removed by :meth:`close`."""
        self.queue = DurableTaskQueue(self.queue_dir)
        self.spawned = 0
        """Worker processes started so far, respawns included."""
        self._workers: Dict[str, subprocess.Popen] = {}
        self._respawns = 0
        self._closed = False
        self._lock = threading.Lock()
        self._batch_ids = itertools.count()
        self._waiting: Dict[str, Set[int]] = {}
        """Per key, the batches awaiting the outcome of its attempt."""
        self._failures: Dict[str, Tuple[str, Set[int]]] = {}
        """Per key, a consumed failure and the batches yet to see it."""
        self._orphans: Set[str] = set()
        """Withdrawn keys a worker had already claimed: their outcomes
        land with no batch awaiting them."""

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
        self.spawned += 1

    def ensure_fleet(self) -> None:
        """Spawn (or top up) the worker fleet."""
        with self._lock:
            for n in range(self.fleet_size):
                worker_id = f"w{n:03d}"
                if worker_id not in self._workers:
                    self._spawn(worker_id)

    def _supervise_workers(
        self, notify: Callable[[EngineEvent], None], label: str
    ) -> None:
        """Respawn dead workers, requeueing their claimed tasks."""
        respawns = []
        with self._lock:
            for worker_id in sorted(self._workers):
                if self._workers[worker_id].poll() is None:
                    continue
                self.queue.requeue_worker(worker_id)
                self._respawns += 1
                respawns.append(self._respawns)
                self._spawn(worker_id)
        for count in respawns:
            notify(WorkerRespawned(label, count))

    # -- which batches await which keys (callers hold the lock) ---------

    def _await(self, key: str, batch: int, envelope: TaskEnvelope) -> None:
        """Register ``batch`` as awaiting ``key``.  An attempt is queued
        unless one is live: another batch awaits it, or a worker claimed
        it before its batch withdrew.  Every file in the private queue
        belongs to such an attempt, so no earlier run's outcome can
        answer for this one."""
        # A withdrawn key a worker had claimed: that attempt is live and
        # now answers this batch.
        live = bool(self._waiting.get(key)) or key in self._orphans
        self._orphans.discard(key)
        if key in self._failures or not live:
            # A no-op when the result has landed or a retry of another
            # batch queued the key first; either way its outcome arrives.
            self.queue.enqueue(key, envelope)
        self._waiting.setdefault(key, set()).add(batch)

    def _outcome(self, key: str, batch: int) -> Any:
        """``key``'s value or :class:`TaskFailed` for ``batch``, or
        ``_MISSING`` while its attempt is still running.

        A failure is consumed from the queue once and shown to every
        batch that awaited that attempt.
        """
        value = self.queue.results.load(key, _MISSING)
        if value is _MISSING:
            failure = self._failures.get(key)
            if failure is None:
                reason = self.queue.take_failure(key)
                if reason is None:
                    return _MISSING
                failure = (reason, set(self._waiting[key]))
                self._failures[key] = failure
            if batch not in failure[1]:
                return _MISSING  # it awaits a later attempt
            value = TaskFailed(failure[0])
        self._release(key, batch)
        return value

    def _release(self, key: str, batch: int, withdraw: bool = False) -> None:
        waiting = self._waiting[key]
        waiting.discard(batch)
        failure = self._failures.get(key)
        if failure is not None:
            failure[1].discard(batch)
            if not failure[1]:
                del self._failures[key]
        if not waiting:
            self._waiting.pop(key, None)
            # The store keeps a result only while a batch awaits it;
            # each batch's runner keeps (and journals) what it received.
            if withdraw:
                if not self.queue.withdraw(key):
                    self._orphans.add(key)
            else:
                self.queue.results.discard(key)

    def _sweep_orphans(self) -> None:
        """Drop the outcomes of withdrawn tasks that have landed."""
        for key in sorted(self._orphans):
            if (self.queue.results.entry_path(key).exists()
                    or self.queue.take_failure(key) is not None):
                self.queue.results.discard(key)
                self._orphans.discard(key)

    # ------------------------------------------------------------------

    def run_batch(
        self,
        fn: Callable[[Any], Any],
        items: List[BatchItem],
        notify: Callable[[EngineEvent], None],
        label: str = "batch",
        run_id: str = "",
    ) -> Iterator[Tuple[int, Any]]:
        """Run one attempt of each item; yield ``(index, outcome)``.

        Every key is enqueued before any is polled for.  A recorded
        result yields its value; a recorded failure is consumed and
        yields a :class:`~repro.engine.parallel.TaskFailed`.  Identical
        keys within a batch are computed once and fanned out to every
        index.  ``run_id`` names the submitting run in each envelope.
        Closing the generator early withdraws the batch's unclaimed
        tasks that no other batch awaits.
        """
        if self._closed:
            raise ExecutionError("fleet executor already closed")
        by_key: Dict[str, List[int]] = {}
        tasks_by_key: Dict[str, Any] = {}
        for item in items:
            by_key.setdefault(item.key, []).append(item.index)
            tasks_by_key[item.key] = item.task
        # Built up front so a lambda or closure is rejected before any I/O.
        envelope = TaskEnvelope.for_call(fn, None, run_id)
        batch = next(self._batch_ids)
        pending = sorted(by_key)
        with self._lock:
            for key in pending:
                self._await(
                    key, batch, replace(envelope, task=tasks_by_key[key])
                )
        try:
            self.ensure_fleet()
            while pending:
                progressed = False
                for key in list(pending):
                    with self._lock:
                        value = self._outcome(key, batch)
                    if value is _MISSING:
                        continue
                    pending.remove(key)
                    progressed = True
                    for index in by_key[key]:
                        yield index, value
                if pending and not progressed:
                    self._supervise_workers(notify, label)
                    time.sleep(RESULT_POLL_S)
        finally:
            with self._lock:
                for key in pending:
                    self._release(key, batch, withdraw=True)
                self._sweep_orphans()

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop and reap the fleet, then remove its queue directory."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = [self._workers[w] for w in sorted(self._workers)]
            self._workers.clear()
        self.queue.request_stop()
        deadline = time.monotonic() + SHUTDOWN_GRACE_S
        for process in workers:
            budget = max(0.0, deadline - time.monotonic())
            try:
                process.wait(timeout=budget)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        shutil.rmtree(self.queue_dir, ignore_errors=True)


__all__ = [
    "RESULT_POLL_S",
    "SHUTDOWN_GRACE_S",
    "SubprocessFleetExecutor",
]
