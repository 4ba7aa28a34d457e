"""Durable on-disk task queue keyed by content-digest task keys.

The queue is a directory protocol, not a server: producers atomically
rename task envelopes into ``tasks/``, workers atomically rename them
into a per-worker ``claims/<worker-id>/`` directory (rename is the
mutual-exclusion primitive -- exactly one claimant wins), and completed
results land in the task store under ``results/`` through
:meth:`repro.engine.checkpoint.RunJournal.record`.  Because every
filename is the :func:`repro.engine.checkpoint.task_key` content digest
of its payload, enqueueing a key whose result or task is already in
the queue is a no-op, and a crashed worker's claims can be requeued
without ever recomputing a finished key.

Layout under one queue root (a fresh private directory per
:class:`~repro.service.fleet.SubprocessFleetExecutor`)::

    tasks/<key>.task                  ready work (pickled TaskEnvelope)
    claims/<worker-id>/               tasks a live worker is executing
    results/<key[:2]>/<key>.result    OK results (the RunJournal layout)
    failed/<key>                      failure reason, consumed once
    stop                              sentinel: workers drain and exit

The root lives only as long as its coordinator: ``close()`` removes it,
and a worker whose coordinator died removes it on its way out (see
:func:`repro.service.worker.serve`).  The ``results/`` store keeps the
keys it trusts, not their values (see
:class:`~repro.engine.checkpoint.RunJournal`), so a long-lived worker
holds no copy of the results it has recorded.

Envelope functions are referenced by ``module:qualname`` (never pickled
by value), mirroring the engine's rule that task functions cross
process boundaries by name.  An envelope also names the run that
submitted it, so a worker serving many runs can tell when its
per-process caches belong to an earlier one.
"""

from __future__ import annotations

import os
import pathlib
import pickle
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.engine.checkpoint import RunJournal, durable_write

OK = "ok"
ERROR = "error"


@dataclass(frozen=True)
class TaskEnvelope:
    """One queued unit of work: a by-name function plus its payload."""

    fn_module: str
    fn_qualname: str
    task: Any
    run_id: str = ""
    """The submitting runner's id (see ``ParallelChipRunner.run_id``)."""

    @classmethod
    def for_call(
        cls, fn: Any, task: Any, run_id: str = ""
    ) -> "TaskEnvelope":
        module = getattr(fn, "__module__", None)
        qualname = getattr(fn, "__qualname__", None)
        if (
            not module
            or not qualname
            or module == "__main__"
            or "<locals>" in qualname
        ):
            raise ConfigurationError(
                f"queue task functions must be module-level (importable "
                f"by name from any process); got {fn!r}"
            )
        return cls(
            fn_module=module, fn_qualname=qualname, task=task, run_id=run_id
        )


class DurableTaskQueue:
    """Filesystem work queue shared by one coordinator and its workers."""

    def __init__(self, root: pathlib.Path):
        self.root = pathlib.Path(root)
        self.tasks_dir = self.root / "tasks"
        self.claims_dir = self.root / "claims"
        self.failed_dir = self.root / "failed"
        for directory in (self.tasks_dir, self.claims_dir, self.failed_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self.results = RunJournal(self.root)
        """The task store workers record OK results in."""

    # -- paths ---------------------------------------------------------

    def task_path(self, key: str) -> pathlib.Path:
        return self.tasks_dir / f"{key}.task"

    def claim_path(self, worker_id: str, key: str) -> pathlib.Path:
        return self.claims_dir / worker_id / f"{key}.task"

    def failure_path(self, key: str) -> pathlib.Path:
        return self.failed_dir / key

    @property
    def stop_path(self) -> pathlib.Path:
        return self.root / "stop"

    # -- producer side -------------------------------------------------

    def enqueue(self, key: str, envelope: TaskEnvelope) -> bool:
        """Offer one task; False if its result or the task already exists."""
        if (
            self.results.entry_path(key).exists()
            or self.task_path(key).exists()
        ):
            return False
        durable_write(
            self.task_path(key),
            pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL),
        )
        return True

    def withdraw(self, key: str) -> bool:
        """Take an unclaimed task back out of the ready set.

        False when no worker can still claim it: it was never queued, or
        a worker already claimed it (its outcome is recorded as usual).
        """
        try:
            self.task_path(key).unlink()
        except FileNotFoundError:
            return False
        return True

    def take_failure(self, key: str) -> Optional[str]:
        """Consume the recorded failure reason for ``key``, or ``None``."""
        path = self.failure_path(key)
        try:
            reason = path.read_text()
        except FileNotFoundError:
            return None
        path.unlink(missing_ok=True)
        return reason

    # -- worker side ---------------------------------------------------

    def claim(self, worker_id: str) -> Optional[Tuple[str, TaskEnvelope]]:
        """Atomically take one ready task, or ``None`` when idle.

        The claiming rename moves the envelope under this worker's
        ``claims/`` directory, so a SIGKILLed worker's in-flight work is
        exactly the contents of that directory -- requeueable by the
        coordinator without guessing.
        """
        claim_dir = self.claims_dir / worker_id
        claim_dir.mkdir(parents=True, exist_ok=True)
        for path in sorted(self.tasks_dir.glob("*.task")):
            target = claim_dir / path.name
            try:
                os.rename(path, target)
            except OSError:
                continue  # lost the race to another worker
            key = path.stem
            try:
                with open(target, "rb") as handle:
                    envelope = pickle.load(handle)
            except Exception:
                # Unreadable envelope: record the failure as this task's
                # result so the producer sees it instead of hanging.
                self.complete(worker_id, key, ERROR, "unreadable envelope")
                continue
            return key, envelope
        return None

    def complete(
        self, worker_id: str, key: str, status: str, value: Any
    ) -> None:
        """Durably record one outcome, then release the claim.

        An ``OK`` value goes to the task store, an ``ERROR`` reason to
        ``failed/<key>``.  Outcome-before-claim-release ordering means a
        crash between the two steps leaves a stale claim whose requeue
        skips the already-recorded key.  Into a root another worker has
        removed, the outcome recreates its directory and is written.
        """
        if status == OK:
            self.results.record(key, value)
        else:
            self.failed_dir.mkdir(parents=True, exist_ok=True)
            durable_write(self.failure_path(key), str(value).encode())
        try:
            self.claim_path(worker_id, key).unlink()
        except FileNotFoundError:
            pass

    # -- coordinator side ----------------------------------------------

    def requeue_worker(self, worker_id: str) -> List[str]:
        """Return a dead worker's claimed tasks to the ready set."""
        claim_dir = self.claims_dir / worker_id
        requeued: List[str] = []
        if not claim_dir.is_dir():
            return requeued
        for path in sorted(claim_dir.glob("*.task")):
            key = path.stem
            if (
                self.results.entry_path(key).exists()
                or self.failure_path(key).exists()
            ):
                # Completed just before the crash: nothing to redo.
                path.unlink()
                continue
            try:
                os.rename(path, self.task_path(key))
            except OSError:
                continue
            requeued.append(key)
        return requeued

    def pending_tasks(self) -> List[str]:
        """Keys currently waiting in the ready set (sorted)."""
        return [p.stem for p in sorted(self.tasks_dir.glob("*.task"))]

    def request_stop(self) -> None:
        """Ask every worker on this queue to exit after its current task."""
        durable_write(self.stop_path, b"stop\n")

    def stop_requested(self) -> bool:
        return self.stop_path.exists()


__all__ = [
    "DurableTaskQueue",
    "ERROR",
    "OK",
    "TaskEnvelope",
]
