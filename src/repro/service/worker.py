"""Persistent fleet worker: pull, execute, record, repeat.

``python -m repro.service.worker --queue DIR --worker-id W`` runs the
loop one subprocess-fleet worker executes: claim a task envelope from
the :class:`~repro.service.queue.DurableTaskQueue`, resolve its function
by ``module:qualname``, run it, and durably record ``("ok", result)`` or
``("error", reason)``.  The worker exits when the queue's stop sentinel
appears or its coordinating parent process dies (``--parent-pid``), so
an abandoned fleet never outlives its run.

Workers hold the same per-process evaluator LRU as pool workers, so a
run's tasks share its traces.  The LRU is scoped to one run: a worker
that claims a task from a different run (the envelope's ``run_id``)
clears it first, so a long-lived fleet serving many jobs holds only the
current job's evaluators.
"""

from __future__ import annotations

import argparse
import importlib
import os
import pathlib
import time
import traceback
from typing import Any, Optional

from repro.errors import ConfigurationError
from repro.engine import parallel
from repro.service.queue import DurableTaskQueue, ERROR, OK

#: How long an idle worker sleeps between claim attempts.
IDLE_POLL_S = 0.02


def resolve_function(module: str, qualname: str) -> Any:
    """Import the module-level callable an envelope names."""
    obj: Any = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise ConfigurationError(
            f"{module}:{qualname} resolved to a non-callable {obj!r}"
        )
    return obj


def _parent_alive(parent_pid: Optional[int]) -> bool:
    if parent_pid is None:
        return True
    try:
        os.kill(parent_pid, 0)
    except OSError:
        return False
    return True


def serve(
    queue_dir: pathlib.Path,
    worker_id: str,
    parent_pid: Optional[int] = None,
    idle_poll_s: float = IDLE_POLL_S,
    max_tasks: Optional[int] = None,
) -> int:
    """Run the worker loop; returns the number of tasks executed.

    ``max_tasks`` exists for tests (execute N tasks then return); the
    fleet runs with it unset and exits on stop/orphan only.
    """
    queue = DurableTaskQueue(queue_dir)
    queue.write_worker_pid(worker_id, os.getpid())
    executed = 0
    run_id = None
    while not queue.stop_requested() and _parent_alive(parent_pid):
        if max_tasks is not None and executed >= max_tasks:
            break
        claimed = queue.claim(worker_id)
        if claimed is None:
            time.sleep(idle_poll_s)
            continue
        key, envelope = claimed
        if envelope.run_id != run_id:
            parallel._EVALUATOR_CACHE.clear()
            run_id = envelope.run_id
        try:
            fn = resolve_function(envelope.fn_module, envelope.fn_qualname)
            value = fn(envelope.task)
            status, payload = OK, value
        except BaseException as exc:
            status = ERROR
            payload = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
        try:
            queue.complete(worker_id, key, status, payload)
        except Exception:
            # An unpicklable result value: record the failure shape
            # instead so the coordinator can retry or surface it.
            queue.complete(
                worker_id, key, ERROR,
                f"result for {key[:12]} could not be serialised",
            )
        executed += 1
    return executed


def main(argv: Optional[list] = None) -> None:
    parser = argparse.ArgumentParser(
        description="Run one persistent fleet worker over a durable queue."
    )
    parser.add_argument("--queue", type=pathlib.Path, required=True)
    parser.add_argument("--worker-id", type=str, required=True)
    parser.add_argument("--parent-pid", type=int, default=None)
    parser.add_argument("--idle-poll", type=float, default=IDLE_POLL_S)
    args = parser.parse_args(argv)
    serve(
        args.queue,
        args.worker_id,
        parent_pid=args.parent_pid,
        idle_poll_s=args.idle_poll,
    )


if __name__ == "__main__":
    main()


__all__ = ["IDLE_POLL_S", "main", "resolve_function", "serve"]
