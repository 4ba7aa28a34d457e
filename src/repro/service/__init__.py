"""Distributed execution service over the journal/cache substrate.

The service layer turns the single-process engine into an async,
multi-client system without changing a single computed bit:

* :class:`~repro.service.api.ExecutionService` -- async job API
  (``submit``/``status``/``events``/``cancel``/``result``) whose jobs
  share one :class:`~repro.engine.cache.ShardedResultCache` and recover
  from crashes through each job's own run journal.
* :mod:`~repro.service.backends` -- :class:`BatchItem`, the unit of
  work the runner hands every executor.
* :mod:`~repro.service.queue` / :mod:`~repro.service.worker` /
  :mod:`~repro.service.fleet` -- the durable on-disk task queue, the
  persistent worker loop, and the fleet coordinator.
* :mod:`~repro.service.cli` -- ``python -m repro.service``
  (``submit``/``serve``/``watch``/``jobs``).
"""

from repro.service.api import ExecutionService
from repro.service.backends import BatchItem
from repro.service.jobs import (
    JOB_STATES,
    JobHandle,
    JobSpec,
    JobStatus,
    TERMINAL_STATES,
)
from repro.service.queue import DurableTaskQueue, TaskEnvelope

__all__ = [
    "BatchItem",
    "DurableTaskQueue",
    "ExecutionService",
    "JOB_STATES",
    "JobHandle",
    "JobSpec",
    "JobStatus",
    "TERMINAL_STATES",
    "TaskEnvelope",
]
