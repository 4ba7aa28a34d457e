"""The batch item the runner hands its executors, under its service name.

``EngineConfig.backend`` is a closed choice: ``"local"`` runs batches
inline or on a process pool, ``"subprocess-fleet"`` on
:class:`~repro.service.fleet.SubprocessFleetExecutor`.  Every executor's
``run_batch(fn, items, notify, label)`` runs one attempt of each
:class:`BatchItem` and yields its ``(index, outcome)``: the value, a
:class:`~repro.engine.parallel.TaskFailed`, or
:data:`~repro.engine.parallel.LOST`.  Retries and every other
supervision policy belong to
:meth:`~repro.engine.parallel.ParallelChipRunner.map`.
"""

from repro.engine.parallel import BatchItem

__all__ = ["BatchItem"]
