"""The unified engine configuration surface.

:class:`EngineConfig` gathers every execution knob that used to be
scattered across :class:`~repro.experiments.runner.ExperimentContext`
fields, :class:`~repro.engine.parallel.ParallelChipRunner` arguments, and
``run_all``-only CLI flags: pool width, result-cache directory, the
evaluator LRU capacity, and the robustness layer (checkpoint directory,
resume flag, per-task timeout, retry budget, pool-failure budget, fault
plan).  None of these knobs ever affect results -- serial, parallel,
cached, resumed, and fault-injected runs stay bit-identical -- so the
config deliberately contributes nothing to cache fingerprints.

The legacy keyword signatures (``ExperimentContext(workers=...)``,
``ParallelChipRunner(workers=..., evaluator_cache_size=...)``) completed
their deprecation cycle and were removed; :class:`EngineConfig` is the
only way to configure the engine (see DESIGN.md section 3d).
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.engine.faults import FaultPlan


#: The default execution backend: the in-process supervised pool.
LOCAL_BACKEND = "local"

#: The durable-queue fleet backend (see :mod:`repro.service.fleet`).
SUBPROCESS_FLEET_BACKEND = "subprocess-fleet"

#: Every legal ``EngineConfig.backend`` value.
EXECUTION_BACKENDS = (LOCAL_BACKEND, SUBPROCESS_FLEET_BACKEND)


@dataclass(frozen=True)
class EngineConfig:
    """Execution, caching, and robustness knobs for one engine run.

    All fields are orthogonal to results; they tune how (and how
    durably) the same bits get computed.
    """

    workers: Optional[int] = None
    """Process-pool width; ``None`` lets the runner use the CPU count."""
    backend: str = LOCAL_BACKEND
    """Which execution backend fans chip batches out, one of
    :data:`EXECUTION_BACKENDS`.  ``"local"`` (the default) runs batches
    inline or on the in-process pool and is bit-identical to every
    historical run; ``"subprocess-fleet"`` routes batches through a
    durable on-disk task queue served by persistent worker processes
    (see :mod:`repro.service.fleet`)."""
    fleet_size: Optional[int] = None
    """Worker-process count for the subprocess-fleet backend; ``None``
    falls back to :attr:`effective_workers`.  Ignored by ``"local"``."""
    queue_dir: Optional[pathlib.Path] = None
    """Durable task-queue directory for queue-based backends; ``None``
    uses ``checkpoint_dir`` itself, so fleet workers record into the
    run's task store (a private temporary directory when no checkpoint
    dir is configured either).  An explicit queue directory dedupes
    work fleet-wide, whatever ``resume`` says: every result in its
    store is reused by any run or client sharing it."""
    cache_dir: Optional[pathlib.Path] = None
    """Result-cache directory (experiment-level memoisation)."""
    evaluator_cache_size: Optional[int] = None
    """Per-process evaluator LRU capacity; ``None`` keeps the default."""
    checkpoint_dir: Optional[pathlib.Path] = None
    """Task-store directory: every completed task's result is stored
    under ``results/`` by its content digest; ``None`` disables
    chip-level checkpoints."""
    resume: bool = False
    """Reuse every result already in the task store.  Without it a run
    reuses only results it recorded itself, and its writes replace
    older entries."""
    task_timeout: Optional[float] = None
    """Seconds a pooled task may run before it is failed and retried."""
    max_retries: int = 2
    """Individual failures a task may accumulate before quarantine."""
    retry_backoff_s: float = 0.05
    """Base of the deterministic exponential retry backoff."""
    max_pool_failures: int = 5
    """Pool breakdowns tolerated before degrading to serial execution."""
    fault_plan: Optional[FaultPlan] = None
    """Seeded fault-injection schedule (testing/CI only)."""

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.backend not in EXECUTION_BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {', '.join(EXECUTION_BACKENDS)}; "
                f"got {self.backend!r}"
            )
        if self.fleet_size is not None and self.fleet_size < 1:
            raise ConfigurationError(
                f"fleet_size must be >= 1, got {self.fleet_size}"
            )
        if (
            self.evaluator_cache_size is not None
            and self.evaluator_cache_size < 1
        ):
            raise ConfigurationError(
                "evaluator cache size must be >= 1, got "
                f"{self.evaluator_cache_size}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ConfigurationError(
                f"task_timeout must be > 0, got {self.task_timeout}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.retry_backoff_s < 0:
            raise ConfigurationError(
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s}"
            )
        if self.max_pool_failures < 0:
            raise ConfigurationError(
                f"max_pool_failures must be >= 0, got {self.max_pool_failures}"
            )
        for name in ("cache_dir", "checkpoint_dir", "queue_dir"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, pathlib.Path):
                object.__setattr__(self, name, pathlib.Path(value))

    # ------------------------------------------------------------------

    @property
    def effective_workers(self) -> int:
        """The pool width actually used (CPU count when unset)."""
        if self.workers is not None:
            return self.workers
        return os.cpu_count() or 1

    @property
    def effective_fleet_size(self) -> int:
        """Worker processes a queue-based backend should keep alive."""
        if self.fleet_size is not None:
            return self.fleet_size
        return self.effective_workers

    def replace(self, **overrides) -> "EngineConfig":
        """A derived config with the given fields replaced."""
        return dataclasses.replace(self, **overrides)

    def retry_backoff(self, failure: int) -> float:
        """Deterministic backoff before retry number ``failure`` (1-based)."""
        return self.retry_backoff_s * (2 ** max(0, failure - 1))


__all__ = [
    "EXECUTION_BACKENDS",
    "EngineConfig",
    "LOCAL_BACKEND",
    "SUBPROCESS_FLEET_BACKEND",
]
