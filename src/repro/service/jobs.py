"""Job specs, statuses, and handles for the execution service.

A *job* is one registered experiment executed under one JSON-able
context specification.  Everything about a job lives in its directory
under the service root::

    jobs/<job_id>/spec.json      the JobSpec (rebuildable context)
    jobs/<job_id>/status.json    the JobStatus (atomically replaced)
    jobs/<job_id>/claim          O_EXCL pid file of the running process
    jobs/<job_id>/cancel         cancellation marker (presence = cancel)
    jobs/<job_id>/events.jsonl   encoded typed engine events, in order
    jobs/<job_id>/checkpoints/   the job's checkpoint dir: its task store
                                 (results/<key[:2]>/<key>.result) and,
                                 on the fleet backend, its task queue
    jobs/<job_id>/result.pkl     the pickled experiment result
    jobs/<job_id>/report.txt     the paper-style text report

Specs are deliberately *values*, not pickled contexts: a service
restarted after a crash rebuilds the identical
:class:`~repro.experiments.runner.ExperimentContext` from ``spec.json``,
and the task store under ``checkpoints/`` (read with ``resume=True``)
plus the content-keyed caches make the re-run bit-identical to an
uninterrupted one.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional, TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.engine.checkpoint import durable_write

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.events import EngineEvent
    from repro.service.api import ExecutionService

#: Job lifecycle states, in rough order.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
TERMINAL_STATES = (DONE, FAILED, CANCELLED)


@dataclass(frozen=True)
class JobSpec:
    """The JSON-able description of one submitted job."""

    experiment: str
    chips: int = 60
    refs: int = 8000
    seed: int = 2007
    technology: str = "3t1d"
    geometry: Optional[str] = None
    """``SIZEKB:WAYS[:BANKS]`` spec string, or ``None`` for the paper
    point (same grammar as the ``--geometry`` CLI flag)."""
    workers: Optional[int] = None
    """Pool width override for this job; ``None`` uses the service's
    engine template."""
    backend: Optional[str] = None
    """Execution backend override (e.g. ``"subprocess-fleet"``)."""
    fleet_size: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.experiment:
            raise ConfigurationError("job spec needs an experiment name")
        if self.chips < 1 or self.refs < 1:
            raise ConfigurationError(
                "job spec chips/refs must be >= 1, got "
                f"{self.chips}/{self.refs}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "chips": self.chips,
            "refs": self.refs,
            "seed": self.seed,
            "technology": self.technology,
            "geometry": self.geometry,
            "workers": self.workers,
            "backend": self.backend,
            "fleet_size": self.fleet_size,
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "JobSpec":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in record.items() if k in known})


@dataclass
class JobStatus:
    """One job's externally visible state snapshot."""

    job_id: str
    state: str = QUEUED
    experiment: str = ""
    cached: bool = False
    """True when the result came straight from the shared ResultCache
    (the fleet-wide dedupe signal the CI gate asserts on)."""
    cache_hits: int = 0
    """Shared-cache hits the service recorded while this job resolved."""
    detail: str = ""
    """Failure traceback / cancellation note; empty otherwise."""

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "state": self.state,
            "experiment": self.experiment,
            "cached": self.cached,
            "cache_hits": self.cache_hits,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "JobStatus":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in record.items() if k in known})


@dataclass(frozen=True)
class JobHandle:
    """Client-side reference to one submitted job.

    Thin sugar over the service's job-id API: every method delegates, so
    a handle stays valid across service restarts (it holds no state
    beyond the id).
    """

    service: "ExecutionService" = field(repr=False)
    job_id: str

    def status(self) -> JobStatus:
        return self.service.status(self.job_id)

    def events(self, follow: bool = False) -> Iterator["EngineEvent"]:
        return self.service.events(self.job_id, follow=follow)

    def result(self, timeout: Optional[float] = None) -> Any:
        return self.service.result(self.job_id, timeout=timeout)

    def cancel(self) -> bool:
        return self.service.cancel(self.job_id)

    def wait(self, timeout: Optional[float] = None) -> JobStatus:
        return self.service.wait(self.job_id, timeout=timeout)


# ----------------------------------------------------------------------
# job-directory primitives (shared by the service and its CLI)
# ----------------------------------------------------------------------


def write_status(job_dir: pathlib.Path, status: JobStatus) -> None:
    """Atomically replace the job's status snapshot."""
    durable_write(
        job_dir / "status.json",
        (json.dumps(status.to_dict(), indent=2) + "\n").encode(),
    )


def read_status(job_dir: pathlib.Path) -> JobStatus:
    """The job's current status snapshot."""
    path = job_dir / "status.json"
    try:
        return JobStatus.from_dict(json.loads(path.read_text()))
    except FileNotFoundError:
        raise ConfigurationError(
            f"no such job: {job_dir.name!r} (missing {path})"
        ) from None


def write_spec(job_dir: pathlib.Path, spec: JobSpec) -> None:
    (job_dir / "spec.json").write_text(
        json.dumps(spec.to_dict(), indent=2) + "\n"
    )


def read_spec(job_dir: pathlib.Path) -> JobSpec:
    return JobSpec.from_dict(
        json.loads((job_dir / "spec.json").read_text())
    )


def try_claim(job_dir: pathlib.Path, pid: int) -> bool:
    """Atomically claim the right to run this job (O_EXCL pid file)."""
    try:
        fd = os.open(
            job_dir / "claim", os.O_CREAT | os.O_EXCL | os.O_WRONLY
        )
    except FileExistsError:
        return False
    with os.fdopen(fd, "w") as handle:
        handle.write(str(pid))
    return True


def claim_pid(job_dir: pathlib.Path) -> Optional[int]:
    """The pid holding this job's run claim, or ``None``."""
    try:
        return int((job_dir / "claim").read_text().strip())
    except (FileNotFoundError, ValueError):
        return None


def release_claim(job_dir: pathlib.Path) -> None:
    try:
        (job_dir / "claim").unlink()
    except FileNotFoundError:
        pass


def pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a local pid."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True


__all__ = [
    "CANCELLED",
    "DONE",
    "FAILED",
    "JOB_STATES",
    "JobHandle",
    "JobSpec",
    "JobStatus",
    "QUEUED",
    "RUNNING",
    "TERMINAL_STATES",
    "claim_pid",
    "pid_alive",
    "read_spec",
    "read_status",
    "release_claim",
    "try_claim",
    "write_spec",
    "write_status",
]
