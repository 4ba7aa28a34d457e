"""The execution service: async jobs over the journal/cache substrate.

:class:`ExecutionService` turns the engine into a multi-client job
server without a network daemon: all coordination state is files under
one service root, so any number of submitting processes (plus a
``python -m repro.service serve`` loop) cooperate through atomic
filesystem operations alone.

* **Async API** -- :meth:`submit` returns a
  :class:`~repro.service.jobs.JobHandle` immediately; the job runs on a
  service thread.  :meth:`status`, :meth:`events` (typed
  :mod:`repro.engine.events` records, optionally followed live),
  :meth:`cancel`, and :meth:`result` complete the surface.
* **Fleet-wide dedupe** -- every job resolves through one shared
  :class:`~repro.engine.cache.ShardedResultCache`; identical concurrent
  jobs are additionally *coalesced* through an in-flight registry (the
  second waits for the first and is served as a cache hit instead of
  recomputing).
* **Crash recovery** -- each job journals its chip batches under its own
  ``checkpoints/`` directory with ``resume=True``, so :meth:`recover`
  (after a service crash or SIGKILL) re-runs interrupted jobs
  bit-identically, restoring completed work instead of recomputing it.

Determinism note: the service never reads wall-clock time; waits use
monotonic deadlines, and results carry no timestamps.
"""

from __future__ import annotations

import json
import os
import pathlib
import pickle
import threading
import time
import traceback
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.errors import ConfigurationError, ExecutionError, JobCancelled
from repro.engine.cache import ShardedResultCache
from repro.engine.checkpoint import durable_write
from repro.engine.config import EngineConfig
from repro.engine.events import (
    EngineEvent,
    EventStream,
    ExperimentEnded,
    ExperimentStarted,
    decode_event,
    encode_event,
)
from repro.engine.registry import Experiment, get_experiment
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    JobHandle,
    JobSpec,
    JobStatus,
    QUEUED,
    RUNNING,
    claim_pid,
    pid_alive,
    read_spec,
    read_status,
    release_claim,
    try_claim,
    write_spec,
    write_status,
)

#: Poll period for status waits and in-flight coalescing.
WAIT_POLL_S = 0.05


def _geometry_from_spec(spec: Optional[str]):
    """Parse a job spec's geometry string (service-shaped errors)."""
    from repro.experiments.cli import parse_geometry_spec

    if spec is None:
        return None
    try:
        return parse_geometry_spec(spec)
    except SystemExit as exc:  # the CLI helper speaks SystemExit
        raise ConfigurationError(str(exc)) from None


def _geometry_to_spec(geometry) -> str:
    """Render a context geometry back into the spec grammar."""
    if geometry.size_bytes % 1024 or geometry.line_bits != 512:
        raise ConfigurationError(
            "only SIZEKB:WAYS[:BANKS] geometries (512-bit lines, whole-KB "
            f"capacity) can be submitted as jobs; got {geometry.signature}"
        )
    return (
        f"{geometry.size_bytes // 1024}:{geometry.ways}"
        f":{geometry.n_subarrays // 2}"
    )


class _JobEventLog:
    """Streams a job's typed events to ``events.jsonl``; checks cancel.

    Raising :class:`~repro.errors.JobCancelled` from a subscriber
    unwinds the run at the next event boundary -- the engine dispatches
    events synchronously on the coordinating thread, so the partial run
    is abandoned cleanly (nothing half-computed ever reaches the shared
    cache; journalled chips survive for a future resume).
    """

    def __init__(self, path: pathlib.Path, cancel_path: pathlib.Path):
        self._handle = open(path, "a")
        self._cancel_path = cancel_path

    def handle(self, event: EngineEvent) -> None:
        if self._cancel_path.exists():
            raise JobCancelled(
                f"job cancelled ({self._cancel_path.parent.name})"
            )
        record = encode_event(event)
        if record is not None:
            self._handle.write(json.dumps(record) + "\n")
            self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class ExecutionService:
    """Async experiment jobs sharing one sharded fleet-wide cache."""

    def __init__(
        self,
        root: pathlib.Path,
        engine: Optional[EngineConfig] = None,
        shard_prefix_len: int = 2,
    ):
        self.root = pathlib.Path(root)
        self.jobs_dir = self.root / "jobs"
        self.inflight_dir = self.root / "inflight"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.inflight_dir.mkdir(parents=True, exist_ok=True)
        self.engine_template = (
            engine if engine is not None else EngineConfig(workers=1)
        )
        self.cache = ShardedResultCache(
            self.root / "cache", shard_prefix_len=shard_prefix_len
        )
        self._threads: Dict[str, threading.Thread] = {}

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def _spec_for(
        self,
        experiment: Union[Experiment, str],
        context: Optional[Any],
        overrides: Dict[str, Any],
    ) -> JobSpec:
        name = (
            experiment if isinstance(experiment, str) else experiment.name
        )
        get_experiment(name)  # fail fast on unknown experiments
        fields: Dict[str, Any] = {"experiment": name}
        if context is not None:
            fields.update(
                chips=context.n_chips,
                refs=context.n_references,
                seed=context.seed,
                technology=context.technology,
            )
            if context.geometry is not None:
                fields["geometry"] = _geometry_to_spec(context.geometry)
            engine = context.engine
            if engine is not None:
                fields.update(
                    workers=engine.workers,
                    backend=engine.backend,
                    fleet_size=engine.fleet_size,
                )
        fields.update(overrides)
        return JobSpec(**fields)

    def submit(
        self,
        experiment: Union[Experiment, str],
        context: Optional[Any] = None,
        *,
        start: bool = True,
        **overrides: Any,
    ) -> JobHandle:
        """Enqueue one job; returns its handle immediately.

        ``experiment`` is a registered experiment (or its name);
        ``context`` optionally seeds the job spec from an existing
        :class:`~repro.experiments.runner.ExperimentContext`, and
        keyword ``overrides`` set :class:`~repro.service.jobs.JobSpec`
        fields directly (``chips=``, ``seed=``, ``backend=``, ...).

        With ``start=True`` (the default) the job runs on a thread of
        this process; ``start=False`` only records it as ``queued`` for
        a ``python -m repro.service serve`` loop to claim.
        """
        spec = self._spec_for(experiment, context, overrides)
        job_id = self._allocate_job_dir()
        job_dir = self.jobs_dir / job_id
        write_spec(job_dir, spec)
        write_status(
            job_dir,
            JobStatus(job_id=job_id, state=QUEUED, experiment=spec.experiment),
        )
        if start:
            self._start(job_id)
        return JobHandle(service=self, job_id=job_id)

    def _allocate_job_dir(self) -> str:
        n = len(sorted(self.jobs_dir.glob("job-*")))
        while True:
            job_id = f"job-{n:05d}"
            try:
                os.mkdir(self.jobs_dir / job_id)
            except FileExistsError:
                n += 1
                continue
            return job_id

    def _start(self, job_id: str) -> bool:
        """Claim and launch one queued job on a service thread."""
        job_dir = self.jobs_dir / job_id
        if not try_claim(job_dir, os.getpid()):
            return False
        thread = threading.Thread(
            target=self._run_job_guarded, args=(job_id,),
            name=f"repro-service-{job_id}", daemon=True,
        )
        self._threads[job_id] = thread
        thread.start()
        return True

    # ------------------------------------------------------------------
    # the job body
    # ------------------------------------------------------------------

    def _context_for(self, spec: JobSpec, job_dir: pathlib.Path, observer):
        from repro.experiments.runner import ExperimentContext

        engine_fields: Dict[str, Any] = dict(
            checkpoint_dir=job_dir / "checkpoints",
            resume=True,
            cache_dir=None,
        )
        if spec.workers is not None:
            engine_fields["workers"] = spec.workers
        if spec.backend is not None:
            engine_fields["backend"] = spec.backend
        if spec.fleet_size is not None:
            engine_fields["fleet_size"] = spec.fleet_size
        return ExperimentContext(
            n_chips=spec.chips,
            n_references=spec.refs,
            seed=spec.seed,
            technology=spec.technology,
            geometry=_geometry_from_spec(spec.geometry),
            engine=self.engine_template.replace(**engine_fields),
            observer=observer,
        )

    def _run_job_guarded(self, job_id: str) -> None:
        job_dir = self.jobs_dir / job_id
        try:
            self._run_job(job_id, job_dir)
        except JobCancelled:
            write_status(job_dir, JobStatus(
                job_id=job_id, state=CANCELLED,
                experiment=read_spec(job_dir).experiment,
                detail="cancelled",
            ))
        except BaseException:
            write_status(job_dir, JobStatus(
                job_id=job_id, state=FAILED,
                experiment=read_spec(job_dir).experiment,
                detail=traceback.format_exc(),
            ))
        finally:
            release_claim(job_dir)

    def _run_job(self, job_id: str, job_dir: pathlib.Path) -> None:
        spec = read_spec(job_dir)
        if (job_dir / "cancel").exists():
            raise JobCancelled(f"job cancelled before start ({job_id})")
        experiment = get_experiment(spec.experiment)
        write_status(job_dir, JobStatus(
            job_id=job_id, state=RUNNING, experiment=spec.experiment,
        ))
        log = _JobEventLog(job_dir / "events.jsonl", job_dir / "cancel")
        stream = EventStream([log])
        context = self._context_for(spec, job_dir, stream)
        effective = experiment.context_for(context)
        key = self.cache.key_for(experiment, effective)
        owned = self._acquire_inflight(key, job_id)
        hits_before = self.cache.stats.hits
        try:
            if not owned:
                self._await_inflight(key)
            stream.emit(ExperimentStarted(spec.experiment))
            start = time.perf_counter()
            result, cached = experiment.execute(context, self.cache)
            elapsed = time.perf_counter() - start
            stream.emit(ExperimentEnded(spec.experiment, elapsed, cached))
            self._write_result(job_dir, experiment, result)
            write_status(job_dir, JobStatus(
                job_id=job_id, state=DONE, experiment=spec.experiment,
                cached=cached,
                cache_hits=self.cache.stats.hits - hits_before,
            ))
        finally:
            if owned:
                self._release_inflight(key)
            context.close()
            log.close()

    def _write_result(
        self, job_dir: pathlib.Path, experiment: Experiment, result: Any
    ) -> None:
        durable_write(
            job_dir / "result.pkl",
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL),
        )
        (job_dir / "report.txt").write_text(
            experiment.report(result) + "\n"
        )

    # ------------------------------------------------------------------
    # in-flight coalescing (concurrent identical jobs)
    # ------------------------------------------------------------------

    def _acquire_inflight(self, key: str, job_id: str) -> bool:
        """Claim the right to *compute* ``key``; False to wait instead."""
        path = self.inflight_dir / key
        while True:
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    owner = int(path.read_text().split(":", 1)[0])
                except (ValueError, FileNotFoundError):
                    owner = None
                if owner is None or not pid_alive(owner):
                    # Stale marker from a crashed computer: take over.
                    try:
                        path.unlink()
                    except FileNotFoundError:
                        pass
                    continue
                return False
            with os.fdopen(fd, "w") as handle:
                handle.write(f"{os.getpid()}:{job_id}")
            return True

    def _await_inflight(self, key: str) -> None:
        """Block until the computing job releases (or dies); the shared
        cache then serves this job its result as a hit."""
        path = self.inflight_dir / key
        while path.exists():
            try:
                owner = int(path.read_text().split(":", 1)[0])
            except (ValueError, FileNotFoundError):
                break
            if not pid_alive(owner):
                break
            time.sleep(WAIT_POLL_S)

    def _release_inflight(self, key: str) -> None:
        try:
            (self.inflight_dir / key).unlink()
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------
    # the read API
    # ------------------------------------------------------------------

    def status(self, job_id: str) -> JobStatus:
        """The job's current state snapshot."""
        return read_status(self.jobs_dir / job_id)

    def jobs(self) -> List[JobStatus]:
        """Every known job's status, in job-id order."""
        return [
            read_status(path)
            for path in sorted(self.jobs_dir.glob("job-*"))
            if (path / "status.json").exists()
        ]

    def wait(
        self, job_id: str, timeout: Optional[float] = None
    ) -> JobStatus:
        """Block until the job reaches a terminal state."""
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while True:
            status = self.status(job_id)
            if status.terminal:
                return status
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"{job_id} still {status.state} after {timeout:g}s"
                )
            time.sleep(WAIT_POLL_S)

    def result(self, job_id: str, timeout: Optional[float] = None) -> Any:
        """The job's experiment result (blocks until terminal).

        Raises :class:`~repro.errors.ExecutionError` for a failed job
        and :class:`~repro.errors.JobCancelled` for a cancelled one.
        """
        status = self.wait(job_id, timeout=timeout)
        if status.state == CANCELLED:
            raise JobCancelled(f"{job_id} was cancelled")
        if status.state == FAILED:
            raise ExecutionError(
                f"{job_id} failed:\n{status.detail}"
            )
        with open(self.jobs_dir / job_id / "result.pkl", "rb") as handle:
            return pickle.load(handle)

    def report(self, job_id: str, timeout: Optional[float] = None) -> str:
        """The job's paper-style text report (blocks until terminal)."""
        self.result(job_id, timeout=timeout)
        return (self.jobs_dir / job_id / "report.txt").read_text()

    def events(
        self, job_id: str, follow: bool = False
    ) -> Iterator[EngineEvent]:
        """The job's typed event stream, in emission order.

        ``follow=True`` keeps tailing the stream until the job reaches
        a terminal state (live progress for watchers).
        """
        path = self.jobs_dir / job_id / "events.jsonl"
        position = 0

        def drain():
            nonlocal position
            if not path.exists():
                return
            with open(path, "r") as handle:
                handle.seek(position)
                while True:
                    line = handle.readline()
                    if not line.endswith("\n"):
                        return  # torn tail: re-read on the next pass
                    position = handle.tell()
                    yield decode_event(json.loads(line))

        while True:
            yield from drain()
            if not follow or self.status(job_id).terminal:
                # One final drain so events logged between the last read
                # and the terminal status are not dropped.
                if follow:
                    yield from drain()
                return
            time.sleep(WAIT_POLL_S)

    # ------------------------------------------------------------------
    # control
    # ------------------------------------------------------------------

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; False if the job already finished.

        Cancellation is cooperative: the running job unwinds at its next
        event boundary, so a cancelled job's journal keeps every chip it
        completed (a resubmitted identical job resumes from there).
        """
        status = self.status(job_id)
        if status.terminal:
            return False
        (self.jobs_dir / job_id / "cancel").write_text("cancel\n")
        return True

    def recover(self) -> List[str]:
        """Re-run jobs whose claiming process died; returns their ids.

        Safe to call on every service start: live claims (including this
        process's own threads) are left alone, and re-run jobs restore
        their journalled chips via ``resume=True``, keeping recovered
        results bit-identical to uninterrupted ones.
        """
        restarted: List[str] = []
        for path in sorted(self.jobs_dir.glob("job-*")):
            job_id = path.name
            if not (path / "status.json").exists():
                continue
            status = read_status(path)
            if status.terminal:
                continue
            thread = self._threads.get(job_id)
            if thread is not None and thread.is_alive():
                continue
            pid = claim_pid(path)
            if pid is None:
                if status.state == QUEUED:
                    # Never claimed: pending work for run_pending(), not
                    # a casualty for recovery.
                    continue
            else:
                if pid != os.getpid() and pid_alive(pid):
                    continue
                release_claim(path)
            if self._start(job_id):
                restarted.append(job_id)
        return restarted

    def run_pending(self) -> List[str]:
        """Claim and start every unclaimed ``queued`` job; returns ids."""
        started: List[str] = []
        for path in sorted(self.jobs_dir.glob("job-*")):
            if not (path / "status.json").exists():
                continue
            if read_status(path).state != QUEUED:
                continue
            if claim_pid(path) is not None:
                continue
            if self._start(path.name):
                started.append(path.name)
        return started

    def drain(self, timeout: Optional[float] = None) -> List[JobStatus]:
        """Start pending jobs and wait for every local job to finish."""
        self.run_pending()
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        for job_id, thread in sorted(self._threads.items()):
            budget = None
            if deadline is not None:
                budget = max(0.0, deadline - time.monotonic())
            thread.join(timeout=budget)
            if thread.is_alive():
                raise TimeoutError(f"{job_id} did not finish in time")
        return self.jobs()

    def close(self) -> None:
        """Wait for this process's running jobs to finish."""
        self.drain()

    def __enter__(self) -> "ExecutionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["ExecutionService", "WAIT_POLL_S"]
