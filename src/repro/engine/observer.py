"""Progress and timing consumers for the engine's typed event stream.

The engine reports through typed events
(:mod:`repro.engine.events`): frozen dataclasses dispatched to any
subscriber with a ``handle(event)`` method.  This module hosts the
standard consumers:

* :class:`CLIProgressReporter` prints human-readable progress lines;
* :class:`JSONMetricsObserver` accumulates a machine-readable timing
  record (optionally including a tracer's per-phase table) and dumps it
  as JSON at the end of the run;
* :class:`CompositeObserver` fans events out to several subscribers (a
  named :class:`~repro.engine.events.EventStream` subclass).

Subscribers are strictly passive -- they never influence results, so
serial, parallel, cached, and traced runs stay bit-identical regardless
of what is attached.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time
from typing import Any, Dict, Optional, Sequence, TextIO, Tuple

from repro.engine.events import (
    BatchEnded,
    BatchStarted,
    ChipCompleted,
    EngineEvent,
    EventStream,
    ExperimentEnded,
    ExperimentStarted,
    KernelPathsCollected,
    RunCheckpointed,
    RunEnded,
    RunResumed,
    RunStarted,
    TaskRetried,
    WorkerRespawned,
)


class RunObserver:
    """Base subscriber: override :meth:`handle` and match on event types.

    The base :meth:`handle` ignores every event, so subclasses only
    handle what they care about.  Handlers must be cheap and
    side-effect-free with respect to the computation -- they run on the
    coordinating process, between result arrivals.
    """

    def handle(self, event: EngineEvent) -> None:
        """Deliver one typed event (base implementation ignores it)."""


NULL_OBSERVER = RunObserver()
"""Shared do-nothing subscriber (the default everywhere)."""


class CompositeObserver(EventStream):
    """Forwards every event to a sequence of subscribers, in order.

    A named :class:`~repro.engine.events.EventStream` subclass whose
    constructor takes the subscriber sequence positionally; ``observers``
    is an alias for :attr:`~repro.engine.events.EventStream.subscribers`.
    """

    def __init__(self, observers: Sequence[Any]):
        super().__init__(observers)

    @property
    def observers(self) -> Tuple[Any, ...]:
        """The wrapped subscribers (dispatch order)."""
        return self.subscribers


class CLIProgressReporter(RunObserver):
    """Prints progress lines suitable for a terminal.

    Per-chip events are throttled to roughly ``updates_per_batch`` lines
    per batch so large Monte-Carlo sweeps don't flood the console.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        updates_per_batch: int = 4,
    ):
        self.stream = stream if stream is not None else sys.stdout
        self.updates_per_batch = max(1, updates_per_batch)

    def _print(self, message: str) -> None:
        print(message, file=self.stream, flush=True)

    def handle(self, event: EngineEvent) -> None:
        if isinstance(event, ChipCompleted):
            step = max(1, event.total // self.updates_per_batch)
            if event.completed == event.total or event.completed % step == 0:
                self._print(
                    f"  [{event.label}] {event.completed}/{event.total}"
                )
        elif isinstance(event, RunStarted):
            self._print(f"running {event.n_experiments} experiments")
        elif isinstance(event, ExperimentStarted):
            self._print(f"{event.name}: running...")
        elif isinstance(event, ExperimentEnded):
            suffix = " (cached)" if event.cached else ""
            self._print(f"{event.name}: done in {event.elapsed_s:.1f}s{suffix}")
        elif isinstance(event, TaskRetried):
            self._print(
                f"  [{event.label}] task {event.index} retry "
                f"#{event.attempt}: {event.reason}"
            )
        elif isinstance(event, WorkerRespawned):
            self._print(
                f"  [{event.label}] worker pool respawned "
                f"(failure #{event.pool_failures})"
            )
        elif isinstance(event, RunResumed):
            self._print(
                f"  [{event.label}] resumed {event.restored} results "
                "from checkpoint"
            )
        elif isinstance(event, RunEnded):
            self._print(f"all experiments done in {event.elapsed_s:.1f}s")


def _empty_robustness() -> Dict[str, int]:
    return {
        "task_retries": 0,
        "worker_respawns": 0,
        "results_checkpointed": 0,
        "results_resumed": 0,
    }


class JSONMetricsObserver(RunObserver):
    """Collects per-experiment/per-batch timings and dumps them as JSON.

    Durations are measured with the monotonic ``time.perf_counter``
    clock (never wall clock, so a suspended laptop or an NTP step cannot
    corrupt them); the single wall-clock read is the intentional
    ``started_at_unix_s`` run timestamp.  Alongside timing, the record
    accumulates the engine's robustness events (retries, pool respawns,
    checkpoint/resume counts) and, when a ``tracer`` is attached, the
    aggregated per-phase trace table under ``trace_phases``.

    The record is available in-memory as :attr:`metrics` and, if a
    ``path`` was given, written to disk when the run ends.
    """

    def __init__(
        self,
        path: Optional[pathlib.Path] = None,
        tracer: Optional[Any] = None,
    ):
        self.path = pathlib.Path(path) if path is not None else None
        self.tracer = tracer
        self.metrics: Dict[str, Any] = self._empty_metrics()
        self._current: Optional[Dict[str, Any]] = None

    @staticmethod
    def _empty_metrics() -> Dict[str, Any]:
        return {
            "experiments": [],
            "total_elapsed_s": None,
            "started_at_unix_s": None,
            "robustness": _empty_robustness(),
            "kernel_paths": {},
        }

    # ------------------------------------------------------------------

    def handle(self, event: EngineEvent) -> None:
        if isinstance(event, RunStarted):
            self._run_started()
        elif isinstance(event, ExperimentStarted):
            self._experiment_started(event.name)
        elif isinstance(event, ExperimentEnded):
            self._experiment_ended(event)
        elif isinstance(event, BatchStarted):
            self._batch_started(event)
        elif isinstance(event, BatchEnded):
            self._batch_ended(event)
        elif isinstance(event, TaskRetried):
            self.metrics["robustness"]["task_retries"] += 1
        elif isinstance(event, WorkerRespawned):
            self.metrics["robustness"]["worker_respawns"] += 1
        elif isinstance(event, RunCheckpointed):
            self.metrics["robustness"]["results_checkpointed"] += event.flushed
        elif isinstance(event, RunResumed):
            self.metrics["robustness"]["results_resumed"] += event.restored
        elif isinstance(event, KernelPathsCollected):
            # scheme/benchmark -> replay path ("flattened" | "timeline"
            # | "event"); later batches overwrite earlier cells, which
            # is fine because paths are a pure function of the scheme.
            self.metrics["kernel_paths"].update(dict(event.paths))
        elif isinstance(event, RunEnded):
            self._run_ended(event.elapsed_s)

    # ------------------------------------------------------------------

    def _run_started(self) -> None:
        self.metrics = self._empty_metrics()
        # Intentional run timestamp: metrics are diagnostics, never
        # results, so recording when the run happened is allowed here.
        self.metrics["started_at_unix_s"] = round(
            time.time(), 3  # repro: ignore[DET003]
        )
        self._current = None

    def _experiment_started(self, name: str) -> None:
        self._current = {
            "name": name,
            "elapsed_s": None,
            "cached": False,
            "batches": [],
        }
        self.metrics["experiments"].append(self._current)

    def _experiment_ended(self, event: ExperimentEnded) -> None:
        if self._current is None or self._current["name"] != event.name:
            self._experiment_started(event.name)
        self._current["elapsed_s"] = round(event.elapsed_s, 4)
        self._current["cached"] = event.cached
        self._current = None

    def _batch_started(self, event: BatchStarted) -> None:
        if self._current is not None:
            self._current["batches"].append({
                "label": event.label,
                "items": event.total,
                "elapsed_s": None,
            })

    def _batch_ended(self, event: BatchEnded) -> None:
        if self._current is not None:
            for batch in reversed(self._current["batches"]):
                if batch["label"] == event.label and batch["elapsed_s"] is None:
                    batch["elapsed_s"] = round(event.elapsed_s, 4)
                    break

    def _run_ended(self, elapsed: float) -> None:
        self.metrics["total_elapsed_s"] = round(elapsed, 4)
        if self.tracer is not None:
            self.metrics["trace_phases"] = self.tracer.phase_table()
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(self.metrics, indent=2) + "\n")


__all__ = [
    "RunObserver",
    "NULL_OBSERVER",
    "CompositeObserver",
    "CLIProgressReporter",
    "JSONMetricsObserver",
]
