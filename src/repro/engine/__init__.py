"""repro.engine -- parallel Monte-Carlo execution behind a unified API.

The engine has six pieces:

* :mod:`repro.engine.config` -- :class:`EngineConfig`, the consolidated
  execution/robustness configuration every entry point shares (pool
  width, cache directories, checkpointing, supervision budgets, fault
  plan).  None of its knobs ever change results.
* :mod:`repro.engine.parallel` -- :class:`ParallelChipRunner`, the
  supervised process-pool chip-batch scheduler.  Chip draws are reserved
  serially (per-chip seeds) and realized in parallel; evaluations ship an
  :class:`EvaluatorSpec` so each worker rebuilds identical seeded traces.
  The supervisor adds per-task timeouts, bounded retries with
  deterministic backoff, crashed-worker respawn, poison-task quarantine,
  and graceful degradation to serial execution.  Serial, parallel, and
  recovered runs are bit-identical.
* :mod:`repro.engine.checkpoint` -- :class:`RunJournal`, the task
  store.  Every completed work item is written durably under its
  content digest (:func:`task_key`), one entry file per key, so an
  interrupted run restarted with ``--resume`` recomputes only what is
  missing.
* :mod:`repro.engine.faults` -- :class:`FaultPlan`, seeded deterministic
  fault injection (worker crashes, errors, hangs, corrupted payloads)
  that makes the recovery paths testable in CI, gated on output
  identity.
* :mod:`repro.engine.cache` -- :class:`ResultCache`, an on-disk
  content-keyed result store (package version + experiment source digest
  + context fingerprint), so re-running ``run_all`` after editing one
  experiment skips the untouched sweeps.
* :mod:`repro.engine.events` -- the typed event stream: one frozen
  dataclass per thing the engine can report, dispatched through a single
  :class:`EventStream` ``emit``/``subscribe`` surface that progress
  reporters, metrics collectors, and the tracer all consume.
* :mod:`repro.engine.observer` -- the standard event consumers
  (CLI progress, JSON metrics) built on the typed :class:`RunObserver`
  ``handle(event)`` base.
* :mod:`repro.engine.trace` -- cross-process hierarchical tracing and
  profiling: ambient :func:`span` context managers, worker-side span
  collection shipped home with task results, Chrome ``trace_event``
  export, and the aggregated per-phase table in ``metrics.json``.
* :mod:`repro.engine.registry` -- the uniform :class:`Experiment`
  protocol (``run`` / ``report`` / optional ``csv_rows`` and
  ``default_context_overrides``, plus the cached ``execute`` path and
  the shared ``cli`` entry point) and the ordered registry that drives
  ``run_all`` without experiment-name special cases.
"""

from repro.engine.cache import (
    CacheStats,
    ResultCache,
    ShardedResultCache,
    resolve_cache,
    source_digest,
)
from repro.engine.checkpoint import RunJournal, canonical_dumps, task_key
from repro.engine.config import (
    EngineConfig,
    LOCAL_BACKEND,
    SUBPROCESS_FLEET_BACKEND,
)
from repro.engine.events import (
    BatchEnded,
    BatchStarted,
    ChipCompleted,
    EngineEvent,
    EventStream,
    ExperimentEnded,
    ExperimentStarted,
    RunCheckpointed,
    RunEnded,
    RunResumed,
    RunStarted,
    KernelPathsCollected,
    SpansCollected,
    Subscriber,
    TaskRetried,
    WorkerRespawned,
    decode_event,
    dispatch,
    encode_event,
)
from repro.engine.trace import (
    NULL_SPAN,
    Instant,
    Span,
    TracedResult,
    Tracer,
    activate,
    collect_task_spans,
    current_tracer,
    peak_rss_kb,
    span,
    tracing_active,
)
from repro.engine.faults import (
    CRASH_EXIT_CODE,
    CorruptedPayload,
    FAULT_KINDS,
    FaultPlan,
    InjectedFaultError,
)
from repro.engine.observer import (
    CLIProgressReporter,
    CompositeObserver,
    JSONMetricsObserver,
    NULL_OBSERVER,
    RunObserver,
)
from repro.engine.parallel import (
    DEFAULT_EVALUATOR_CACHE_SIZE,
    EvalTask,
    EvaluatorSpec,
    ParallelChipRunner,
    RunnerStats,
    SchemeOutcome,
    evaluator_for,
    run_build_task,
    run_eval_task,
)
from repro.engine.registry import (
    CsvExport,
    Experiment,
    all_experiments,
    experiment_names,
    get_experiment,
    register_experiment,
)

__all__ = [
    "CacheStats",
    "ResultCache",
    "ShardedResultCache",
    "resolve_cache",
    "source_digest",
    "RunJournal",
    "canonical_dumps",
    "task_key",
    "EngineConfig",
    "LOCAL_BACKEND",
    "SUBPROCESS_FLEET_BACKEND",
    "CRASH_EXIT_CODE",
    "CorruptedPayload",
    "FAULT_KINDS",
    "FaultPlan",
    "InjectedFaultError",
    "EngineEvent",
    "RunStarted",
    "ExperimentStarted",
    "ExperimentEnded",
    "RunEnded",
    "BatchStarted",
    "ChipCompleted",
    "BatchEnded",
    "TaskRetried",
    "WorkerRespawned",
    "RunCheckpointed",
    "RunResumed",
    "KernelPathsCollected",
    "SpansCollected",
    "Subscriber",
    "dispatch",
    "encode_event",
    "decode_event",
    "EventStream",
    "Span",
    "Instant",
    "NULL_SPAN",
    "TracedResult",
    "Tracer",
    "peak_rss_kb",
    "current_tracer",
    "tracing_active",
    "span",
    "activate",
    "collect_task_spans",
    "RunObserver",
    "NULL_OBSERVER",
    "CompositeObserver",
    "CLIProgressReporter",
    "JSONMetricsObserver",
    "ParallelChipRunner",
    "RunnerStats",
    "DEFAULT_EVALUATOR_CACHE_SIZE",
    "EvaluatorSpec",
    "EvalTask",
    "SchemeOutcome",
    "evaluator_for",
    "run_build_task",
    "run_eval_task",
    "CsvExport",
    "Experiment",
    "register_experiment",
    "get_experiment",
    "all_experiments",
    "experiment_names",
]
