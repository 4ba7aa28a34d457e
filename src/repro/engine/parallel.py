"""Process-pool chip-batch scheduler for Monte-Carlo experiments.

:class:`ParallelChipRunner` fans two kinds of work across worker
processes:

* **chip builds** -- :class:`~repro.array.chip.ChipBuildTask` items whose
  per-chip seeds were reserved *serially* from the sampler's root
  generator, so a parallel batch reproduces the serial chip sequence
  bit for bit (a task may solve its chip at several operating points);
* **chip evaluations** -- :class:`EvalTask` items that rebuild a worker-
  local :class:`~repro.core.evaluation.Evaluator` from an
  :class:`EvaluatorSpec` (traces are seeded, hence identical in every
  process) and reduce each (chip, scheme) evaluation to a small
  :class:`SchemeOutcome` payload.

With ``workers <= 1`` the runner executes the very same task functions
inline, in submission order; because every task is self-contained and
deterministically seeded, serial and parallel runs return identical
results -- only wall-clock differs.

:meth:`ParallelChipRunner.map` is the one supervisor over three
executors -- inline, process pool, and the subprocess fleet
(:mod:`repro.service.fleet`).  An executor runs one attempt of each item
it is given and reports the outcome; retries, backoff, fault-plan
attempt numbering, quarantine and degradation are the supervisor's.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import time
from collections import OrderedDict
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ExecutionError
from repro.technology.node import TechnologyNode
from repro.array.chip import ChipBuildTask, DRAM3T1DChipSample
from repro.array.geometry import CacheGeometry
from repro.array.power import CachePowerModel
from repro.cache.config import CacheConfig
from repro.core.architecture import IdealCacheArchitecture
from repro.core.batcheval import evaluate_many
from repro.core.evaluation import Evaluator
from repro.core.schemes import get_scheme
from repro.engine import trace as trace_mod
from repro.engine.checkpoint import RunJournal, task_key
from repro.engine.config import EngineConfig, SUBPROCESS_FLEET_BACKEND
from repro.engine.events import (
    BatchEnded,
    BatchStarted,
    ChipCompleted,
    KernelPathsCollected,
    RunCheckpointed,
    RunResumed,
    SpansCollected,
    Subscriber,
    TaskRetried,
    WorkerRespawned,
    dispatch,
)
from repro.engine.faults import CorruptedPayload, FaultPlan
from repro.engine.observer import NULL_OBSERVER


@dataclass(frozen=True)
class EvaluatorSpec:
    """Everything needed to rebuild an :class:`Evaluator` in any process.

    Two processes holding equal specs build evaluators with identical
    (seeded) traces, which is what makes parallel evaluation bit-identical
    to serial evaluation.
    """

    node: TechnologyNode
    ways: int = 4
    n_references: int = 8000
    seed: int = 2007
    benchmarks: Optional[Tuple[str, ...]] = None
    technology: str = "3t1d"
    """Registered technology backend; non-default backends adjust the
    cache timing (read/write hit latency) from their latency model."""
    geometry: Optional["CacheGeometry"] = None
    """L1 organisation to evaluate; ``None`` keeps the legacy ways-based
    paper-geometry path (bit-identical to pre-geometry specs).  When
    set, its associativity must agree with ``ways``."""

    def __post_init__(self) -> None:
        if self.benchmarks is not None:
            object.__setattr__(self, "benchmarks", tuple(self.benchmarks))
        if self.ways < 1:
            raise ConfigurationError(f"ways must be >= 1, got {self.ways}")
        if self.geometry is not None and self.geometry.ways != self.ways:
            raise ConfigurationError(
                f"spec ways={self.ways} disagrees with geometry.ways="
                f"{self.geometry.ways}"
            )

    def build(self) -> Evaluator:
        """Construct the evaluator this spec describes."""
        if self.geometry is not None:
            config = CacheConfig(geometry=self.geometry)
        else:
            config = CacheConfig()
            if self.ways != config.geometry.ways:
                config = config.with_ways(self.ways)
        if self.technology != "3t1d":
            from repro.technology.backends import get_backend

            latency = get_backend(self.technology).latency_model(
                self.node, config.geometry
            )
            config = replace(
                config,
                hit_latency_cycles=latency.read_hit_cycles,
                write_hit_extra_cycles=latency.write_extra_cycles,
            )
        return Evaluator(
            self.node,
            config=config,
            n_references=self.n_references,
            seed=self.seed,
            benchmarks=self.benchmarks,
        )


# Per-process evaluator cache: workers (and the serial path) reuse the
# expensive benchmark traces across tasks that share a spec.  Bounded so
# long-lived processes running many differently-scaled contexts don't
# accumulate traces without limit.
DEFAULT_EVALUATOR_CACHE_SIZE = 6

_EVALUATOR_CACHE: "OrderedDict[EvaluatorSpec, Evaluator]" = OrderedDict()


def evaluator_for(spec: EvaluatorSpec) -> Evaluator:
    """The process-local cached evaluator for ``spec``."""
    evaluator = _EVALUATOR_CACHE.get(spec)
    if evaluator is None:
        with trace_mod.span(
            "build_evaluator", cat="traces",
            node=getattr(spec.node, "name", str(spec.node)),
            n_references=spec.n_references,
        ):
            evaluator = spec.build()
        _EVALUATOR_CACHE[spec] = evaluator
        while len(_EVALUATOR_CACHE) > DEFAULT_EVALUATOR_CACHE_SIZE:
            _EVALUATOR_CACHE.popitem(last=False)
    else:
        _EVALUATOR_CACHE.move_to_end(spec)
    return evaluator


@dataclass(frozen=True)
class SchemeOutcome:
    """The scalar reduction of one (chip, scheme) evaluation.

    Carries everything any experiment driver consumes, so the full
    :class:`~repro.core.evaluation.ChipEvaluation` (with its per-benchmark
    cache statistics) never crosses a process boundary.
    """

    scheme: str
    discarded: bool = False
    normalized_performance: float = 0.0
    dynamic_power_normalized: float = 0.0
    bips: float = 0.0
    worst_benchmark: str = ""
    worst_performance: float = 0.0
    mean_dynamic_power_watts: float = 0.0
    ideal_power_watts: float = 0.0
    refresh_power_normalized: float = 0.0
    """Closed-form global-refresh share of ``dynamic_power_normalized``;
    zero for line-level schemes."""
    mean_miss_rate: float = 0.0
    """Suite-mean L1 miss rate (includes expiry-induced misses)."""
    mean_expired_miss_rate: float = 0.0
    """Suite-mean rate of accesses that missed because the line's
    retention expired (or the line is dead) -- the technology-variation
    signal the cross-backend comparison tracks."""
    kernel_paths: Tuple[Tuple[str, str], ...] = ()
    """Per-benchmark replay path (``(benchmark, path)`` pairs, in suite
    order) that produced this outcome's statistics -- see
    :func:`repro.core.kernel_support`.  Empty for discarded chips."""


@dataclass(frozen=True, eq=False)
class EvalTask:
    """One unit of evaluation work shipped to a worker.

    ``kind`` selects the payload:

    * ``"schemes"`` -- evaluate ``chip`` under each named scheme; returns
      a tuple of :class:`SchemeOutcome` (one per scheme, in order).
    * ``"ideal_ipc"`` -- per-benchmark IPC of the golden design on the
      spec's suite; returns a tuple of floats.
    """

    evaluator: EvaluatorSpec
    kind: str = "schemes"
    chip: Optional[DRAM3T1DChipSample] = None
    schemes: Tuple[str, ...] = ()
    benchmarks: Optional[Tuple[str, ...]] = None
    """Optional benchmark subset passed to ``Evaluator.evaluate`` (the
    evaluator still hosts the full suite's traces)."""

    def __post_init__(self) -> None:
        if self.kind not in ("schemes", "ideal_ipc"):
            raise ConfigurationError(f"unknown EvalTask kind {self.kind!r}")
        if self.kind == "schemes":
            if self.chip is None:
                raise ConfigurationError("a 'schemes' task needs a chip")
            if not self.schemes:
                raise ConfigurationError(
                    "a 'schemes' task needs at least one scheme"
                )


def _evaluate_schemes(
    evaluator: Evaluator, task: EvalTask
) -> Tuple[SchemeOutcome, ...]:
    evaluations = evaluate_many(
        [task.chip], task.schemes, evaluator, benchmarks=task.benchmarks
    )[0]
    outcomes: List[SchemeOutcome] = []
    for name, evaluation in zip(task.schemes, evaluations):
        scheme = get_scheme(name)
        if evaluation is None:
            outcomes.append(SchemeOutcome(scheme=name, discarded=True))
            continue
        results = evaluation.results
        worst_name, worst_perf = evaluation.worst_benchmark
        ideal_watts = float(np.mean([
            r.dynamic_power_watts / max(r.dynamic_power_normalized, 1e-12)
            for r in results.values()
        ]))
        refresh_norm = 0.0
        if scheme.is_global:
            technology = getattr(task.chip, "technology", "3t1d")
            power_model = CachePowerModel(
                evaluator.node,
                cell_kind="3T1D" if technology == "3t1d" else technology,
                geometry=evaluator.config.geometry,
            )
            refresh_watts = power_model.global_refresh_power(
                task.chip.chip_retention_time
            )
            refresh_norm = refresh_watts / ideal_watts
        with_stats = [r for r in results.values() if r.stats is not None]
        outcomes.append(
            SchemeOutcome(
                scheme=name,
                normalized_performance=evaluation.normalized_performance,
                dynamic_power_normalized=evaluation.dynamic_power_normalized,
                bips=evaluation.bips,
                worst_benchmark=worst_name,
                worst_performance=worst_perf,
                mean_dynamic_power_watts=float(np.mean(
                    [r.dynamic_power_watts for r in results.values()]
                )),
                ideal_power_watts=ideal_watts,
                refresh_power_normalized=refresh_norm,
                mean_miss_rate=float(np.mean(
                    [r.stats.miss_rate for r in with_stats]
                )) if with_stats else 0.0,
                mean_expired_miss_rate=float(np.mean(
                    [r.stats.expired_miss_rate for r in with_stats]
                )) if with_stats else 0.0,
                kernel_paths=tuple(
                    (bench, result.kernel_path)
                    for bench, result in results.items()
                ),
            )
        )
    return tuple(outcomes)


def run_eval_task(task: EvalTask):
    """Execute one evaluation task (in a worker or inline)."""
    evaluator = evaluator_for(task.evaluator)
    if task.kind == "ideal_ipc":
        with trace_mod.span("ideal_ipc", cat="evaluate"):
            ideal = IdealCacheArchitecture(
                evaluator.node, config=evaluator.config
            )
            return tuple(
                evaluator.evaluate_benchmark(ideal, name).ipc
                for name in evaluator.benchmarks
            )
    with trace_mod.span(
        "evaluate_chip", cat="evaluate",
        chip_id=getattr(task.chip, "chip_id", -1),
        schemes=len(task.schemes),
    ):
        return _evaluate_schemes(evaluator, task)


def run_build_task(task: ChipBuildTask):
    """Execute one chip-build task (in a worker or inline); the build
    records its own ``array.chip.build`` trace span."""
    return task.build()


@dataclass
class RunnerStats:
    """Robustness counters one :class:`ParallelChipRunner` accumulates."""

    task_retries: int = 0
    worker_respawns: int = 0
    tasks_quarantined: int = 0
    results_checkpointed: int = 0
    results_resumed: int = 0


def _supervised_call(
    fn: Callable[[Any], Any],
    task: Any,
    plan: Optional[FaultPlan],
    key: str,
    attempt: int,
    hard_faults: bool,
    collect_spans: bool = False,
):
    """Run one task under the (optional) fault plan.

    Module-level so it pickles by name into workers; ``hard_faults``
    selects process-killing crash injection (pool) vs. raising (inline).

    With ``collect_spans`` (pool submissions of a traced run) the task
    runs under a per-task span collector and the result travels home
    wrapped in a :class:`~repro.engine.trace.TracedResult` -- which the
    supervisor unwraps *before* journalling or returning anything, so
    profiling never touches outputs.  The inline path never wraps: the
    coordinator's ambient tracer receives spans directly.
    """
    kind = None
    if plan is not None:
        kind = plan.apply(key, attempt, hard_faults)
    if not collect_spans:
        result = fn(task)
        if kind == "corrupt":
            return CorruptedPayload(task_key=key, attempt=attempt)
        return result
    with trace_mod.collect_task_spans() as collected:
        result = fn(task)
    if kind == "corrupt":
        result = CorruptedPayload(task_key=key, attempt=attempt)
    return trace_mod.TracedResult(
        value=result,
        spans=collected.spans,
        pid=os.getpid(),
        peak_rss_kb=trace_mod.peak_rss_kb(),
    )


# ----------------------------------------------------------------------
# Executors: inline and pool here, the subprocess fleet in
# repro.service.fleet.  Each has ``run_batch(fn, items, notify, label,
# run_id)``, which runs ONE attempt of the items it is given and yields
# every item's ``(index, outcome)`` exactly once, in any order -- the
# outcome is the task's value, a TaskFailed, or LOST -- and ``close()``.
# ``run_id`` names the submitting runner; only the fleet, whose workers
# outlive a run, uses it.
# Executors keep no retry state: budgets, backoff, attempt numbering,
# quarantine and degradation all live in ParallelChipRunner._supervise.


@dataclass(frozen=True)
class BatchItem:
    """One unit of executor work: batch position, content key, payload.

    ``key`` is the content digest of ``(fn, task)`` (empty when nothing
    needs it); ``attempt`` numbers this try of the item from 0, and is
    what the fault plan keys on.
    """

    index: int
    key: str
    task: Any
    attempt: int = 0


@dataclass(frozen=True)
class TaskFailed:
    """The outcome of one failed attempt, with a reason for the events."""

    reason: str
    error: Optional[BaseException] = None
    """The exception the attempt raised, when it raised in this process
    or came back from a pool worker; chained onto the final error."""
    broke_pool: bool = False
    """The executor recycled its workers over this failure (a task
    timeout): the supervisor counts it as a pool breakdown."""


#: The outcome of an item whose pool broke under it.  It may not be the
#: culprit, so it is resubmitted without being charged a failure.
LOST = object()


class _InlineBatchExecutor:
    """Runs each item in the calling process, in order."""

    def __init__(self, config: EngineConfig):
        self.plan = config.fault_plan

    def run_batch(self, fn, items, notify, label="batch", run_id=""):
        for item in items:
            try:
                outcome = _supervised_call(
                    fn, item.task, self.plan, item.key, item.attempt, False
                )
            except Exception as exc:
                outcome = TaskFailed(repr(exc), exc)
            yield item.index, outcome


#: How long the pool executor blocks waiting for completions before it
#: re-checks task deadlines.
_SUPERVISION_TICK = 0.1


class _PoolBatchExecutor:
    """Runs items on a process pool, each under the config's deadline.

    A crashed worker breaks the pool: every item still in flight comes
    back :data:`LOST`.  A task past its deadline fails with
    ``broke_pool`` set, because the only way to reclaim its worker is to
    recycle the pool.  Either way the pool is torn down, and the next
    batch starts a fresh one.
    """

    def __init__(self, config: EngineConfig, workers: int):
        self.config = config
        self.workers = workers
        self._pool: Optional[ProcessPoolExecutor] = None

    def run_batch(self, fn, items, notify, label="batch", run_id=""):
        config = self.config
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        # Decided once per batch: traced runs ask workers to collect and
        # ship their spans home alongside each result.
        collect_spans = trace_mod.tracing_active()
        pending: Dict[Any, int] = {}
        deadlines: Dict[Any, float] = {}
        lost: List[int] = []
        for item in items:
            if lost:
                lost.append(item.index)
                continue
            try:
                future = self._pool.submit(
                    _supervised_call, fn, item.task, config.fault_plan,
                    item.key, item.attempt, True, collect_spans,
                )
            except BrokenExecutor:
                lost.append(item.index)
                continue
            pending[future] = item.index
            if config.task_timeout is not None:
                deadlines[future] = time.monotonic() + config.task_timeout
        broken = bool(lost)
        while pending and not broken:
            done, _ = wait(
                list(pending), timeout=_SUPERVISION_TICK,
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                index = pending.pop(future)
                deadlines.pop(future, None)
                try:
                    outcome = future.result()
                except BrokenExecutor:
                    broken = True
                    lost.append(index)
                    continue
                except Exception as exc:
                    outcome = TaskFailed(repr(exc), exc)
                yield index, outcome
            now = time.monotonic()
            for future in [f for f, due in deadlines.items() if due <= now]:
                index = pending.pop(future)
                del deadlines[future]
                broken = True
                yield index, TaskFailed(
                    f"task timeout after {config.task_timeout:g}s",
                    broke_pool=True,
                )
        if broken:
            self.close(force=True)
            for index in sorted(pending.values()) + lost:
                yield index, LOST

    def close(self, force: bool = False) -> None:
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        if not force:
            pool.shutdown()
            return
        # A broken or hung pool: don't wait for it, and reclaim any
        # worker still grinding on a timed-out task.  ``_processes`` is
        # private, so treat the kill as best-effort.
        processes = getattr(pool, "_processes", None) or {}
        alive = list(processes.values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in alive:
            try:
                process.kill()
            except Exception:
                pass


_MISSING = object()

_RUN_IDS = itertools.count()


class ParallelChipRunner:
    """Schedules chip batches and supervises the executor that runs them.

    ``workers=1`` (or a single-item batch) runs inline in the calling
    process; results are always returned in task order, and are
    bit-identical across worker counts and backends because every task
    is deterministically seeded and self-contained.

    The runner is configured by an :class:`EngineConfig`.  :meth:`map` is the one
    supervisor over three executors (inline, process pool, subprocess
    fleet): bounded retries with deterministic backoff, pool respawn,
    per-task timeouts (pool only), poison-task quarantine (a task that
    exhausts its pool retry budget finishes inline instead), and
    graceful degradation to serial execution after repeated pool
    failures.  When the config names a ``checkpoint_dir``, every
    completed work item is recorded in that directory's task store (a
    :class:`~repro.engine.checkpoint.RunJournal` keyed by the task's
    content digest), and ``resume=True`` restores stored items instead
    of recomputing them -- none of which changes results.

    ``fleet`` lends the runner a running
    :class:`~repro.service.fleet.SubprocessFleetExecutor` (the job
    service's shared one) for its subprocess-fleet batches; the runner
    uses it but never closes it.  Without one it starts its own fleet on
    the first such batch and closes it in :meth:`close`.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        fleet: Optional[Any] = None,
    ):
        if config is None:
            config = EngineConfig()
        elif not isinstance(config, EngineConfig):
            raise TypeError(
                "ParallelChipRunner takes an EngineConfig, got "
                f"{type(config).__name__}"
            )
        self.config = config
        self.workers = config.effective_workers
        self.stats = RunnerStats()
        self._inline = _InlineBatchExecutor(config)
        self._pool = _PoolBatchExecutor(config, self.workers)
        self._fleet = fleet
        self._owns_fleet = fleet is None
        self.run_id = f"{os.getpid()}-{next(_RUN_IDS)}"
        """Names this runner's tasks on a fleet, whose workers drop their
        per-process caches when the run they serve changes."""
        self._journal = (
            RunJournal(config.checkpoint_dir, resume=config.resume)
            if config.checkpoint_dir is not None else None
        )
        self._degraded = False
        self._pool_failures = 0

    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True once repeated pool failures forced serial execution."""
        return self._degraded

    @property
    def pool_failures(self) -> int:
        """Pool breakdowns (crashes/timeouts) seen so far."""
        return self._pool_failures

    # ------------------------------------------------------------------

    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        observer: Subscriber = NULL_OBSERVER,
        label: str = "batch",
    ) -> List[Any]:
        """Run ``fn`` over ``tasks``; results come back in task order.

        ``fn`` must be a module-level callable (it crosses the process
        boundary by reference).  ``observer`` is any typed-event
        subscriber (an :class:`~repro.engine.events.EventStream`, a
        :class:`RunObserver`, or a bare callable); it sees one
        :class:`~repro.engine.events.ChipCompleted` per computed item in
        completion order, the batch lifecycle events, the robustness
        events when recovery paths fire, and -- on traced pool runs --
        one :class:`~repro.engine.events.SpansCollected` per task.
        """
        tasks = list(tasks)
        total = len(tasks)
        dispatch(observer, BatchStarted(label, total))
        start = time.perf_counter()
        journal = self._journal
        fleet = self.config.backend == SUBPROCESS_FLEET_BACKEND
        keys: Optional[List[str]] = None
        if journal is not None or self.config.fault_plan is not None or fleet:
            keys = [task_key(fn, task) for task in tasks]
        results: List[Any] = [_MISSING] * total
        if journal is not None:
            restored = 0
            with trace_mod.span("journal_restore", cat="checkpoint",
                                label=label) as restore_span:
                for index in range(total):
                    if keys[index] in journal:
                        results[index] = journal.get(keys[index])
                        restored += 1
                restore_span.set(restored=restored)
            if restored:
                self.stats.results_resumed += restored
                dispatch(observer, RunResumed(label, restored))
        items = [
            BatchItem(i, keys[i] if keys is not None else "", tasks[i])
            for i in range(total) if results[i] is _MISSING
        ]
        state = {"completed": total - len(items)}
        flushed = set()

        def finish(index: int, value: Any) -> None:
            results[index] = value
            state["completed"] += 1
            if journal is not None:
                journal.record(keys[index], value)
                flushed.add(keys[index])
            dispatch(observer, ChipCompleted(label, state["completed"], total))

        def notify(event: Any) -> None:
            if isinstance(event, TaskRetried):
                self.stats.task_retries += 1
            elif isinstance(event, WorkerRespawned):
                self.stats.worker_respawns += 1
            dispatch(observer, event)

        if fleet:
            if self._fleet is None:
                from repro.service.fleet import SubprocessFleetExecutor

                self._fleet = SubprocessFleetExecutor(self.config)
            self._supervise(self._fleet, fn, items, finish, notify, label)
        else:
            if self.workers > 1 and len(items) > 1 and not self._degraded:
                items = self._supervise(
                    self._pool, fn, items, finish, notify, label
                )
            # Quarantined tasks and the tail of a degraded run finish
            # inline, where a persistent failure surfaces as a real
            # traceback.
            self._supervise(self._inline, fn, items, finish, notify, label)
        if flushed:
            self.stats.results_checkpointed += len(flushed)
            dispatch(observer, RunCheckpointed(label, len(flushed)))
        dispatch(observer, BatchEnded(label, total,
                                      time.perf_counter() - start))
        return results

    def _supervise(
        self,
        executor: Any,
        fn: Callable[[Any], Any],
        items: List[BatchItem],
        finish: Callable[[int, Any], None],
        notify: Callable[[Any], None],
        label: str,
    ) -> List[BatchItem]:
        """The one retry loop: rounds of attempts until every item is done.

        Each round runs one attempt of every item still owed a result.
        A failed item is charged against ``max_retries`` and retried in
        the next round, once its deterministic backoff has passed; a
        lost item is retried uncharged.  An item over budget fails the
        batch with :class:`ExecutionError` -- except on the pool, which
        sets it aside (quarantine).  Returns the items set aside for
        inline execution: quarantined tasks, plus every unfinished item
        once repeated pool breakdowns degrade the run.  Every batch
        carries this runner's :attr:`run_id`; an exception raised here
        (say, a cancelling subscriber) closes the executor's batch first.
        """
        config = self.config
        failures = dict.fromkeys((item.index for item in items), 0)
        set_aside: List[BatchItem] = []
        while items:
            by_index = {item.index: item for item in items}
            retry: List[BatchItem] = []
            resume_at = 0.0
            broke = False
            with contextlib.closing(executor.run_batch(
                fn, items, notify, label, self.run_id
            )) as outcomes:
                for index, outcome in outcomes:
                    item = by_index[index]
                    if outcome is LOST:
                        broke = True
                        retry.append(replace(item, attempt=item.attempt + 1))
                        continue
                    if isinstance(outcome, trace_mod.TracedResult):
                        # Unwrap BEFORE journalling/returning: profiling
                        # data must never reach results or checkpoints.
                        notify(SpansCollected(
                            label, outcome.spans, outcome.pid,
                            outcome.peak_rss_kb,
                        ))
                        outcome = outcome.value
                    if isinstance(outcome, CorruptedPayload):
                        outcome = TaskFailed(
                            f"corrupted payload (attempt {outcome.attempt})"
                        )
                    if not isinstance(outcome, TaskFailed):
                        finish(index, outcome)
                        continue
                    broke = broke or outcome.broke_pool
                    failures[index] += 1
                    item = replace(item, attempt=item.attempt + 1)
                    if failures[index] > config.max_retries:
                        if executor is not self._pool:
                            raise ExecutionError(
                                f"task {index} of batch {label!r} failed "
                                f"{failures[index]} times; giving up: "
                                f"{outcome.reason}"
                            ) from outcome.error
                        self.stats.tasks_quarantined += 1
                        set_aside.append(item)
                        continue
                    notify(TaskRetried(label, index, failures[index],
                                       outcome.reason))
                    resume_at = max(resume_at, time.monotonic()
                                    + config.retry_backoff(failures[index]))
                    retry.append(item)
            retry.sort(key=lambda item: item.index)
            if broke:
                self._pool_failures += 1
                notify(WorkerRespawned(label, self._pool_failures))
                if self._pool_failures >= config.max_pool_failures:
                    self._degraded = True
                    return sorted(set_aside + retry,
                                  key=lambda item: item.index)
            pause = resume_at - time.monotonic()
            if pause > 0:
                time.sleep(pause)
            items = retry
        return set_aside

    def build_chips(
        self,
        tasks: Sequence[ChipBuildTask],
        observer: Subscriber = NULL_OBSERVER,
        label: str = "sample chips",
    ) -> List[Any]:
        """Realize reserved chip-build tasks: one sample per operating
        point, in task (reservation) order, then point order."""
        built = self.map(run_build_task, tasks, observer=observer, label=label)
        return [sample for samples in built for sample in samples]

    def evaluate(
        self,
        tasks: Sequence[EvalTask],
        observer: Subscriber = NULL_OBSERVER,
        label: str = "evaluate chips",
    ) -> List[Any]:
        """Run evaluation tasks; one result per task, in task order.

        After the batch completes, the replay paths taken per
        scheme x benchmark cell are aggregated and reported through one
        :class:`~repro.engine.events.KernelPathsCollected` event.
        """
        results = self.map(
            run_eval_task, tasks, observer=observer, label=label
        )
        paths: Dict[str, str] = {}
        for value in results:
            if not isinstance(value, tuple):
                continue
            for outcome in value:
                if not isinstance(outcome, SchemeOutcome):
                    continue
                for bench, path in outcome.kernel_paths:
                    paths[f"{outcome.scheme}/{bench}"] = path
        if paths:
            dispatch(observer, KernelPathsCollected(
                label, tuple(sorted(paths.items())),
            ))
        return results

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool and the runner's own fleet down.

        A later batch re-creates the pool and the fleet; the task store
        keeps every result this runner recorded.  A borrowed fleet is
        left running for its owner.
        """
        self._pool.close()
        if self._fleet is not None and self._owns_fleet:
            self._fleet.close()
            self._fleet = None

    def __enter__(self) -> "ParallelChipRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "BatchItem",
    "DEFAULT_EVALUATOR_CACHE_SIZE",
    "EvaluatorSpec",
    "EvalTask",
    "LOST",
    "SchemeOutcome",
    "ParallelChipRunner",
    "RunnerStats",
    "evaluator_for",
    "run_eval_task",
    "run_build_task",
    "TaskFailed",
]
