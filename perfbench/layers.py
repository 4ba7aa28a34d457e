"""Per-layer spans recorded from outside the program.

The traced run wraps the public entry points of each layer with timing
spans.  A span's *self time* is its duration minus the time of the wrapped
spans nested inside it, so the self times of all layers add up to the
wrapped share of the wall clock and ``unattributed`` is the rest.

Nothing here edits the program: :class:`Patches` replaces attributes on
the program's classes and modules and puts the originals back on
:meth:`Patches.restore`.  A target that no longer exists is skipped and
reported by name, so a refactor shows up as a missing layer instead of a
crash.

Replays are counted by a lighter wrapper, :class:`SimCounter`, that also
runs in untraced rounds: it sums the :class:`~repro.cache.stats.CacheStats`
every replay returns (the exact simulated counts) and keeps a few replays
for the correctness spot check against the event controller.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Per-layer self-time keys, in report order.
LAYERS: Tuple[str, ...] = (
    "array.chip.build",
    "technology.backends.retention_map",
    "workloads.generator.trace",
    "core.batcheval.artifacts",
    "core.batcheval.flattened",
    "core.timeline.replay",
    "core.event.replay",
    "core.evaluation.self",
    "cpu.perfmodel.estimate",
    "array.power.self",
    "engine.parallel.overhead",
    "engine.checkpoint.record",
    "engine.cache.get",
    "engine.cache.put",
    "service.api.submit",
    "service.fleet.batch",
    "experiments.report",
)

#: Counters the wrappers keep, in report order.
COUNT_KEYS: Tuple[str, ...] = (
    "array.chip.chips",
    "technology.backends.retention_maps",
    "workloads.generator.traces",
    "workloads.generator.refs",
    "core.batcheval.artifacts",
    "core.evaluation.baselines",
    "cpu.perfmodel.estimates",
    "array.power.calls",
    "engine.parallel.tasks",
    "engine.checkpoint.records",
    "engine.checkpoint.restored",
    "engine.cache.gets",
    "engine.cache.hits",
    "service.queue.enqueued",
)

#: Simulated-statistics fields summed over every replay (``core.sim.*``).
SIM_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("misses", "misses"),
    ("expired_misses", "misses_expired"),
    ("line_refreshes", "line_refreshes"),
    ("l2_accesses", "l2_accesses"),
)

#: Replay paths and the layer each one is timed under.
PATH_LAYERS: Dict[str, str] = {
    "flattened": "core.batcheval.flattened",
    "timeline": "core.timeline.replay",
    "event": "core.event.replay",
}

#: Which replays of each path the spot check re-runs on the controller.
SPOT_CHECK_INDICES = frozenset({0, 10, 100, 1000})


class Recorder:
    """Span stacks per thread plus shared self-time and count totals."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.runner_retries: Dict[int, int] = {}
        """Latest cumulative task-retry count per runner seen."""
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> None:
        """Open a span of ``layer`` on the calling thread."""
        self._stack().append([layer, self.clock(), 0.0])

    def exit(self) -> str:
        """Close the innermost span; returns the enclosing layer or ''."""
        stack = self._stack()
        layer, start, nested = stack.pop()
        duration = self.clock() - start
        with self._lock:
            self.self_s[layer] += duration - nested
        if stack:
            stack[-1][2] += duration
            return stack[-1][0]
        return ""

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name``."""
        with self._lock:
            self.counts[name] += n

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Context-manager form of :meth:`enter` / :meth:`exit`."""
        self.enter(layer)
        try:
            yield
        finally:
            self.exit()


def timed(
    recorder: Recorder,
    layer: str,
    fn: Callable,
    on_result: Optional[Callable[[tuple, Any], None]] = None,
) -> Callable:
    """``fn`` inside a ``layer`` span.

    ``on_result(args, result)`` runs after the span closes, and only for
    the outermost span of ``layer``, so a layer that calls itself
    (``ShardedResultCache.get`` -> ``ResultCache.get``) counts once.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            parent = recorder.exit()
        if on_result is not None and parent != layer:
            on_result(args, result)
        return result

    return wrapper


def timed_generator(recorder: Recorder, layer: str, fn: Callable) -> Callable:
    """A generator function whose every resumption is a ``layer`` span,
    so the time its consumer spends between items is not charged to it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            recorder.enter(layer)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                recorder.exit()
            yield item

    return wrapper


def counted(fn: Callable, on_result: Callable[[tuple, Any], None]) -> Callable:
    """``fn`` with a count hook and no span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        on_result(args, result)
        return result

    return wrapper


class Patches:
    """Attribute replacements that can be undone exactly."""

    def __init__(self) -> None:
        self.saved: List[Tuple[Any, str, Any]] = []
        self.missing: List[str] = []

    def wrap(self, owner: Any, name: str, factory: Callable) -> None:
        """Replace ``owner.name`` with ``factory(original)``.

        Keeps ``classmethod``/``staticmethod`` descriptors intact; a
        missing attribute is recorded in :attr:`missing` instead.
        """
        raw = (
            owner.__dict__.get(name) if inspect.isclass(owner)
            else getattr(owner, name, None)
        )
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{name}")
            return
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(factory(raw.__func__))
        else:
            replacement = factory(raw)
        self.saved.append((owner, name, raw))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self.saved:
            owner, name, raw = self.saved.pop()
            setattr(owner, name, raw)


class SimCounter:
    """Counts replays per path and sums their simulated statistics."""

    def __init__(self, recorder: Optional[Recorder] = None):
        self.recorder = recorder
        self.replays: Dict[str, int] = defaultdict(int)
        self.refs: Dict[str, int] = defaultdict(int)
        self.sim: Dict[str, int] = {key: 0 for key, _ in SIM_FIELDS}
        self.kept: List[Tuple[str, Any, Any, Any]] = []
        """``(path, fresh cache, artifacts, stats)`` for the spot check."""
        self._lock = threading.Lock()

    def _run(self, path: str, fn: Callable, *args, **kwargs) -> Any:
        if self.recorder is None:
            return fn(*args, **kwargs)
        self.recorder.enter(PATH_LAYERS[path])
        try:
            return fn(*args, **kwargs)
        finally:
            self.recorder.exit()

    def _record(self, path: str, n_refs: int, stats: Any) -> bool:
        with self._lock:
            index = self.replays[path]
            self.replays[path] += 1
            self.refs[path] += n_refs
            for key, field in SIM_FIELDS:
                self.sim[key] += getattr(stats, field)
        return index in SPOT_CHECK_INDICES

    def wrap_simulate(self, fn: Callable) -> Callable:
        """Wrapper for ``simulate_trace`` (every module that binds it)."""
        from repro.core.batcheval import kernel_support

        @functools.wraps(fn)
        def simulate_trace(cache, artifacts):
            path = kernel_support(cache).path
            stats = self._run(path, fn, cache, artifacts)
            if self._record(path, len(artifacts), stats):
                with self._lock:
                    self.kept.append((path, cache, artifacts, stats))
            return stats

        return simulate_trace

    def wrap_event(self, fn: Callable) -> Callable:
        """Wrapper for ``RetentionAwareCache.run_trace`` (event path)."""

        @functools.wraps(fn)
        def run_trace(cache, cycles, *args, **kwargs):
            stats = self._run("event", fn, cache, cycles, *args, **kwargs)
            self._record("event", len(cycles), stats)
            return stats

        return run_trace

    def install(self, patches: Patches) -> None:
        """Count replays on every path."""
        from repro.cache.controller import RetentionAwareCache
        from repro.core import batcheval, evaluation

        # evaluation binds simulate_trace by name at import, so both
        # module attributes need the wrapper.
        patches.wrap(batcheval, "simulate_trace", self.wrap_simulate)
        patches.wrap(evaluation, "simulate_trace", self.wrap_simulate)
        patches.wrap(RetentionAwareCache, "run_trace", self.wrap_event)

    def summary(self) -> Dict[str, int]:
        """Replay/reference counts per path plus the ``core.sim.*`` sums."""
        out = {
            "core.batcheval.flattened_replays": self.replays["flattened"],
            "core.batcheval.flattened_refs": self.refs["flattened"],
            "core.timeline.replays": self.replays["timeline"],
            "core.timeline.refs": self.refs["timeline"],
            "core.batcheval.event_replays": self.replays["event"],
            "core.sim.refs": sum(self.refs.values()),
        }
        for key, _ in SIM_FIELDS:
            out[f"core.sim.{key}"] = self.sim[key]
        return out

    def spot_check(self) -> List[str]:
        """Re-run the kept replays on the event controller; mismatches.

        ``RetentionAwareCache.run_trace`` is the semantic authority every
        replay kernel must equal field by field.  Call it after
        :meth:`Patches.restore` so these replays are not counted.
        """
        mismatches = []
        for path, cache, artifacts, stats in self.kept:
            addresses = [
                tag * artifacts.n_sets + s
                for tag, s in zip(artifacts.tags, artifacts.set_indices)
            ]
            expected = cache.run_trace(
                artifacts.cycles, addresses, artifacts.is_write,
                warmup_references=artifacts.warmup_references,
            )
            if dataclasses.asdict(expected) != dataclasses.asdict(stats):
                mismatches.append(f"{path} replay of {artifacts.name}")
        return mismatches


class UnitTimer:
    """Wall and CPU seconds of each outermost unit of work, in call order.

    A unit is one chip draw, one trace generation or one replay -- short
    pieces, milliseconds to a tenth of a second each.  Serial rounds of
    one seed make the same calls in the same order, so ``run.py`` can
    take each unit's fastest round.
    """

    def __init__(self) -> None:
        self.wall: List[float] = []
        self.cpu: List[float] = []
        self._depth = 0

    def wrap(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._depth += 1
            start, cpu_start = time.perf_counter(), time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.wall.append(time.perf_counter() - start)
                    self.cpu.append(time.process_time() - cpu_start)

        return wrapper

    def install(self, patches: Patches) -> None:
        """Time every unit; install after :meth:`SimCounter.install`."""
        from repro.array.chip import ChipBuildTask, ChipSampler
        from repro.core import batcheval, evaluation
        from repro.workloads.generator import SyntheticWorkload

        patches.wrap(ChipBuildTask, "build", self.wrap)
        for name in ("sample_3t1d_chip", "sample_sram_chip"):
            patches.wrap(ChipSampler, name, self.wrap)
        patches.wrap(SyntheticWorkload, "memory_trace", self.wrap)
        patches.wrap(batcheval, "simulate_trace", self.wrap)
        patches.wrap(evaluation, "simulate_trace", self.wrap)


def install_layers(
    recorder: Recorder, counter: SimCounter, patches: Patches
) -> None:
    """Wrap every layer's entry points (see the README's layer map)."""
    from repro.array.chip import ChipBuildTask, ChipSampler
    from repro.array.power import CachePowerModel
    from repro.core.architecture import IdealCacheArchitecture
    from repro.core.batcheval import TraceArtifacts
    from repro.core.evaluation import Evaluator
    from repro.cpu.perfmodel import AnalyticCPUModel
    from repro.engine.cache import ResultCache, ShardedResultCache
    from repro.engine.checkpoint import RunJournal
    from repro.engine.parallel import ParallelChipRunner
    from repro.service.api import ExecutionService
    from repro.service.fleet import SubprocessFleetExecutor
    from repro.service.queue import DurableTaskQueue
    from repro.technology.backends import TechnologyBackend
    from repro.workloads.generator import SyntheticWorkload

    def span(layer, on_result=None):
        return lambda fn: timed(recorder, layer, fn, on_result)

    def count(name, amount=lambda args, result: 1):
        return lambda args, result: recorder.count(name, amount(args, result))

    chips = count("array.chip.chips")
    patches.wrap(ChipBuildTask, "build", span("array.chip.build", chips))
    # fig12 samples chips directly, outside the runner's build tasks.
    for name in ("sample_3t1d_chip", "sample_sram_chip"):
        patches.wrap(ChipSampler, name, span("array.chip.build", chips))
    for backend in _subclasses(TechnologyBackend):
        if "sample_retention_map" in backend.__dict__:
            patches.wrap(backend, "sample_retention_map", span(
                "technology.backends.retention_map",
                count("technology.backends.retention_maps"),
            ))

    def trace_counts(args, trace):
        recorder.count("workloads.generator.traces")
        recorder.count("workloads.generator.refs", len(trace))

    patches.wrap(SyntheticWorkload, "memory_trace",
                 span("workloads.generator.trace", trace_counts))
    patches.wrap(TraceArtifacts, "from_trace", span(
        "core.batcheval.artifacts", count("core.batcheval.artifacts"),
    ))
    counter.install(patches)
    patches.wrap(Evaluator, "evaluate", span("core.evaluation.self"))
    # A baseline is replayed exactly when the evaluator builds an ideal
    # cache for a (benchmark, ways) pair it has not seen yet.
    patches.wrap(IdealCacheArchitecture, "build_cache", lambda fn: counted(
        fn, count("core.evaluation.baselines"),
    ))
    for name in ("estimate", "estimate_global_refresh"):
        patches.wrap(AnalyticCPUModel, name, span(
            "cpu.perfmodel.estimate", count("cpu.perfmodel.estimates"),
        ))
    for name in ("event_dynamic_power", "global_refresh_power"):
        patches.wrap(CachePowerModel, name, span(
            "array.power.self", count("array.power.calls"),
        ))

    def map_counts(args, result):
        runner = args[0]
        recorder.count("engine.parallel.tasks", len(result))
        recorder.runner_retries[id(runner)] = runner.stats.task_retries

    patches.wrap(ParallelChipRunner, "map",
                 span("engine.parallel.overhead", map_counts))
    patches.wrap(RunJournal, "record", span(
        "engine.checkpoint.record",
        count("engine.checkpoint.records", lambda args, stored: int(stored)),
    ))
    # The runner reads a journal entry only to restore a finished task.
    patches.wrap(RunJournal, "get", lambda fn: counted(
        fn, count("engine.checkpoint.restored"),
    ))

    def cache_get(args, value):
        recorder.count("engine.cache.gets")
        recorder.count("engine.cache.hits", int(value is not None))

    for cache_cls in (ResultCache, ShardedResultCache):
        patches.wrap(cache_cls, "get", span("engine.cache.get", cache_get))
        patches.wrap(cache_cls, "put", span("engine.cache.put"))
    patches.wrap(ExecutionService, "submit", span("service.api.submit"))
    patches.wrap(SubprocessFleetExecutor, "run_batch", lambda fn: (
        timed_generator(recorder, "service.fleet.batch", fn)
    ))
    patches.wrap(DurableTaskQueue, "enqueue", lambda fn: counted(
        fn, count("service.queue.enqueued", lambda args, new: int(new)),
    ))


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def layer_report(
    recorder: Recorder, counter: SimCounter, wall_s: float
) -> Dict[str, float]:
    """Self seconds per layer, counts, and the derived ratios.

    ``wall_s`` is the traced wall time of the thread the spans cover.
    """
    out: Dict[str, float] = {
        f"{layer}_s": recorder.self_s.get(layer, 0.0) for layer in LAYERS
    }
    out["unattributed_s"] = wall_s - sum(recorder.self_s.values())
    out.update({key: recorder.counts.get(key, 0) for key in COUNT_KEYS})
    out["engine.parallel.retries"] = sum(recorder.runner_retries.values())
    out.update(counter.summary())
    replays = sum(counter.replays.values())
    out["core.batcheval.fast_path_coverage"] = (
        1.0 - counter.replays["event"] / replays if replays else 1.0
    )
    for path, key in (("flattened", "core.batcheval.flattened_us_per_ref"),
                      ("timeline", "core.timeline.us_per_ref")):
        refs = counter.refs[path]
        seconds = recorder.self_s.get(PATH_LAYERS[path], 0.0)
        out[key] = seconds / refs * 1e6 if refs else 0.0
    gets = out["engine.cache.gets"]
    out["engine.cache.hit_ratio"] = (
        out["engine.cache.hits"] / gets if gets else 0.0
    )
    return out
