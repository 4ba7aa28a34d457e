"""Shared command-line surface for every experiment entry point.

``run_all`` and each per-experiment ``__main__`` used to grow their own
flag sets; this module gives them one argparse *parent parser* so the
whole engine surface -- ``--chips/--refs/--seed/--workers/--cache-dir/
--no-cache/--metrics/--out`` plus the robustness layer's
``--resume/--checkpoint-dir/--task-timeout/--max-retries/
--inject-faults`` -- is spelled identically everywhere::

    python -m repro.experiments.run_all --workers 8 --resume --out results
    python -m repro.experiments.fig10_hundred_chips --workers 8 --resume \
        --out results

:func:`engine_config_from_args` and :func:`context_from_args` turn the
parsed namespace into the :class:`~repro.engine.config.EngineConfig` /
:class:`~repro.experiments.runner.ExperimentContext` pair, and
:func:`experiment_main` is the uniform driver behind every registered
experiment's ``main()``.
"""

from __future__ import annotations

import argparse
import pathlib
import time
from typing import Optional, Sequence, Union

from repro.engine import trace as trace_mod
from repro.engine.cache import ResultCache, resolve_cache
from repro.engine.config import (
    EXECUTION_BACKENDS,
    EngineConfig,
    LOCAL_BACKEND,
)
from repro.engine.events import (
    EventStream,
    ExperimentEnded,
    ExperimentStarted,
    RunEnded,
    RunStarted,
    Subscriber,
)
from repro.engine.faults import FaultPlan
from repro.engine.observer import JSONMetricsObserver, NULL_OBSERVER
from repro.engine.registry import Experiment, get_experiment
from repro.errors import ConfigurationError
from repro.array.geometry import CacheGeometry
from repro.technology.backends import backend_names
from repro.experiments.runner import ExperimentContext
from repro.experiments.reporting import write_csv


def engine_parent_parser() -> argparse.ArgumentParser:
    """The shared flags, as an argparse parent (``add_help=False``).

    Compose with ``argparse.ArgumentParser(parents=[...])`` and override
    defaults per entry point with ``parser.set_defaults(...)``.
    """
    parent = argparse.ArgumentParser(add_help=False)
    scale = parent.add_argument_group("scale")
    scale.add_argument(
        "--chips", type=int, default=60,
        help="Monte-Carlo chips per scenario (paper scale: 100)",
    )
    scale.add_argument(
        "--refs", type=int, default=8000,
        help="trace references per benchmark",
    )
    scale.add_argument("--seed", type=int, default=2007)
    scale.add_argument(
        "--technology", type=str, default="3t1d",
        choices=backend_names(), metavar="BACKEND",
        help="technology backend to sample chips with "
        f"(one of: {', '.join(backend_names())}; default: 3t1d)",
    )
    scale.add_argument(
        "--geometry", type=str, default=None, metavar="SIZEKB:WAYS[:BANKS]",
        help="L1 organisation to study instead of the paper's 64KB "
        "4-way point, e.g. '128:2' or '256:8:16'; dependent fields "
        "derive via CacheGeometry.from_capacity",
    )
    engine = parent.add_argument_group("engine")
    engine.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for chip batches (1 = serial; results "
        "are bit-identical at any width)",
    )
    engine.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="output directory for reports and csv exports",
    )
    engine.add_argument(
        "--cache-dir", type=pathlib.Path, default=None,
        help="result-cache directory (default: OUT/.cache)",
    )
    engine.add_argument(
        "--no-cache", action="store_true",
        help="recompute everything, ignoring the result cache",
    )
    engine.add_argument(
        "--metrics", type=pathlib.Path, default=None,
        help="timing/robustness metrics JSON path "
        "(default: OUT/metrics.json)",
    )
    engine.add_argument(
        "--backend", default=LOCAL_BACKEND, choices=EXECUTION_BACKENDS,
        help="execution backend for chip batches: 'local' (inline, or a "
        "process pool with --workers > 1; the default) or "
        "'subprocess-fleet' (persistent worker processes over a durable "
        "on-disk queue).  One supervisor retries failed tasks on either; "
        "results are bit-identical across backends",
    )
    engine.add_argument(
        "--fleet-size", type=int, default=None,
        help="worker processes in a subprocess fleet "
        "(default: --workers)",
    )
    engine.add_argument(
        "--trace", type=pathlib.Path, default=None, metavar="PATH",
        help="profile the run and write a Chrome trace_event JSON "
        "(load in chrome://tracing or Perfetto); outputs stay "
        "bit-identical to an untraced run",
    )
    robustness = parent.add_argument_group("robustness")
    robustness.add_argument(
        "--checkpoint-dir", type=pathlib.Path, default=None,
        help="task-store directory for chip-level checkpoints, one "
        "results/ entry per completed task (default: OUT/.checkpoints)",
    )
    robustness.add_argument(
        "--resume", action="store_true",
        help="restore every completed task already in the task store "
        "(without it, a run recomputes and replaces earlier entries)",
    )
    robustness.add_argument(
        "--task-timeout", type=float, default=None,
        help="seconds a pooled task may run before it is failed, "
        "retried, and its worker recycled",
    )
    robustness.add_argument(
        "--max-retries", type=int, default=2,
        help="failures a task may accumulate before quarantine",
    )
    robustness.add_argument(
        "--inject-faults", type=str, default=None, metavar="SPEC",
        help="seeded fault injection, e.g. 'seed=7,crash=0.2' "
        "(testing only; outputs stay bit-identical)",
    )
    return parent


def checkpoint_dir_from_args(
    args: argparse.Namespace,
) -> Optional[pathlib.Path]:
    """Where this invocation journals chip results, if anywhere."""
    if args.checkpoint_dir is not None:
        return args.checkpoint_dir
    if args.out is not None:
        return args.out / ".checkpoints"
    return None


def engine_config_from_args(args: argparse.Namespace) -> EngineConfig:
    """The :class:`EngineConfig` a parsed shared namespace describes."""
    checkpoint_dir = checkpoint_dir_from_args(args)
    if args.resume and checkpoint_dir is None:
        raise SystemExit(
            "--resume needs a journal: pass --checkpoint-dir or --out"
        )
    fault_plan = (
        FaultPlan.from_spec(args.inject_faults)
        if args.inject_faults else None
    )
    return EngineConfig(
        workers=args.workers,
        cache_dir=args.cache_dir,
        checkpoint_dir=checkpoint_dir,
        resume=args.resume,
        task_timeout=args.task_timeout,
        max_retries=args.max_retries,
        fault_plan=fault_plan,
        backend=getattr(args, "backend", LOCAL_BACKEND),
        fleet_size=getattr(args, "fleet_size", None),
    )


def parse_geometry_spec(spec: Optional[str]) -> Optional[CacheGeometry]:
    """Parse a ``--geometry SIZEKB:WAYS[:BANKS]`` flag value.

    ``None`` (flag absent) stays ``None`` -- the paper's default
    geometry, with every historical cache key intact.
    """
    if spec is None:
        return None
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise SystemExit(
            f"--geometry expects SIZEKB:WAYS[:BANKS], got {spec!r}"
        )
    try:
        size_kb, ways = int(parts[0]), int(parts[1])
        banks = int(parts[2]) if len(parts) == 3 else None
    except ValueError:
        raise SystemExit(
            f"--geometry fields must be integers, got {spec!r}"
        ) from None
    try:
        return CacheGeometry.from_capacity(size_kb * 1024, ways, banks=banks)
    except ConfigurationError as exc:
        raise SystemExit(f"--geometry {spec!r}: {exc}") from None


def context_from_args(
    args: argparse.Namespace,
    observer: Subscriber = NULL_OBSERVER,
) -> ExperimentContext:
    """The experiment context a parsed shared namespace describes."""
    return ExperimentContext(
        n_chips=args.chips,
        n_references=args.refs,
        seed=args.seed,
        technology=getattr(args, "technology", "3t1d"),
        geometry=parse_geometry_spec(getattr(args, "geometry", None)),
        engine=engine_config_from_args(args),
        observer=observer,
    )


def cache_from_args(args: argparse.Namespace) -> Optional[ResultCache]:
    """The result cache this invocation should use (shared policy)."""
    return resolve_cache(
        out_dir=args.out,
        cache_dir=args.cache_dir,
        enabled=not args.no_cache,
    )


def experiment_main(
    experiment: Union[Experiment, str],
    argv: Optional[Sequence[str]] = None,
) -> None:
    """Uniform CLI driver for one registered experiment.

    Parses the shared engine flags, runs the experiment through the same
    cached :meth:`~repro.engine.registry.Experiment.execute` path
    ``run_all`` uses, prints the paper-style report, and (with ``--out``)
    writes the text report and csv exports next to ``run_all``'s.
    """
    # Resolve by name so a module executed as ``__main__`` still uses
    # its canonical registration (and cache/source digests).
    name = experiment if isinstance(experiment, str) else experiment.name
    experiment = get_experiment(name)
    parser = argparse.ArgumentParser(
        description=f"Regenerate {name} (shared engine flags).",
        parents=[engine_parent_parser()],
    )
    args = parser.parse_args(argv)
    metrics_path = args.metrics
    if metrics_path is None and args.out is not None:
        metrics_path = args.out / f"{name}_metrics.json"
    tracer = trace_mod.Tracer() if args.trace is not None else None
    stream = EventStream()
    if tracer is not None:
        # Subscribed before the metrics observer so the run span is
        # closed by the time the per-phase table is written out.
        stream.subscribe(tracer)
    if metrics_path is not None:
        stream.subscribe(JSONMetricsObserver(metrics_path, tracer=tracer))
    context = context_from_args(args, observer=stream)
    cache = cache_from_args(args)
    with trace_mod.activate(tracer):
        stream.emit(RunStarted(1))
        stream.emit(ExperimentStarted(name))
        start = time.perf_counter()
        try:
            result, cached = experiment.execute(context, cache)
        finally:
            context.close()
        elapsed = time.perf_counter() - start
        stream.emit(ExperimentEnded(name, elapsed, cached))
        stream.emit(RunEnded(elapsed))
    if tracer is not None:
        trace_path = tracer.to_chrome(args.trace)
        print(f"trace written to {trace_path}")
    text = experiment.report(result)
    print(text)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / f"{name}.txt").write_text(text + "\n")
        for export in experiment.csv_exports(result):
            write_csv(args.out / export.filename, export.headers, export.rows)


__all__ = [
    "cache_from_args",
    "checkpoint_dir_from_args",
    "context_from_args",
    "engine_config_from_args",
    "engine_parent_parser",
    "experiment_main",
    "parse_geometry_spec",
]
