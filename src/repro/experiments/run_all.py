"""Regenerate every table and figure in one command.

Usage::

    python -m repro.experiments.run_all [--chips N] [--refs N] [--out DIR]
                                        [--workers N] [--no-cache]
                                        [--resume] [--checkpoint-dir DIR]

The flags are the shared engine surface from
:mod:`repro.experiments.cli`; every per-experiment ``__main__`` accepts
the same set.  Chip-level results are stored in the task store under
``OUT/.checkpoints`` as they complete, so an interrupted run (crash,
SIGKILL, Ctrl-C) restarted with ``--resume`` recomputes only what is
missing and still emits byte-identical outputs.

Writes one text report per experiment (plus a combined ``summary.txt``)
to the output directory.  The run is driven entirely by the experiment
registry (:func:`repro.engine.registry.all_experiments`): each registered
:class:`~repro.engine.registry.Experiment` supplies its own ``run`` /
``report`` pair, optional CSV exports, and optional default context
overrides, so this module carries no per-experiment special cases.

All experiments share a single :class:`ExperimentContext`, so the
Monte-Carlo chip batches and benchmark traces are sampled once and the
engine's worker pool (``--workers``) is reused across experiments.
Results are memoised in an on-disk content-keyed
:class:`~repro.engine.cache.ResultCache` (``--cache-dir``; keyed by the
package version, the experiment's source digest, and the context
fingerprint), so a re-run after editing one experiment recomputes only
that experiment.  ``summary.txt`` depends only on results -- never on
timing, worker count, or cache state -- so serial, parallel, and cached
runs emit byte-identical summaries.
"""

from __future__ import annotations

import argparse
import pathlib
import time
from typing import Optional

from repro.engine import trace as trace_mod
from repro.engine.cache import ResultCache
from repro.engine.events import (
    EventStream,
    ExperimentEnded,
    ExperimentStarted,
    RunEnded,
    RunStarted,
    dispatch,
)
from repro.engine.observer import CLIProgressReporter, JSONMetricsObserver
from repro.engine.registry import all_experiments
from repro.experiments.cli import (
    cache_from_args,
    context_from_args,
    engine_parent_parser,
)
from repro.experiments.runner import ExperimentContext
from repro.experiments.reporting import write_csv


def run_all(
    context: ExperimentContext,
    out_dir: pathlib.Path,
    csv_exports: bool = True,
    cache: Optional[ResultCache] = None,
) -> pathlib.Path:
    """Run every registered experiment; returns the combined summary path.

    The context's observer sees one
    :class:`~repro.engine.events.ExperimentEnded` per experiment (an
    attached :class:`CLIProgressReporter` prints it).  ``cache`` enables
    result reuse across invocations.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    experiments = all_experiments()
    observer = context.observer
    dispatch(observer, RunStarted(len(experiments)))
    run_start = time.perf_counter()
    summary_parts = []
    for experiment in experiments:
        dispatch(observer, ExperimentStarted(experiment.name))
        start = time.perf_counter()
        result, cached = experiment.execute(context, cache)
        text = experiment.report(result)
        elapsed = time.perf_counter() - start
        (out_dir / f"{experiment.name}.txt").write_text(text + "\n")
        if csv_exports:
            for export in experiment.csv_exports(result):
                write_csv(out_dir / export.filename, export.headers, export.rows)
        dispatch(observer, ExperimentEnded(experiment.name, elapsed, cached))
        summary_parts.append(f"{'=' * 72}\n{experiment.name}\n{'=' * 72}")
        summary_parts.append(text)
    summary_path = out_dir / "summary.txt"
    summary_path.write_text("\n\n".join(summary_parts) + "\n")
    dispatch(observer, RunEnded(time.perf_counter() - run_start))
    return summary_path


def main(argv=None) -> None:
    """CLI entry point (shared engine flags; see ``--help``)."""
    parser = argparse.ArgumentParser(
        description="Regenerate all paper tables and figures.",
        parents=[engine_parent_parser()],
    )
    parser.set_defaults(out=pathlib.Path("results"))
    args = parser.parse_args(argv)
    cache = cache_from_args(args)
    metrics_path = args.metrics or args.out / "metrics.json"
    tracer = trace_mod.Tracer() if args.trace is not None else None
    stream = EventStream([CLIProgressReporter()])
    if tracer is not None:
        # Subscribed before the metrics observer so the run span is
        # closed by the time the per-phase table is written out.
        stream.subscribe(tracer)
    stream.subscribe(JSONMetricsObserver(metrics_path, tracer=tracer))
    context = context_from_args(args, observer=stream)
    try:
        with trace_mod.activate(tracer):
            summary = run_all(context, args.out, cache=cache)
    finally:
        context.close()
    if tracer is not None:
        trace_path = tracer.to_chrome(args.trace)
        print(f"trace written to {trace_path}")
    print(f"combined report: {summary}")


if __name__ == "__main__":
    main()
