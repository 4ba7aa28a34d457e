"""Wall-clock gates the rest of the suite cannot hold.

Two timing bounds on the Figure 10 workload shape, seed 2007:

* the batched kernels evaluate 4 severe-variation chips x the headline
  schemes at 20,000 references at least 5x faster than the event
  controller (``Evaluator(use_batch_kernel=False)``);
* tracing costs under 2% wall clock on fig10 at 4 chips x 8,000
  references: the median, over 8 untraced/traced pairs run in ABBA
  order on one warmed context, of each pair's overhead.  Pairing the
  runs cancels the slow drifts of a shared host that a comparison of
  minima picks up.

Both paths' results are held equal elsewhere (``TestBitIdentity`` in
``tests/core/test_batcheval.py`` and
``test_fig10_identical_with_and_without_tracing`` in
``tests/engine/test_tracing.py``); these tests only time them.  Run::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_gates.py --benchmark-disable -q
"""

import statistics
import time

from repro.array.chip import ChipSampler
from repro.core.architecture import Cache3T1DArchitecture
from repro.core.evaluation import Evaluator
from repro.core.schemes import HEADLINE_SCHEMES
from repro.engine import trace as trace_mod
from repro.engine.registry import get_experiment
from repro.errors import ChipDiscardedError
from repro.experiments.runner import ExperimentContext
from repro.technology.node import NODE_32NM
from repro.variation.parameters import VariationParams

SEED = 2007
MIN_SUITE_SPEEDUP = 5.0
MAX_TRACING_OVERHEAD_PCT = 2.0
TRACING_PAIRS = 8


def _time_suite(evaluator, chips):
    start = time.perf_counter()
    for chip in chips:
        for scheme in HEADLINE_SCHEMES:
            try:
                evaluator.evaluate(
                    Cache3T1DArchitecture(chip, scheme, config=evaluator.config)
                )
            except ChipDiscardedError:
                pass
    return time.perf_counter() - start


def test_batched_kernels_at_least_5x_faster_than_controller():
    chips = ChipSampler(
        NODE_32NM, VariationParams.severe(), seed=SEED
    ).sample_3t1d_chips(4)
    kernel = Evaluator(NODE_32NM, n_references=20000, seed=SEED)
    controller = Evaluator(
        NODE_32NM, n_references=20000, seed=SEED, use_batch_kernel=False
    )
    # Traces, trace artifacts and baselines are built outside the timed
    # region, so only the replays are compared.
    for evaluator in (kernel, controller):
        for bench in evaluator.benchmarks:
            evaluator.baseline_stats(bench)
    for bench in kernel.benchmarks:
        kernel.trace_artifacts(bench, kernel.config.geometry.n_sets)

    controller_s = _time_suite(controller, chips)
    kernel_s = _time_suite(kernel, chips)
    speedup = controller_s / kernel_s
    print(
        f"controller {controller_s:.2f}s  kernel {kernel_s:.2f}s  "
        f"{speedup:.2f}x"
    )
    assert speedup >= MIN_SUITE_SPEEDUP, (controller_s, kernel_s)


def test_tracing_costs_under_2_percent_on_fig10():
    experiment = get_experiment("fig10_hundred_chips")
    context = ExperimentContext(n_chips=4, n_references=8000, seed=SEED)
    tracer = trace_mod.Tracer()

    def run_once(active):
        start = time.perf_counter()
        with trace_mod.activate(active):
            experiment.execute(context, None)
        return time.perf_counter() - start

    overheads_pct = []
    try:
        run_once(None)  # builds the chips, traces and caches once
        for pair in range(TRACING_PAIRS):
            # ABBA: every other pair runs the traced run first.
            if pair % 2:
                traced_s = run_once(tracer)
                untraced_s = run_once(None)
            else:
                untraced_s = run_once(None)
                traced_s = run_once(tracer)
            overheads_pct.append((traced_s - untraced_s) / untraced_s * 100.0)
    finally:
        context.close()
    overhead_pct = statistics.median(overheads_pct)
    print("per-pair overhead " + " ".join(f"{o:+.2f}%" for o in overheads_pct)
          + f"  median {overhead_pct:+.2f}%")
    assert tracer.spans(), "the traced runs recorded no spans"
    assert overhead_pct < MAX_TRACING_OVERHEAD_PCT, overheads_pct
