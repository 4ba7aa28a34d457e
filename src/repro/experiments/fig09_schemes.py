"""Figure 9: the eight line-level schemes on the good/median/bad chips.

Severe variation.  The paper's findings, all checked by this driver:

* LRU-only schemes suffer most on the bad chip (dead-line references);
* partial-refresh buys 1-2% over no-refresh;
* full-refresh gives some of it back (port blocking);
* the RSP placements (intrinsic refresh) perform best.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.schemes import LINE_LEVEL_SCHEMES, RetentionScheme
from repro.core.yieldmodel import YieldModel
from repro.engine.parallel import EvalTask
from repro.engine.registry import Experiment, register_experiment
from repro.experiments.runner import ExperimentContext
from repro.experiments.reporting import format_table

CHIP_LABELS: Tuple[str, str, str] = ("good", "median", "bad")


@dataclass(frozen=True)
class Fig09Result:
    """Normalized performance of every scheme on the three chips."""

    performance: Dict[str, Dict[str, float]]
    """scheme name -> chip label -> normalized performance."""
    power: Dict[str, Dict[str, float]]
    """scheme name -> chip label -> normalized dynamic power."""


def run(
    context: Optional[ExperimentContext] = None,
    schemes: Tuple[RetentionScheme, ...] = LINE_LEVEL_SCHEMES,
) -> Fig09Result:
    """Regenerate Figure 9 at the context's Monte-Carlo scale."""
    context = context or ExperimentContext()
    good, median, bad = YieldModel(context.chips_3t1d("severe")).pick_good_median_bad()
    chips = {"good": good, "median": median, "bad": bad}
    spec = context.evaluator_spec()
    # One task per chip, all schemes batched through evaluate_many.
    labels = list(chips)
    scheme_names = tuple(scheme.name for scheme in schemes)
    tasks = [
        EvalTask(evaluator=spec, chip=chips[label], schemes=scheme_names)
        for label in labels
    ]
    outcomes = context.runner.evaluate(
        tasks, observer=context.observer, label="fig09: schemes x chips"
    )
    performance: Dict[str, Dict[str, float]] = {s.name: {} for s in schemes}
    power: Dict[str, Dict[str, float]] = {s.name: {} for s in schemes}
    for label, chip_outcomes in zip(labels, outcomes):
        for outcome in chip_outcomes:
            performance[outcome.scheme][label] = outcome.normalized_performance
            power[outcome.scheme][label] = outcome.dynamic_power_normalized
    return Fig09Result(performance=performance, power=power)


def report(result: Fig09Result) -> str:
    """Scheme x chip performance table."""
    headers = ["scheme"] + [f"{label} perf" for label in CHIP_LABELS] + [
        f"{label} pwr" for label in CHIP_LABELS
    ]
    rows: List[List[str]] = []
    for scheme, by_chip in result.performance.items():
        row = [scheme]
        row += [f"{by_chip[label]:.3f}" for label in CHIP_LABELS]
        row += [f"{result.power[scheme][label]:.2f}" for label in CHIP_LABELS]
        rows.append(row)
    return format_table(
        headers, rows,
        title="Figure 9: normalized performance of retention schemes "
        "(severe variation)",
    )


EXPERIMENT = register_experiment(Experiment(
    name="fig09_schemes",
    run=run,
    report=report,
    module=__name__,
))


def main(argv=None) -> None:
    """Regenerate and print Figure 9 (shared engine CLI flags)."""
    EXPERIMENT.cli(argv)


if __name__ == "__main__":
    main()
