"""Figure 6: typical variation -- 6T frequency vs. 3T1D retention.

(a) Normalized frequency (performance) distribution of 1X and 2X 6T
    chips: most 1X chips lose 10-20%; 2X recovers much of it at 4x the
    cell area.
(b) 3T1D chips under the global refresh scheme: the retention-time
    histogram (the paper's 476-3094 ns spread), performance vs. retention
    (mean and worst-case benchmark), and the dynamic power split into
    normal operation + refresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro import units
from repro.variation.statistics import normalized_histogram
from repro.core.schemes import SCHEME_GLOBAL
from repro.engine.parallel import EvalTask
from repro.engine.registry import Experiment, register_experiment
from repro.experiments.runner import ExperimentContext
from repro.experiments.reporting import format_histogram, format_table

FREQUENCY_BIN_EDGES = np.arange(0.7625, 1.0876, 0.025)
FREQUENCY_BIN_LABELS = [f"{c:.3f}" for c in np.arange(0.775, 1.076, 0.025)]

RETENTION_BIN_EDGES_NS = np.arange(476.0, 3095.0 + 238.0, 238.0)
RETENTION_BIN_LABELS = [f"{int(e)}ns" for e in RETENTION_BIN_EDGES_NS[:-1]]


@dataclass(frozen=True)
class GlobalSchemePoint:
    """One operable 3T1D chip under the global refresh scheme."""

    chip_id: int
    retention_ns: float
    mean_performance: float
    worst_benchmark: str
    worst_performance: float
    normal_dynamic_power: float
    refresh_dynamic_power: float

    @property
    def total_dynamic_power(self) -> float:
        """Normal + refresh dynamic power, normalized to ideal 6T."""
        return self.normal_dynamic_power + self.refresh_dynamic_power


@dataclass(frozen=True)
class Fig06Result:
    """Both panels of Figure 6."""

    frequency_histogram_1x: np.ndarray
    frequency_histogram_2x: np.ndarray
    retention_histogram: np.ndarray
    points: List[GlobalSchemePoint]
    discard_rate: float

    def chips_within_2pct(self) -> float:
        """Fraction of operable chips losing < 2% (paper: ~97%)."""
        if not self.points:
            return 0.0
        return float(
            np.mean([p.mean_performance >= 0.98 for p in self.points])
        )


def run(context: Optional[ExperimentContext] = None) -> Fig06Result:
    """Regenerate Figure 6 at the context's Monte-Carlo scale."""
    context = context or ExperimentContext()

    sram = context.chips_sram_batches((("typical", 1.0), ("typical", 2.0)))
    freq_1x = [c.normalized_frequency for c in sram["typical", 1.0]]
    freq_2x = [c.normalized_frequency for c in sram["typical", 2.0]]
    hist_1x = normalized_histogram(freq_1x, FREQUENCY_BIN_EDGES)
    hist_2x = normalized_histogram(freq_2x, FREQUENCY_BIN_EDGES)

    chips = context.chips_3t1d("typical")
    spec = context.evaluator_spec()
    tasks = [
        EvalTask(evaluator=spec, chip=chip, schemes=(SCHEME_GLOBAL.name,))
        for chip in chips
    ]
    outcomes = context.runner.evaluate(
        tasks, observer=context.observer, label="fig06: global scheme"
    )
    points: List[GlobalSchemePoint] = []
    discarded = 0
    for chip, (outcome,) in zip(chips, outcomes):
        if outcome.discarded:
            discarded += 1
            continue
        # Normal-operation power: subtract the closed-form refresh part
        # that evaluate() added, keeping both normalized the same way.
        refresh_norm = outcome.refresh_power_normalized
        points.append(
            GlobalSchemePoint(
                chip_id=chip.chip_id,
                retention_ns=units.to_ns(chip.chip_retention_time),
                mean_performance=outcome.normalized_performance,
                worst_benchmark=outcome.worst_benchmark,
                worst_performance=outcome.worst_performance,
                normal_dynamic_power=(
                    outcome.dynamic_power_normalized - refresh_norm
                ),
                refresh_dynamic_power=refresh_norm,
            )
        )
    retention_hist = normalized_histogram(
        [p.retention_ns for p in points], RETENTION_BIN_EDGES_NS
    )
    return Fig06Result(
        frequency_histogram_1x=hist_1x,
        frequency_histogram_2x=hist_2x,
        retention_histogram=retention_hist,
        points=sorted(points, key=lambda p: p.retention_ns),
        discard_rate=discarded / max(1, len(chips)),
    )


def report(result: Fig06Result) -> str:
    """Paper-style panels as text."""
    parts = [
        format_histogram(
            FREQUENCY_BIN_LABELS,
            result.frequency_histogram_1x,
            title="Figure 6a: 1X 6T normalized frequency distribution",
        ),
        "",
        format_histogram(
            FREQUENCY_BIN_LABELS,
            result.frequency_histogram_2x,
            title="Figure 6a: 2X 6T normalized frequency distribution",
        ),
        "",
        format_histogram(
            RETENTION_BIN_LABELS,
            result.retention_histogram,
            title="Figure 6b: 3T1D cache retention time distribution",
        ),
        "",
    ]
    headers = [
        "retention(ns)", "mean perf", "worst bench", "worst perf",
        "normal pwr", "refresh pwr", "total pwr",
    ]
    rows = [
        [
            f"{p.retention_ns:.0f}", f"{p.mean_performance:.3f}",
            p.worst_benchmark, f"{p.worst_performance:.3f}",
            f"{p.normal_dynamic_power:.2f}", f"{p.refresh_dynamic_power:.2f}",
            f"{p.total_dynamic_power:.2f}",
        ]
        for p in result.points
    ]
    parts.append(
        format_table(
            headers, rows,
            title="Figure 6b: performance and dynamic power vs. retention "
            "(global refresh)",
        )
    )
    parts.append(
        f"\nchips within 2% of ideal: {result.chips_within_2pct():.0%} "
        f"(paper: ~97%); discarded (retention < one pass): "
        f"{result.discard_rate:.0%}"
    )
    return "\n".join(parts)


EXPERIMENT = register_experiment(Experiment(
    name="fig06_typical",
    run=run,
    report=report,
    module=__name__,
))


def main(argv=None) -> None:
    """Regenerate and print Figure 6 (shared engine CLI flags)."""
    EXPERIMENT.cli(argv)


if __name__ == "__main__":
    main()
