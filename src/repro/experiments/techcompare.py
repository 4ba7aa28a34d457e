"""Cross-technology comparison: 3T1D vs STT-RAM vs variation-aware DRAM.

The backend protocol (:mod:`repro.technology.backends`) lets the unchanged
refresh x placement machinery run on different cell technologies.  This
driver sweeps every registered backend across the variation severities on
identical workloads and reports, per (technology, severity, scheme):

* mean normalized performance and dynamic power,
* mean L1 miss rate and expiry-induced miss rate (the retention signal),
* a normalized energy-delay product (power_norm / perf_norm^2, scaled by
  the backend's design-induced latency factor where one exists),
* the kernel replay-path coverage (all cells must run on the batched
  flattened/timeline kernels -- fast_path_coverage 1.0).

Every (chip, scheme) cell goes through ``evaluate_many`` via the parallel
engine's :class:`~repro.engine.parallel.EvalTask` batching, exactly like
the paper-figure drivers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.engine.parallel import EvalTask
from repro.engine.registry import CsvExport, Experiment, register_experiment
from repro.experiments.runner import ExperimentContext
from repro.experiments.reporting import format_table

TECHNOLOGIES: Tuple[str, ...] = ("3t1d", "sttram", "vardram")
SEVERITIES: Tuple[str, ...] = ("typical", "severe")
SCHEMES: Tuple[str, ...] = ("no-refresh/LRU", "partial-refresh/DSP")
"""One scheme that tolerates expiry by losing data and one that spends
refresh bandwidth to keep it -- the pair separates retention-limited
technologies from refresh-limited ones."""


@dataclass(frozen=True)
class TechRow:
    """One (technology, severity, scheme) aggregate over the chip batch."""

    technology: str
    severity: str
    scheme: str
    chips: int
    mean_performance: float
    mean_power: float
    mean_miss_rate: float
    mean_expired_miss_rate: float
    energy_delay: float
    """Normalized energy-delay product: power_norm / perf_norm^2, times
    the technology's mean design-induced latency factor (1.0 unless the
    backend models per-line latency variation)."""
    mean_latency_factor: float
    fast_path_coverage: float
    """Fraction of (chip, benchmark) replays served by the batched
    flattened/timeline kernels (1.0 = no event-controller fallbacks)."""


@dataclass(frozen=True)
class TechCompareResult:
    """All aggregates of one cross-technology sweep."""

    rows: Tuple[TechRow, ...]

    @property
    def fast_path_coverage(self) -> float:
        """Worst-case kernel coverage across every swept cell."""
        if not self.rows:
            return 0.0
        return min(row.fast_path_coverage for row in self.rows)

    def rows_for(self, technology: str) -> Tuple[TechRow, ...]:
        """The rows of one technology, in sweep order."""
        return tuple(r for r in self.rows if r.technology == technology)


def run(context: Optional[ExperimentContext] = None) -> TechCompareResult:
    """Sweep every backend x severity x scheme on identical workloads."""
    context = context or ExperimentContext()
    rows: List[TechRow] = []
    for technology in TECHNOLOGIES:
        tech_context = (
            context
            if context.technology == technology
            else context.with_overrides(technology=technology)
        )
        spec = tech_context.evaluator_spec()
        batches = tech_context.chips_3t1d_batches(SEVERITIES)
        for severity in SEVERITIES:
            chips = batches[severity]
            tasks = [
                EvalTask(evaluator=spec, chip=chip, schemes=SCHEMES)
                for chip in chips
            ]
            outcomes = tech_context.runner.evaluate(
                tasks,
                observer=tech_context.observer,
                label=f"techcompare: {technology}/{severity}",
            )
            latency = float(np.mean(
                [chip.mean_latency_factor for chip in chips]
            ))
            for index, scheme in enumerate(SCHEMES):
                per_chip = [
                    chip_outcomes[index] for chip_outcomes in outcomes
                ]
                live = [o for o in per_chip if not o.discarded]
                paths = [
                    path
                    for outcome in live
                    for _, path in outcome.kernel_paths
                ]
                coverage = (
                    sum(1 for p in paths if p != "event") / len(paths)
                    if paths
                    else 1.0
                )
                perf = float(np.mean(
                    [o.normalized_performance for o in live]
                )) if live else 0.0
                power = float(np.mean(
                    [o.dynamic_power_normalized for o in live]
                )) if live else 0.0
                rows.append(TechRow(
                    technology=technology,
                    severity=severity,
                    scheme=scheme,
                    chips=len(live),
                    mean_performance=perf,
                    mean_power=power,
                    mean_miss_rate=float(np.mean(
                        [o.mean_miss_rate for o in live]
                    )) if live else 0.0,
                    mean_expired_miss_rate=float(np.mean(
                        [o.mean_expired_miss_rate for o in live]
                    )) if live else 0.0,
                    energy_delay=(
                        power * latency / perf ** 2 if perf > 0 else 0.0
                    ),
                    mean_latency_factor=latency,
                    fast_path_coverage=coverage,
                ))
    return TechCompareResult(rows=tuple(rows))


def report(result: TechCompareResult) -> str:
    """Paper-style table of the cross-technology sweep."""
    headers = [
        "technology", "severity", "scheme", "perf", "power",
        "miss", "expired", "EDP", "latfac",
    ]
    rows = [
        [
            row.technology,
            row.severity,
            row.scheme,
            f"{row.mean_performance:.3f}",
            f"{row.mean_power:.2f}",
            f"{row.mean_miss_rate:.4f}",
            f"{row.mean_expired_miss_rate:.4f}",
            f"{row.energy_delay:.2f}",
            f"{row.mean_latency_factor:.2f}",
        ]
        for row in result.rows
    ]
    return (
        format_table(
            headers, rows,
            title="Technology comparison: mean over chips, normalized to "
            "the ideal 6T design",
        )
        + f"\n\nfast_path_coverage: {result.fast_path_coverage:.3f}"
    )


def csv_rows(result: TechCompareResult) -> List[CsvExport]:
    """Machine-readable sweep table."""
    headers = [
        "technology", "severity", "scheme", "chips",
        "mean_performance", "mean_power", "mean_miss_rate",
        "mean_expired_miss_rate", "energy_delay", "mean_latency_factor",
        "fast_path_coverage",
    ]
    rows = [
        [
            row.technology, row.severity, row.scheme, row.chips,
            row.mean_performance, row.mean_power, row.mean_miss_rate,
            row.mean_expired_miss_rate, row.energy_delay,
            row.mean_latency_factor, row.fast_path_coverage,
        ]
        for row in result.rows
    ]
    return [CsvExport("techcompare.csv", headers, rows)]


EXPERIMENT = register_experiment(Experiment(
    name="techcompare",
    run=run,
    report=report,
    csv_rows=csv_rows,
    module=__name__,
))


def main(argv=None) -> None:
    """Regenerate and print the technology comparison (shared CLI flags)."""
    EXPERIMENT.cli(argv)


if __name__ == "__main__":
    main()
