"""Table 3: per-node summary of the three cache designs.

For each technology node (65/45/32nm) the paper tabulates the ideal
(no-variation) 6T design, the median 1X 6T chip under typical variation,
and the median 3T1D chip under typical variation: array access time (or
retention), harmonic-mean BIPS, mean and full-rate dynamic power, and
leakage power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro import units
from repro.technology import calibration
from repro.technology.node import ALL_NODES, TechnologyNode
from repro.variation.parameters import VariationParams
from repro.variation.statistics import harmonic_mean, median_chip_index
from repro.array.chip import (
    ChipSampler,
    DRAM3T1DChipSample,
    SRAMChipSample,
)
from repro.array.power import CachePowerModel
from repro.core.schemes import SCHEME_GLOBAL
from repro.engine.parallel import EvalTask, EvaluatorSpec, SchemeOutcome
from repro.engine.registry import Experiment, register_experiment
from repro.experiments.runner import ExperimentContext
from repro.experiments.reporting import format_table

NODE_ORDER = ("65nm", "45nm", "32nm")


@dataclass(frozen=True)
class DesignRow:
    """One (node, design) row of Table 3."""

    node: str
    design: str
    access_time_ps: Optional[float]
    retention_ns: Optional[float]
    bips: float
    mean_dynamic_power_mw: float
    full_dynamic_power_mw: float
    leakage_power_mw: float


@dataclass(frozen=True)
class Table3Result:
    """All rows, grouped per node."""

    rows: List[DesignRow]

    def row(self, node: str, design: str) -> DesignRow:
        """Look up one row."""
        for row in self.rows:
            if row.node == node and row.design == design:
                return row
        raise KeyError((node, design))


def _node_rows(
    node: TechnologyNode,
    sram_chips: List[SRAMChipSample],
    dram_chips: List[DRAM3T1DChipSample],
    ideal_ipcs: List[float],
    median_outcome: SchemeOutcome,
) -> List[DesignRow]:
    """Assemble the three Table 3 rows for one node from batch results."""
    ideal_bips = harmonic_mean(ideal_ipcs) * node.frequency / 1e9
    power_6t = CachePowerModel(node, "6T")
    power_3t1d = CachePowerModel(node, "3T1D")
    rows = [
        DesignRow(
            node=node.name,
            design="ideal 6T",
            access_time_ps=units.to_ps(calibration.nominal_access_time(node)),
            retention_ns=None,
            bips=ideal_bips,
            mean_dynamic_power_mw=units.to_mw(
                calibration.MEAN_DYNAMIC_POWER_6T[node.name]
            ),
            full_dynamic_power_mw=units.to_mw(power_6t.full_dynamic_power),
            leakage_power_mw=units.to_mw(
                calibration.LEAKAGE_POWER_6T[node.name]
            ),
        )
    ]

    # --- median 1X 6T chip under typical variation ---
    frequencies = [c.normalized_frequency for c in sram_chips]
    median_sram = sram_chips[median_chip_index(frequencies)]
    norm = median_sram.normalized_frequency
    # Leakage and speed are selected on different axes; report the median
    # of the leakage distribution rather than the speed-median chip's.
    sram_leakage_mw = units.to_mw(
        float(np.median([c.leakage_power for c in sram_chips]))
    )
    rows.append(
        DesignRow(
            node=node.name,
            design="1X 6T median",
            access_time_ps=units.to_ps(median_sram.worst_access_time),
            retention_ns=None,
            bips=ideal_bips * norm,
            mean_dynamic_power_mw=units.to_mw(
                calibration.MEAN_DYNAMIC_POWER_6T[node.name]
            )
            * norm,
            full_dynamic_power_mw=units.to_mw(power_6t.full_dynamic_power)
            * norm,
            leakage_power_mw=sram_leakage_mw,
        )
    )

    # --- median 3T1D chip under typical variation (global scheme) ---
    retentions = [c.chip_retention_time for c in dram_chips]
    median_chip = dram_chips[median_chip_index(retentions)]
    dram_leakage_mw = units.to_mw(
        float(np.median([c.leakage_power for c in dram_chips]))
    )
    if median_outcome.discarded:
        perf = 0.0
        mean_power_mw = 0.0
    else:
        perf = median_outcome.normalized_performance
        mean_power_mw = units.to_mw(median_outcome.mean_dynamic_power_watts)
    rows.append(
        DesignRow(
            node=node.name,
            design="3T1D median",
            access_time_ps=None,
            retention_ns=units.to_ns(median_chip.chip_retention_time),
            bips=ideal_bips * perf,
            mean_dynamic_power_mw=float(mean_power_mw),
            full_dynamic_power_mw=units.to_mw(power_3t1d.full_dynamic_power),
            leakage_power_mw=dram_leakage_mw,
        )
    )
    return rows


def run(context: Optional[ExperimentContext] = None) -> Table3Result:
    """Regenerate Table 3 for all three nodes.

    Chip batches for every node are reserved up front and realized in one
    parallel batch; the per-node evaluations (ideal IPC plus the median
    3T1D chip under the global scheme) form a second batch.
    """
    context = context or ExperimentContext(n_chips=30)
    nodes = [ALL_NODES[name] for name in NODE_ORDER]

    # Phase 1: every node's 6T and 3T1D chip batch, one request.  The
    # nodes reserve the same chip seeds, so each chip is one task that
    # draws its fields once and is solved at all three nodes.
    chips = context.runner.build_chips(
        {
            (kind, node.name): ChipSampler(
                node, VariationParams.typical(), seed=seed
            ).reserve_build_tasks(context.n_chips, kind=kind)
            for kind, seed in (
                ("sram", context.seed), ("3t1d", context.seed + 5),
            )
            for node in nodes
        },
        observer=context.observer,
        label="table3: chip batches",
    )
    batches = {
        node.name: (chips["sram", node.name], chips["3t1d", node.name])
        for node in nodes
    }

    # Phase 2: per-node ideal IPC + median-3T1D evaluation, one batch.
    specs = {
        node.name: EvaluatorSpec(
            node=node, n_references=context.n_references, seed=context.seed
        )
        for node in nodes
    }
    eval_tasks = []
    for node in nodes:
        _, dram_chips = batches[node.name]
        retentions = [c.chip_retention_time for c in dram_chips]
        median_chip = dram_chips[median_chip_index(retentions)]
        eval_tasks.append(
            EvalTask(evaluator=specs[node.name], kind="ideal_ipc")
        )
        eval_tasks.append(
            EvalTask(
                evaluator=specs[node.name],
                chip=median_chip,
                schemes=(SCHEME_GLOBAL.name,),
            )
        )
    evaluations = context.runner.evaluate(
        eval_tasks,
        observer=context.observer,
        label="table3: per-node evaluation",
    )

    rows: List[DesignRow] = []
    for i, node in enumerate(nodes):
        ideal_ipcs = list(evaluations[2 * i])
        (median_outcome,) = evaluations[2 * i + 1]
        sram_chips, dram_chips = batches[node.name]
        rows.extend(
            _node_rows(
                node, sram_chips, dram_chips, ideal_ipcs, median_outcome
            )
        )
    return Table3Result(rows=rows)


def report(result: Table3Result) -> str:
    """The paper-style table."""
    headers = [
        "node", "design", "access(ps)", "retention(ns)", "BIPS",
        "mean dyn (mW)", "full dyn (mW)", "leakage (mW)",
    ]
    rows = []
    for row in result.rows:
        rows.append(
            [
                row.node,
                row.design,
                f"{row.access_time_ps:.0f}" if row.access_time_ps else "-",
                f"{row.retention_ns:.0f}" if row.retention_ns else "-",
                f"{row.bips:.2f}",
                f"{row.mean_dynamic_power_mw:.2f}",
                f"{row.full_dynamic_power_mw:.2f}",
                f"{row.leakage_power_mw:.1f}",
            ]
        )
    return format_table(
        headers, rows, title="Table 3: cache designs across technology nodes"
    )


EXPERIMENT = register_experiment(Experiment(
    name="table3",
    run=run,
    report=report,
    module=__name__,
    # Three nodes x two designs makes this the most expensive experiment;
    # half the chip batch still gives stable medians (never below 10).
    default_context_overrides=lambda context: {
        "n_chips": max(10, context.n_chips // 2)
    },
))


def main(argv=None) -> None:
    """Regenerate and print Table 3 (shared engine CLI flags)."""
    EXPERIMENT.cli(argv)


if __name__ == "__main__":
    main()
