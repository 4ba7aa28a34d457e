"""Geometry/banking sweep: the array organisation as a swept parameter.

Every other driver studies schemes and technologies at the paper's fixed
64KB / 4-way / 8-subarray L1.  This sweep turns the organisation itself
into the x-axis: cache size x associativity x banking x scheme x
variation severity, each cell evaluated on the same Monte-Carlo chip
batches and workloads through ``evaluate_many`` and the batched/timeline
kernels (``fast_path_coverage`` must stay 1.0 -- the CI smoke job gates
on it).

Per configuration the sweep reports:

* the array-limited clock (the calibrated CACTI-anchored timing model's
  access-time factor applied to the node frequency),
* mean normalized performance and the frequency yield (fraction of chips
  within 95% of ideal performance at that organisation),
* a normalized energy-delay product folding in the geometry's read
  energy and access-time factors,
* chip leakage (banking periphery included) in milliwatts.

The report distils the grid into three frontier tables -- frequency
yield, energy-delay, and leakage vs clock -- while the CSV export
carries every swept cell.

Chips are sampled once per (size, banking, severity) at the base 4-way
organisation and re-interpreted per associativity by the architecture
layer (the Figure 11 pattern), so the associativity axis is free of
sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro import units
from repro.array import cactimodel
from repro.array.geometry import CacheGeometry
from repro.engine.parallel import EvalTask
from repro.engine.registry import CsvExport, Experiment, register_experiment
from repro.experiments.runner import ExperimentContext
from repro.experiments.reporting import format_table

SIZES_KB: Tuple[int, ...] = (16, 32, 64, 128, 256)
WAYS_SWEEP: Tuple[int, ...] = (1, 2, 4, 8)
BANKS_SWEEP: Tuple[int, ...] = (2, 4, 8)
SCHEMES: Tuple[str, ...] = (
    "no-refresh/LRU",
    "partial-refresh/DSP",
    "full-refresh/LRU",
)
"""One scheme that tolerates expiry by losing data, the paper's headline
placement scheme, and one that spends full refresh bandwidth -- the trio
separates retention-limited organisations from refresh-limited ones."""
SEVERITIES: Tuple[str, ...] = ("none", "typical", "severe")
BASE_WAYS: int = 4
"""Associativity the chip batches are sampled at; other associativities
re-interpret the same physical lines (Figure 11 pattern)."""
YIELD_PERFORMANCE_FLOOR: float = 0.95
"""A chip "yields" at an organisation when its normalized performance is
within 5% of the ideal design -- the frequency-yield criterion."""


@dataclass(frozen=True)
class GeomRow:
    """One (size, ways, banks, scheme, severity) aggregate over chips."""

    size_kb: int
    ways: int
    banks: int
    scheme: str
    severity: str
    chips: int
    latency_cycles: int
    clock_ghz: float
    """Array-limited clock: node frequency over the geometry's calibrated
    access-time factor."""
    mean_performance: float
    frequency_yield: float
    """Fraction of live chips within ``YIELD_PERFORMANCE_FLOOR`` of the
    ideal design's performance."""
    mean_power: float
    energy_delay: float
    """Normalized EDP: (power x read-energy factor) x access-time factor
    / performance^2; 64KB/4-way factors are exactly 1.0."""
    leakage_mw: float
    fast_path_coverage: float
    """Fraction of (chip, benchmark) replays served by the batched
    flattened/timeline kernels (1.0 = no event-controller fallbacks)."""


@dataclass(frozen=True)
class GeomSweepResult:
    """All aggregates of one geometry/banking sweep."""

    rows: Tuple[GeomRow, ...]

    @property
    def n_configurations(self) -> int:
        """Swept (size, ways, banks, scheme, severity) cells."""
        return len(self.rows)

    @property
    def fast_path_coverage(self) -> float:
        """Worst-case kernel coverage across every swept cell."""
        if not self.rows:
            return 0.0
        return min(row.fast_path_coverage for row in self.rows)

    def rows_for(
        self,
        severity: Optional[str] = None,
        scheme: Optional[str] = None,
    ) -> Tuple[GeomRow, ...]:
        """The rows of one severity and/or scheme, in sweep order."""
        return tuple(
            r for r in self.rows
            if (severity is None or r.severity == severity)
            and (scheme is None or r.scheme == scheme)
        )


def sweep_geometries(
    sizes_kb: Tuple[int, ...] = SIZES_KB,
    banks_sweep: Tuple[int, ...] = BANKS_SWEEP,
    ways_sweep: Tuple[int, ...] = WAYS_SWEEP,
) -> List[CacheGeometry]:
    """Every geometry the sweep grid evaluates (all associativities).

    Exposed so the property tests can assert the whole grid satisfies
    the ``CacheGeometry.__post_init__`` invariants by construction.
    """
    geometries: List[CacheGeometry] = []
    for size_kb in sizes_kb:
        for banks in banks_sweep:
            base = CacheGeometry.from_capacity(
                size_kb * 1024, BASE_WAYS, banks=banks
            )
            for ways in ways_sweep:
                geometries.append(
                    base if ways == BASE_WAYS else base.with_ways(ways)
                )
    return geometries


def run(
    context: Optional[ExperimentContext] = None,
    sizes_kb: Tuple[int, ...] = SIZES_KB,
    banks_sweep: Tuple[int, ...] = BANKS_SWEEP,
    ways_sweep: Tuple[int, ...] = WAYS_SWEEP,
    schemes: Tuple[str, ...] = SCHEMES,
    severities: Tuple[str, ...] = SEVERITIES,
) -> GeomSweepResult:
    """Sweep size x associativity x banking x scheme x severity."""
    context = context or ExperimentContext()
    rows: List[GeomRow] = []
    for size_kb in sizes_kb:
        for banks in banks_sweep:
            base = CacheGeometry.from_capacity(
                size_kb * 1024, BASE_WAYS, banks=banks
            )
            geo_context = (
                context
                if context.geometry == base
                else context.with_overrides(geometry=base)
            )
            # One request per physical point: each chip's fields are
            # drawn once for every severity.
            batches = geo_context.chips_3t1d_batches(severities)
            for severity in severities:
                chips = batches[severity]
                leakage = float(np.mean(
                    [chip.leakage_power for chip in chips]
                ))
                # Associativity innermost: the per-ways evaluators cycle
                # within one physical point and stay inside the worker
                # LRU; the chips re-interpret per ways inside the
                # architecture layer, exactly like Figure 11.
                for ways in ways_sweep:
                    spec = geo_context.evaluator_spec(ways=ways)
                    geometry = spec.geometry
                    tasks = [
                        EvalTask(evaluator=spec, chip=chip, schemes=schemes)
                        for chip in chips
                    ]
                    outcomes = geo_context.runner.evaluate(
                        tasks,
                        observer=geo_context.observer,
                        label=(
                            f"geomsweep: {size_kb}KB/{ways}w/"
                            f"b{banks}/{severity}"
                        ),
                    )
                    time_factor = cactimodel.access_time_factor(geometry)
                    energy_factor = cactimodel.read_energy_factor(geometry)
                    clock_ghz = units.to_ghz(
                        context.node.frequency / time_factor
                    )
                    for index, scheme in enumerate(schemes):
                        per_chip = [
                            chip_outcomes[index]
                            for chip_outcomes in outcomes
                        ]
                        live = [o for o in per_chip if not o.discarded]
                        paths = [
                            path
                            for outcome in live
                            for _, path in outcome.kernel_paths
                        ]
                        coverage = (
                            sum(1 for p in paths if p != "event")
                            / len(paths)
                            if paths
                            else 1.0
                        )
                        perfs = [o.normalized_performance for o in live]
                        perf = float(np.mean(perfs)) if live else 0.0
                        power = float(np.mean(
                            [o.dynamic_power_normalized for o in live]
                        )) if live else 0.0
                        rows.append(GeomRow(
                            size_kb=size_kb,
                            ways=ways,
                            banks=banks,
                            scheme=scheme,
                            severity=severity,
                            chips=len(live),
                            latency_cycles=geometry.access_latency_cycles,
                            clock_ghz=clock_ghz,
                            mean_performance=perf,
                            frequency_yield=float(np.mean([
                                p >= YIELD_PERFORMANCE_FLOOR for p in perfs
                            ])) if perfs else 0.0,
                            mean_power=power,
                            energy_delay=(
                                power * energy_factor * time_factor
                                / perf ** 2
                                if perf > 0 else 0.0
                            ),
                            leakage_mw=units.to_mw(leakage),
                            fast_path_coverage=coverage,
                        ))
    return GeomSweepResult(rows=tuple(rows))


def _frequency_yield_table(result: GeomSweepResult) -> str:
    """Clock and per-associativity yield per (size, banks), severe."""
    rows_by_point = {}
    for row in result.rows_for("severe", "partial-refresh/DSP"):
        rows_by_point.setdefault((row.size_kb, row.banks), {})[row.ways] = row
    ways_seen = sorted({
        w for by_ways in rows_by_point.values() for w in by_ways
    })
    headers = ["size", "banks", "clock"] + [
        f"yield@{w}w" for w in ways_seen
    ]
    table = []
    for (size_kb, banks), by_ways in sorted(rows_by_point.items()):
        any_row = next(iter(by_ways.values()))
        table.append(
            [f"{size_kb}KB", str(banks), f"{any_row.clock_ghz:.2f}GHz"]
            + [
                f"{by_ways[w].frequency_yield:.2f}" if w in by_ways else "-"
                for w in ways_seen
            ]
        )
    return format_table(
        headers, table,
        title="Frequency yield vs organisation "
        "(severe variation, partial-refresh/DSP)",
    )


def _energy_delay_table(result: GeomSweepResult) -> str:
    """The lowest-EDP organisation per size, typical variation."""
    best = {}
    for row in result.rows_for("typical"):
        if row.mean_performance <= 0:
            continue
        current = best.get(row.size_kb)
        if current is None or row.energy_delay < current.energy_delay:
            best[row.size_kb] = row
    headers = ["size", "ways", "banks", "scheme", "EDP", "perf", "clock"]
    table = [
        [
            f"{size_kb}KB", str(row.ways), str(row.banks), row.scheme,
            f"{row.energy_delay:.2f}", f"{row.mean_performance:.3f}",
            f"{row.clock_ghz:.2f}GHz",
        ]
        for size_kb, row in sorted(best.items())
    ]
    return format_table(
        headers, table,
        title="Energy-delay frontier: lowest-EDP organisation per size "
        "(typical variation)",
    )


def _leakage_table(result: GeomSweepResult) -> str:
    """Leakage vs clock per (size, banks) -- the banking trade-off."""
    points = {}
    for row in result.rows_for("typical", "partial-refresh/DSP"):
        if row.ways == BASE_WAYS:
            points[(row.size_kb, row.banks)] = row
    headers = ["size", "banks", "leakage", "clock", "latency"]
    table = [
        [
            f"{size_kb}KB", str(banks), f"{row.leakage_mw:.2f}mW",
            f"{row.clock_ghz:.2f}GHz", f"{row.latency_cycles}cyc",
        ]
        for (size_kb, banks), row in sorted(points.items())
    ]
    return format_table(
        headers, table,
        title="Leakage frontier: banking vs leakage and clock "
        f"(typical variation, {BASE_WAYS}-way)",
    )


def report(result: GeomSweepResult) -> str:
    """Frontier tables distilled from the full sweep grid."""
    parts = [
        _frequency_yield_table(result),
        "",
        _energy_delay_table(result),
        "",
        _leakage_table(result),
        "",
        f"configurations: {result.n_configurations}",
        f"fast_path_coverage: {result.fast_path_coverage:.3f}",
    ]
    return "\n".join(parts)


def csv_rows(result: GeomSweepResult) -> List[CsvExport]:
    """The full sweep grid, one row per swept cell."""
    headers = [
        "size_kb", "ways", "banks", "scheme", "severity", "chips",
        "latency_cycles", "clock_ghz", "mean_performance",
        "frequency_yield", "mean_power", "energy_delay", "leakage_mw",
        "fast_path_coverage",
    ]
    rows = [
        [
            row.size_kb, row.ways, row.banks, row.scheme, row.severity,
            row.chips, row.latency_cycles, row.clock_ghz,
            row.mean_performance, row.frequency_yield, row.mean_power,
            row.energy_delay, row.leakage_mw, row.fast_path_coverage,
        ]
        for row in result.rows
    ]
    return [CsvExport("geomsweep.csv", headers, rows)]


EXPERIMENT = register_experiment(Experiment(
    name="geomsweep",
    run=run,
    report=report,
    csv_rows=csv_rows,
    module=__name__,
    # The 540-cell grid dwarfs every other driver; frontier means stay
    # stable on a quarter of the chip batch.
    default_context_overrides=lambda context: {
        "n_chips": max(1, context.n_chips // 4)
    },
))


def main(argv=None) -> None:
    """Regenerate and print the geometry sweep (shared CLI flags)."""
    EXPERIMENT.cli(argv)


if __name__ == "__main__":
    main()
