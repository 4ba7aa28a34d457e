"""Benchmark evaluation of cache architectures.

:class:`Evaluator` is the workhorse behind every figure: it generates (and
caches) the synthetic benchmark traces, runs each architecture's cache
simulator over them, converts the event counts to IPC with the analytic
CPU model, and reports the paper's metrics:

* **normalized performance** -- IPC x frequency relative to the ideal
  (golden 6T) design on the same benchmark;
* **BIPS** -- absolute billions of instructions per second;
* **normalized dynamic power** -- measured dynamic power relative to the
  ideal 6T design's dynamic power on the same trace (the Figure 6b /
  Figure 10 y-axis).

Single-number results are harmonic means over the 8 benchmarks, as in the
paper (section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.technology import calibration
from repro.technology.node import TechnologyNode
from repro.variation.statistics import harmonic_mean
from repro.cache.config import CacheConfig
from repro.cache.stats import CacheStats
from repro.cpu.perfmodel import AnalyticCPUModel, PerformanceEstimate
from repro.workloads.generator import MemoryTrace, SyntheticWorkload
from repro.workloads.profiles import benchmark_names, get_profile
from repro.core.architecture import (
    Cache3T1DArchitecture,
    Cache6TArchitecture,
    IdealCacheArchitecture,
)
from repro.core.batcheval import TraceArtifacts, kernel_support, simulate_trace

Architecture = Union[
    Cache3T1DArchitecture, Cache6TArchitecture, IdealCacheArchitecture
]


@dataclass(frozen=True)
class BenchmarkResult:
    """One (architecture, benchmark) evaluation."""

    benchmark: str
    scheme: str
    normalized_performance: float
    ipc: float
    bips: float
    dynamic_power_watts: float
    dynamic_power_normalized: float
    stats: Optional[CacheStats] = None
    estimate: Optional[PerformanceEstimate] = None
    kernel_path: str = "event"
    """Which replay path produced ``stats``: ``"flattened"``,
    ``"timeline"``, or ``"event"`` (see
    :func:`repro.core.batcheval.kernel_support`)."""


@dataclass(frozen=True)
class ChipEvaluation:
    """Aggregate over the benchmark suite for one architecture."""

    scheme: str
    results: Dict[str, BenchmarkResult]

    def _require_results(self) -> None:
        if not self.results:
            raise ConfigurationError(
                "ChipEvaluation holds no benchmark results; aggregate "
                "metrics are undefined over an empty suite"
            )

    @property
    def normalized_performance(self) -> float:
        """Harmonic mean of per-benchmark normalized performance."""
        self._require_results()
        return harmonic_mean(
            [r.normalized_performance for r in self.results.values()]
        )

    @property
    def bips(self) -> float:
        """Harmonic mean BIPS over the suite."""
        self._require_results()
        return harmonic_mean([r.bips for r in self.results.values()])

    @property
    def dynamic_power_normalized(self) -> float:
        """Mean normalized dynamic power over the suite."""
        self._require_results()
        values = [r.dynamic_power_normalized for r in self.results.values()]
        return sum(values) / len(values)

    @property
    def worst_benchmark(self) -> Tuple[str, float]:
        """(name, normalized performance) of the worst-hit benchmark."""
        self._require_results()
        name = min(
            self.results, key=lambda n: self.results[n].normalized_performance
        )
        return name, self.results[name].normalized_performance

    @property
    def kernel_paths(self) -> Dict[str, str]:
        """Replay path taken per benchmark (``benchmark -> path``)."""
        return {
            name: result.kernel_path
            for name, result in self.results.items()
        }


class Evaluator:
    """Runs benchmark suites against cache architectures.

    Traces and the ideal-cache baseline runs are generated once per
    evaluator and reused for every architecture, so comparing many chips
    and schemes stays cheap and consistent (identical reference streams).
    """

    def __init__(
        self,
        node: TechnologyNode,
        config: Optional[CacheConfig] = None,
        n_references: int = 20000,
        seed: int = 0,
        benchmarks: Optional[Sequence[str]] = None,
        use_batch_kernel: bool = True,
    ):
        if n_references < 1:
            raise ConfigurationError("n_references must be >= 1")
        self.node = node
        self.config = config or CacheConfig()
        self.n_references = n_references
        self.seed = seed
        self.use_batch_kernel = use_batch_kernel
        self.benchmarks = tuple(
            benchmark_names() if benchmarks is None else benchmarks
        )
        if not self.benchmarks:
            raise ConfigurationError(
                "benchmarks must be a non-empty sequence (or None for the "
                "full suite)"
            )
        self._traces: Dict[str, MemoryTrace] = {}
        self._baseline_stats: Dict[Tuple[str, int], CacheStats] = {}
        self._baseline_paths: Dict[Tuple[str, int], str] = {}
        self._artifacts: Dict[Tuple[str, int], TraceArtifacts] = {}

    # ------------------------------------------------------------------
    # cached inputs
    # ------------------------------------------------------------------

    def trace(self, benchmark: str) -> MemoryTrace:
        """The cached reference trace for ``benchmark``.

        Every trace is prefixed with one reference to each physical line's
        worth of distinct warmup addresses, so measurements start from a
        full cache (see ``SyntheticWorkload.memory_trace``).
        """
        if benchmark not in self._traces:
            workload = SyntheticWorkload(get_profile(benchmark), seed=self.seed)
            self._traces[benchmark] = workload.memory_trace(
                self.n_references,
                warmup_lines=self.config.geometry.n_lines,
            )
        return self._traces[benchmark]

    def trace_artifacts(self, benchmark: str, n_sets: int) -> TraceArtifacts:
        """The cached kernel artifacts for ``benchmark`` at ``n_sets``.

        Set indices, tags, and plain-int cycle/write arrays are derived
        once per (trace, set count) and shared by every (chip, scheme)
        evaluation that runs through the batched kernel.
        """
        key = (benchmark, n_sets)
        artifacts = self._artifacts.get(key)
        if artifacts is None:
            artifacts = TraceArtifacts.from_trace(self.trace(benchmark), n_sets)
            self._artifacts[key] = artifacts
        return artifacts

    def _run_trace(self, cache, benchmark: str) -> Tuple[CacheStats, str]:
        """Run the benchmark trace through ``cache``.

        Routes through the batched kernels (:mod:`repro.core.batcheval`)
        whenever :func:`~repro.core.batcheval.kernel_support` allows --
        bit-identical to the event controller -- and falls back to
        ``RetentionAwareCache.run_trace`` for caches with a token refresh
        engine, a real L2, or third-party policy objects.  Returns the
        stats plus the replay path taken
        (``"flattened"``/``"timeline"``/``"event"``).
        """
        if self.use_batch_kernel:
            support = kernel_support(cache)
            if support.supported:
                stats = simulate_trace(
                    cache,
                    self.trace_artifacts(
                        benchmark, cache.config.geometry.n_sets
                    ),
                )
                return stats, support.path
        trace = self.trace(benchmark)
        stats = cache.run_trace(
            trace.cycles,
            trace.line_addresses,
            trace.is_write,
            warmup_references=trace.warmup_references,
        )
        return stats, "event"

    def baseline_stats(self, benchmark: str, ways: Optional[int] = None) -> CacheStats:
        """Ideal-cache stats on the benchmark trace (cached per assoc)."""
        ways = ways or self.config.geometry.ways
        key = (benchmark, ways)
        if key not in self._baseline_stats:
            config = (
                self.config
                if ways == self.config.geometry.ways
                else self.config.with_ways(ways)
            )
            ideal = IdealCacheArchitecture(self.node, config)
            stats, path = self._run_trace(ideal.build_cache(), benchmark)
            self._baseline_stats[key] = stats
            self._baseline_paths[key] = path
        return self._baseline_stats[key]

    def baseline_path(self, benchmark: str, ways: Optional[int] = None) -> str:
        """Replay path the cached ideal baseline took for ``benchmark``."""
        ways = ways or self.config.geometry.ways
        self.baseline_stats(benchmark, ways)
        return self._baseline_paths[(benchmark, ways)]

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def evaluate_benchmark(
        self, architecture: Architecture, benchmark: str
    ) -> BenchmarkResult:
        """Run one benchmark against one architecture."""
        profile = get_profile(benchmark)
        trace = self.trace(benchmark)
        window = max(1, trace.measured_window_cycles)
        ways = architecture.config.geometry.ways
        baseline = self.baseline_stats(benchmark, ways)
        power_6t = calibration.port_access_energy(self.node, "6T")
        ideal_power = (
            baseline.port_accesses * power_6t / window * self.node.frequency
        )

        if isinstance(architecture, IdealCacheArchitecture):
            return BenchmarkResult(
                benchmark=benchmark,
                scheme="ideal-6T",
                normalized_performance=1.0,
                ipc=profile.base_ipc,
                bips=profile.base_ipc * self.node.frequency / 1e9,
                dynamic_power_watts=ideal_power,
                dynamic_power_normalized=1.0,
                stats=baseline,
                kernel_path=self.baseline_path(benchmark, ways),
            )

        if isinstance(architecture, Cache6TArchitecture):
            # Same cache behaviour as ideal; only the clock differs.
            norm = architecture.normalized_frequency
            frequency = architecture.frequency
            return BenchmarkResult(
                benchmark=benchmark,
                scheme=architecture.chip.cell_label,
                normalized_performance=norm,
                ipc=profile.base_ipc,
                bips=profile.base_ipc * frequency / 1e9,
                dynamic_power_watts=ideal_power * norm,
                dynamic_power_normalized=norm,
                stats=baseline,
                kernel_path=self.baseline_path(benchmark, ways),
            )

        # --- 3T1D architecture ---
        cache = architecture.build_cache()
        stats, kernel_path = self._run_trace(cache, benchmark)
        model = AnalyticCPUModel(profile, architecture.config)
        if architecture.scheme.is_global:
            duty = min(
                1.0,
                architecture.config.geometry.refresh_cycles_full_pass
                / max(1, architecture.chip_retention_cycles),
            )
            estimate = model.estimate_global_refresh(duty)
        else:
            measured_l2 = (
                stats.measured_l2_miss_rate
                if architecture.config.real_l2
                and (stats.l2_hits + stats.l2_misses) > 0
                else None
            )
            estimate = model.estimate(
                stats,
                instructions=trace.instructions,
                window_cycles=window,
                baseline_stats=baseline,
                port_block_parallelism=float(
                    architecture.config.geometry.n_pairs
                ),
                l2_miss_rate=measured_l2,
            )
        normalized = estimate.ipc / profile.base_ipc

        power_model = architecture.power_model()
        if architecture.scheme.is_global:
            # The pass energy recurs every retention period regardless of
            # the window; use the closed-form global-refresh power.
            dynamic_power = power_model.event_dynamic_power(
                cycles=window,
                port_accesses=stats.port_accesses,
                line_refreshes=0,
                extra_l2_accesses=max(
                    0, stats.l2_accesses - baseline.l2_accesses
                ),
                store_accesses=stats.stores,
            ) + power_model.global_refresh_power(
                architecture.chip_retention_cycles / self.node.frequency
            )
        else:
            dynamic_power = power_model.event_dynamic_power(
                cycles=window,
                port_accesses=stats.port_accesses,
                line_refreshes=stats.line_refreshes + stats.line_moves,
                extra_l2_accesses=max(
                    0, stats.l2_accesses - baseline.l2_accesses
                ),
                include_line_counters=True,
                store_accesses=stats.stores,
            )
        return BenchmarkResult(
            benchmark=benchmark,
            scheme=architecture.scheme.name,
            normalized_performance=normalized,
            ipc=estimate.ipc,
            bips=estimate.ipc * architecture.frequency / 1e9,
            dynamic_power_watts=dynamic_power,
            dynamic_power_normalized=dynamic_power / ideal_power,
            stats=stats,
            estimate=estimate,
            kernel_path=kernel_path,
        )

    def evaluate(
        self,
        architecture: Architecture,
        benchmarks: Optional[Sequence[str]] = None,
    ) -> ChipEvaluation:
        """Run the benchmark suite against one architecture."""
        names = tuple(self.benchmarks if benchmarks is None else benchmarks)
        if not names:
            raise ConfigurationError(
                "benchmarks must be a non-empty sequence (or None for the "
                "evaluator's suite)"
            )
        results = {
            name: self.evaluate_benchmark(architecture, name) for name in names
        }
        scheme = next(iter(results.values())).scheme
        return ChipEvaluation(scheme=scheme, results=results)
