"""repro -- Process Variation Tolerant 3T1D-Based Cache Architectures.

A full reproduction of Liang, Canal, Wei & Brooks, MICRO 2007: 3T1D
dynamic-memory L1 data caches whose process-variation response is lumped
into per-line *retention times* and absorbed by retention-aware refresh
and placement schemes.

Quickstart::

    from repro import NODE_32NM, VariationParams, ChipSampler, evaluate

    sampler = ChipSampler(NODE_32NM, VariationParams.severe(), seed=1)
    chip = sampler.sample_3t1d_chip()
    result = evaluate(chip, "partial-refresh/DSP")
    print(result.normalized_performance)

Batches go through :func:`repro.evaluate_many`, which shares one suite's
traces (and the batched kernel's per-trace artifacts) across every
(chip, scheme) pair::

    from repro import Evaluator, evaluate_many, HEADLINE_SCHEMES

    suite = Evaluator(NODE_32NM)
    rows = evaluate_many(sampler.sample_3t1d_chips(10),
                         HEADLINE_SCHEMES, suite)

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-vs-measured record of every table and figure.
"""

from repro.errors import (
    CalibrationError,
    ChipDiscardedError,
    ConfigurationError,
    ExecutionError,
    JobCancelled,
    ReproError,
    SimulationError,
    TraceError,
)
from repro.technology import (
    ALL_NODES,
    DEFAULT_TECHNOLOGY,
    DRAM3T1DBackend,
    NODE_32NM,
    NODE_45NM,
    NODE_65NM,
    RetentionMap,
    STTRAMBackend,
    TechnologyBackend,
    TechnologyNode,
    VarDRAMBackend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.variation import (
    ChipVariation,
    QuadTreeSampler,
    VariationParams,
    VariationSampler,
    harmonic_mean,
    validate_chip_count,
)
from repro.cells import (
    AccessTimeCurve,
    DRAM3T1DCell,
    RetentionModel,
    SRAM6TCell,
)
from repro.array import (
    CacheGeometry,
    CachePowerModel,
    ChipBuildTask,
    ChipSampler,
    DRAM3T1DChipSample,
    SRAMChipSample,
)
from repro.cache import (
    CacheConfig,
    LineCounterConfig,
    RetentionAwareCache,
)
from repro.cpu import Core, CoreConfig
from repro.workloads import (
    SPEC2000_PROFILES,
    BenchmarkProfile,
    SyntheticWorkload,
    benchmark_names,
    get_profile,
)
from repro.core import (
    Cache3T1DArchitecture,
    Cache6TArchitecture,
    ChipEvaluation,
    Evaluator,
    HEADLINE_SCHEMES,
    IdealCacheArchitecture,
    LINE_LEVEL_SCHEMES,
    RetentionScheme,
    SCHEME_GLOBAL,
    SCHEME_NO_REFRESH_LRU,
    SCHEME_PARTIAL_DSP,
    SCHEME_RSP_FIFO,
    SCHEME_RSP_LRU,
    KernelSupport,
    TraceArtifacts,
    YieldModel,
    evaluate,
    evaluate_many,
    get_scheme,
    kernel_support,
    simulate_trace,
)
from repro.engine import (
    CacheStats,
    CLIProgressReporter,
    CompositeObserver,
    CorruptedPayload,
    CsvExport,
    DEFAULT_EVALUATOR_CACHE_SIZE,
    EngineConfig,
    EngineEvent,
    EvaluatorSpec,
    EvalTask,
    EventStream,
    Experiment,
    FaultPlan,
    InjectedFaultError,
    JSONMetricsObserver,
    LOCAL_BACKEND,
    NULL_OBSERVER,
    ParallelChipRunner,
    ResultCache,
    RunJournal,
    RunObserver,
    RunnerStats,
    SUBPROCESS_FLEET_BACKEND,
    ShardedResultCache,
    Span,
    TracedResult,
    Tracer,
    activate,
    all_experiments,
    canonical_dumps,
    decode_event,
    dispatch,
    encode_event,
    get_experiment,
    register_experiment,
    resolve_cache,
    span,
    task_key,
    tracing_active,
)

__version__ = "1.0.0"


#: Facade names resolved lazily: ExperimentContext lives with the
#: experiment drivers and the service symbols live with the service
#: layer; importing either eagerly would pull heavy subpackages in on
#: every ``import repro``.
_LAZY_EXPORTS = {
    "ExperimentContext": ("repro.experiments.runner", "ExperimentContext"),
    "ExecutionService": ("repro.service", "ExecutionService"),
    "JobHandle": ("repro.service", "JobHandle"),
    "JobSpec": ("repro.service", "JobSpec"),
    "JobStatus": ("repro.service", "JobStatus"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)

__all__ = [
    "ReproError",
    "ConfigurationError",
    "CalibrationError",
    "SimulationError",
    "TraceError",
    "ChipDiscardedError",
    "ExecutionError",
    "JobCancelled",
    "TechnologyNode",
    "ALL_NODES",
    "NODE_65NM",
    "NODE_45NM",
    "NODE_32NM",
    "DEFAULT_TECHNOLOGY",
    "TechnologyBackend",
    "DRAM3T1DBackend",
    "STTRAMBackend",
    "VarDRAMBackend",
    "RetentionMap",
    "backend_names",
    "get_backend",
    "register_backend",
    "VariationParams",
    "VariationSampler",
    "ChipVariation",
    "QuadTreeSampler",
    "harmonic_mean",
    "validate_chip_count",
    "SRAM6TCell",
    "DRAM3T1DCell",
    "RetentionModel",
    "AccessTimeCurve",
    "CacheGeometry",
    "CachePowerModel",
    "ChipBuildTask",
    "ChipSampler",
    "SRAMChipSample",
    "DRAM3T1DChipSample",
    "CacheConfig",
    "LineCounterConfig",
    "RetentionAwareCache",
    "Core",
    "CoreConfig",
    "BenchmarkProfile",
    "SPEC2000_PROFILES",
    "SyntheticWorkload",
    "benchmark_names",
    "get_profile",
    "RetentionScheme",
    "SCHEME_GLOBAL",
    "SCHEME_NO_REFRESH_LRU",
    "SCHEME_PARTIAL_DSP",
    "SCHEME_RSP_FIFO",
    "SCHEME_RSP_LRU",
    "LINE_LEVEL_SCHEMES",
    "HEADLINE_SCHEMES",
    "get_scheme",
    "Cache3T1DArchitecture",
    "Cache6TArchitecture",
    "IdealCacheArchitecture",
    "Evaluator",
    "ChipEvaluation",
    "TraceArtifacts",
    "evaluate",
    "evaluate_many",
    "KernelSupport",
    "kernel_support",
    "simulate_trace",
    "YieldModel",
    "DEFAULT_EVALUATOR_CACHE_SIZE",
    "CacheStats",
    "CLIProgressReporter",
    "CompositeObserver",
    "CorruptedPayload",
    "CsvExport",
    "EngineConfig",
    "EngineEvent",
    "EvalTask",
    "EvaluatorSpec",
    "EventStream",
    "ExecutionService",
    "Experiment",
    "ExperimentContext",
    "FaultPlan",
    "InjectedFaultError",
    "JSONMetricsObserver",
    "JobHandle",
    "JobSpec",
    "JobStatus",
    "LOCAL_BACKEND",
    "NULL_OBSERVER",
    "ParallelChipRunner",
    "ResultCache",
    "RunJournal",
    "RunObserver",
    "RunnerStats",
    "SUBPROCESS_FLEET_BACKEND",
    "ShardedResultCache",
    "Span",
    "TracedResult",
    "Tracer",
    "activate",
    "all_experiments",
    "canonical_dumps",
    "decode_event",
    "dispatch",
    "encode_event",
    "get_experiment",
    "register_experiment",
    "resolve_cache",
    "span",
    "task_key",
    "tracing_active",
]
