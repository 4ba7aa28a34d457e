"""Shared experiment plumbing: scale, seeding, and chip/evaluator caches.

Every figure driver takes an :class:`ExperimentContext`, which fixes the
Monte-Carlo scale (number of chips, trace length), memoises the expensive
inputs (chip batches per scenario, evaluators per configuration), and
owns the execution engine: a
:class:`~repro.engine.parallel.ParallelChipRunner` that fans chip builds
and evaluations across worker processes when ``workers > 1``, plus the
:class:`~repro.engine.observer.RunObserver` progress hooks.  Per-chip
seeds are reserved serially before any fan-out, so serial and parallel
runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.technology.node import NODE_32NM, TechnologyNode
from repro.technology.backends import get_backend
from repro.variation.parameters import VariationParams
from repro.array.chip import (
    ChipBuildTask,
    ChipSampler,
    DRAM3T1DChipSample,
    SRAMChipSample,
    merge_build_batches,
)
from repro.array.geometry import CacheGeometry
from repro.core.evaluation import Evaluator
from repro.engine.config import EngineConfig
from repro.engine.events import Subscriber
from repro.engine.observer import NULL_OBSERVER
from repro.engine.parallel import EvaluatorSpec, ParallelChipRunner


@dataclass
class ExperimentContext:
    """Scale, caching, and execution engine for one experiment run.

    ``n_chips`` / ``n_references`` default to paper scale (100 chips) and
    a laptop-sized trace; benches pass smaller values.  Execution knobs
    (pool width, caches, checkpointing, supervision) live exclusively on
    :attr:`engine` -- the legacy ``workers`` constructor keyword
    completed its deprecation cycle and was removed (a read-only mirror
    property remains).
    """

    node: TechnologyNode = NODE_32NM
    n_chips: int = 100
    n_references: int = 8000
    seed: int = 2007  # the paper's year; any fixed value works
    benchmarks: Optional[Sequence[str]] = None
    technology: str = "3t1d"
    """Registered technology backend name (see
    :func:`repro.technology.backend_names`).  The default 3T1D backend
    reproduces the paper; alternatives re-run the same experiments on the
    same workloads with a different cell technology underneath."""
    geometry: Optional[CacheGeometry] = None
    """L1 organisation the experiment studies.  ``None`` (the default)
    means the paper's 64KB / 4-way point; sweeps pass a
    :meth:`~repro.array.geometry.CacheGeometry.from_capacity` geometry
    and every chip batch, evaluator, and cache key follows it."""
    engine: Optional[EngineConfig] = None
    """The consolidated engine configuration (pool width, caches,
    checkpointing, supervision).  ``None`` means serial execution
    (``EngineConfig(workers=1)``), the historical default."""
    observer: Subscriber = field(
        default=NULL_OBSERVER, repr=False, compare=False
    )
    """Any typed-event subscriber (an
    :class:`~repro.engine.events.EventStream`, a legacy
    :class:`~repro.engine.observer.RunObserver`, or a bare callable)."""
    _chips_3t1d: Dict[str, List[DRAM3T1DChipSample]] = field(
        init=False, default_factory=dict, repr=False
    )
    _chips_sram: Dict[Tuple[str, float], List[SRAMChipSample]] = field(
        init=False, default_factory=dict, repr=False
    )
    _evaluators: Dict[
        Tuple[str, int, str, Optional[CacheGeometry]], Evaluator
    ] = field(init=False, default_factory=dict, repr=False)
    _runner: Optional[ParallelChipRunner] = field(
        init=False, default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.n_chips < 1:
            raise ConfigurationError("n_chips must be >= 1")
        if self.n_references < 1:
            raise ConfigurationError("n_references must be >= 1")
        get_backend(self.technology)  # fail fast on unknown backends
        if self.engine is None:
            self.engine = EngineConfig(workers=1)
        elif not isinstance(self.engine, EngineConfig):
            raise ConfigurationError(
                "engine must be an EngineConfig, got "
                f"{type(self.engine).__name__}"
            )

    # ------------------------------------------------------------------
    # read-only mirror of the engine's pool width (informational)
    # ------------------------------------------------------------------

    @property
    def workers(self) -> int:
        """The engine's effective pool width (read-only mirror)."""
        return self.engine.effective_workers

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------

    def with_overrides(self, **overrides) -> "ExperimentContext":
        """A derived context with the given fields replaced.

        Caches start fresh (the scale may have changed) but the engine's
        worker pool is shared with the parent, so a derived context does
        not spawn new processes.  Engine knobs are overridden by passing
        a whole ``engine=EngineConfig(...)`` (derive one from
        ``context.engine.replace(...)``).
        """
        for name in overrides:
            if name.startswith("_") or name not in self.__dataclass_fields__:
                raise ConfigurationError(
                    f"unknown ExperimentContext field {name!r}"
                )
        overrides.setdefault("engine", self.engine)
        derived = replace(self, **overrides)
        derived._runner = self._runner
        return derived

    def with_chips(self, n_chips: int) -> "ExperimentContext":
        """A derived context at a different Monte-Carlo chip count."""
        return self.with_overrides(n_chips=n_chips)

    def with_refs(self, n_references: int) -> "ExperimentContext":
        """A derived context at a different trace length."""
        return self.with_overrides(n_references=n_references)

    # ------------------------------------------------------------------
    # engine
    # ------------------------------------------------------------------

    @property
    def runner(self) -> ParallelChipRunner:
        """The (lazily created) chip-batch scheduler for this context.

        Its task store is keyed by task content digests, so a resumed
        run only restores results of byte-identical tasks.
        """
        if self._runner is None:
            self._runner = ParallelChipRunner(config=self.engine)
        return self._runner

    @runner.setter
    def runner(self, runner: ParallelChipRunner) -> None:
        """Install a runner built elsewhere (the job service's, which
        borrows the service's fleet); derived contexts share it."""
        self._runner = runner

    def close(self) -> None:
        """Shut down the worker pool, if one was started."""
        if self._runner is not None:
            self._runner.close()
            self._runner = None

    def __enter__(self) -> "ExperimentContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def cache_fingerprint(self) -> str:
        """The part of the result-cache key this context contributes.

        Workers and observers are excluded: they never change results.
        """
        benchmarks = (
            ",".join(self.benchmarks) if self.benchmarks is not None else "*"
        )
        node = (
            f"{self.node.name}@{self.node.frequency:g}Hz"
            f"/{self.node.vdd:g}V/{self.node.vth:g}V"
        )
        fingerprint = (
            f"node={node}|chips={self.n_chips}|refs={self.n_references}"
            f"|seed={self.seed}|benchmarks={benchmarks}"
        )
        # Appended only for non-default backends so pre-backend journals,
        # cache entries, and run keys stay valid for 3T1D runs.
        if self.technology != "3t1d":
            fingerprint += f"|technology={self.technology}"
        # Same pattern for geometry: the paper point keeps its
        # historical fingerprint.
        if self.geometry is not None and self.geometry != CacheGeometry():
            fingerprint += f"|geometry={self.geometry.signature}"
        return fingerprint

    # ------------------------------------------------------------------
    # cached inputs
    # ------------------------------------------------------------------

    def scenario(self, name: str) -> VariationParams:
        """Variation scenario by name ('typical' / 'severe' / 'none')."""
        factories = {
            "typical": VariationParams.typical,
            "severe": VariationParams.severe,
            "none": VariationParams.none,
        }
        try:
            return factories[name]()
        except KeyError:
            raise ConfigurationError(
                f"unknown scenario {name!r}; expected one of {sorted(factories)}"
            ) from None

    def chips_3t1d(self, scenario: str) -> List[DRAM3T1DChipSample]:
        """The cached Monte-Carlo 3T1D chip batch for ``scenario``."""
        return self.chips_3t1d_batches((scenario,))[scenario]

    def chips_3t1d_batches(
        self, scenarios: Sequence[str]
    ) -> Dict[str, List[DRAM3T1DChipSample]]:
        """The cached 3T1D chip batches of ``scenarios``, by scenario.

        Every scenario reserves the same chip seeds, so the uncached ones
        are built in one request that draws each chip's per-cell fields
        once for all of them (see :meth:`_build_batches`).  A driver asks
        for every scenario it reads at once; nothing else is built.
        """
        name = "3T1D" if self.technology == "3t1d" else self.technology
        return self._build_batches(
            self._chips_3t1d, scenarios,
            lambda scenario: ChipSampler(
                self.node,
                self.scenario(scenario),
                seed=self.seed,
                technology=self.technology,
                **self._sampler_geometry(),
            ).reserve_build_tasks(self.n_chips, kind="3t1d"),
            lambda todo: f"sample {name} chips ({', '.join(todo)})",
        )

    def chips_sram(
        self, scenario: str, size_factor: float = 1.0
    ) -> List[SRAMChipSample]:
        """The cached Monte-Carlo 6T chip batch for ``scenario``."""
        key = (scenario, size_factor)
        return self.chips_sram_batches((key,))[key]

    def chips_sram_batches(
        self, keys: Sequence[Tuple[str, float]]
    ) -> Dict[Tuple[str, float], List[SRAMChipSample]]:
        """The cached 6T chip batches of ``(scenario, size_factor)`` keys.

        Built like :meth:`chips_3t1d_batches`: one request, each chip's
        fields drawn once for every uncached key.
        """
        return self._build_batches(
            self._chips_sram, keys,
            lambda key: ChipSampler(
                self.node,
                self.scenario(key[0]),
                seed=self.seed + 17,
                **self._sampler_geometry(),
            ).reserve_build_tasks(
                self.n_chips, kind="sram", size_factor=key[1]
            ),
            lambda todo: "sample 6T chips ({})".format("; ".join(
                f"{scenario}, {size_factor:g}X"
                for scenario, size_factor in todo
            )),
        )

    def _build_batches(
        self,
        cache: Dict[Any, List[Any]],
        keys: Sequence[Any],
        reserve: Callable[[Any], List[ChipBuildTask]],
        label: Callable[[List[Any]], str],
    ) -> Dict[Any, List[Any]]:
        """Build the uncached batches of ``keys`` in one runner request.

        ``reserve(key)`` reserves a key's one-point tasks.  The keys
        reserve the same chip seeds, so the batches with per-cell
        variation merge chip by chip (:func:`merge_build_batches`): one
        build draws a chip's fields once and solves every key from them,
        bit-identically to building each key on its own.  A scenario
        without per-cell variation draws nothing to share, so its
        one-point tasks join the same request unmerged.  Each key's batch
        is cached as it would be on its own.
        """
        todo = [key for key in dict.fromkeys(keys) if key not in cache]
        if todo:
            batches = {key: reserve(key) for key in todo}
            shared = [
                key for key in todo
                if batches[key][0].points[0].params.sigma_vth_rel > 0
            ]
            alone = [key for key in todo if key not in shared]
            tasks = merge_build_batches([batches[key] for key in shared])
            for key in alone:
                tasks.extend(batches[key])
            samples = self.runner.build_chips(
                tasks, observer=self.observer, label=label(todo)
            )
            # Merged tasks come first, one sample per shared key each;
            # then each unmerged batch in turn.
            stride, end = len(shared), len(shared) * self.n_chips
            for offset, key in enumerate(shared):
                cache[key] = samples[offset:end:stride]
            for key in alone:
                cache[key] = samples[end:end + self.n_chips]
                end += self.n_chips
        return {key: cache[key] for key in keys}

    def _sampler_geometry(self) -> Dict[str, CacheGeometry]:
        """Extra :class:`ChipSampler` kwargs for a non-default geometry.

        Empty at the paper point so the historical call (and its chip
        sequence) stays byte-identical.
        """
        if self.geometry is None:
            return {}
        return {"geometry": self.geometry}

    def evaluator_spec(
        self,
        ways: Optional[int] = None,
        geometry: Optional[CacheGeometry] = None,
    ) -> EvaluatorSpec:
        """The spec workers use to rebuild this context's evaluator.

        ``geometry`` defaults to the context's; when one is in play,
        ``ways`` re-derives the set/way indexing through
        :meth:`~repro.array.geometry.CacheGeometry.with_ways` (the
        physical layout stays pinned).  With no geometry anywhere the
        legacy ways-only spec is returned unchanged.
        """
        geometry = geometry if geometry is not None else self.geometry
        if geometry is not None and ways is not None and ways != geometry.ways:
            geometry = geometry.with_ways(ways)
        return EvaluatorSpec(
            node=self.node,
            ways=geometry.ways if geometry is not None else (
                4 if ways is None else ways
            ),
            n_references=self.n_references,
            seed=self.seed,
            benchmarks=tuple(self.benchmarks) if self.benchmarks else None,
            technology=self.technology,
            geometry=geometry,
        )

    def evaluator(
        self,
        ways: Optional[int] = None,
        geometry: Optional[CacheGeometry] = None,
    ) -> Evaluator:
        """The cached evaluator for a configuration (traces shared)."""
        spec = self.evaluator_spec(ways, geometry)
        key = (self.node.name, spec.ways, self.technology, spec.geometry)
        if key not in self._evaluators:
            self._evaluators[key] = spec.build()
        return self._evaluators[key]
