"""Chip-level Monte-Carlo sampling (the paper's "100 sample chips").

Each sampled chip freezes one draw of die-to-die, correlated within-die,
and random per-device variation, and reduces it to the quantities the
architecture study consumes:

* **6T chips** (:class:`SRAMChipSample`): the slowest cell sets the chip
  frequency (Figure 6a); threshold mismatch sets the count of unstable
  bits (section 2.1); per-cell leakage sums into chip leakage (Figure 7a).
* **3T1D chips** (:class:`DRAM3T1DChipSample`): every line gets the
  retention time of its worst cell (Figure 8); the worst line sets the
  global-scheme retention (Figure 6b); leakage sums as for 6T but with the
  3T1D cell's compressed sensitivity (Figure 7b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.technology.node import TechnologyNode
from repro.variation.montecarlo import (
    ChipVariation,
    SharedNormalField,
    VariationSampler,
    continue_from,
    shared_generator,
    validate_chip_count,
)
from repro.variation.parameters import VariationParams
from repro.cells.dram3t1d import DRAM3T1DCell
from repro.cells.retention import RetentionModel
from repro.cells.sram6t import SRAM6TCell
from repro.array import cactimodel
from repro.array.geometry import CacheGeometry
from repro.technology.backends import (
    DEFAULT_TECHNOLOGY,
    TechnologyBackend,
    get_backend,
)


@dataclass(frozen=True)
class SRAMChipSample:
    """One fabricated 6T-cache chip under process variation."""

    node: TechnologyNode
    cell_label: str
    chip_id: int
    worst_access_time: float
    nominal_access_time: float
    leakage_power: float
    golden_leakage_power: float
    flip_count: int
    total_cells: int
    access_time_by_line: Optional[np.ndarray] = None
    """Optional per-line worst access time in seconds (flat line-id
    order), for variable-latency 6T studies; its maximum equals
    ``worst_access_time``."""

    def slow_line_fraction(self, budget_seconds: float) -> float:
        """Fraction of lines slower than an access-time budget."""
        if self.access_time_by_line is None:
            raise ConfigurationError(
                "chip sample carries no per-line access times; resample "
                "with the current ChipSampler"
            )
        if budget_seconds <= 0:
            raise ConfigurationError("budget_seconds must be positive")
        return float(np.mean(self.access_time_by_line > budget_seconds))

    @property
    def normalized_frequency(self) -> float:
        """Chip frequency relative to the ideal design (Figure 6a x-axis).

        The slowest cell's access path sets the cycle; 1.0 is the
        no-variation design, values above 1.0 are chips that bin faster.
        """
        return self.nominal_access_time / self.worst_access_time

    @property
    def frequency(self) -> float:
        """Absolute chip frequency in Hz."""
        return self.normalized_frequency * self.node.frequency

    @property
    def normalized_leakage(self) -> float:
        """Leakage relative to the golden (no-variation) design (Figure 7)."""
        return self.leakage_power / self.golden_leakage_power

    @property
    def flip_rate(self) -> float:
        """Fraction of bits that are read-unstable."""
        return self.flip_count / self.total_cells


@dataclass(frozen=True)
class DRAM3T1DChipSample:
    """One fabricated 3T1D-cache chip under process variation.

    ``retention_by_line`` holds each line's retention time in seconds,
    indexed by flat line id (``set * ways + way``); a zero means the line
    is dead (cannot be read at 6T speed even right after a write).
    """

    node: TechnologyNode
    geometry: CacheGeometry
    chip_id: int
    retention_by_line: np.ndarray
    leakage_power: float
    golden_leakage_power: float
    retention_by_word: Optional[np.ndarray] = None
    """Optional per-word retention, shape ``(n_lines, words_per_line)``;
    word 0 also covers the line's tag cells.  Populated by the sampler to
    support word-granularity refresh studies; the per-line values are the
    row-wise minima of this array."""
    technology: str = DEFAULT_TECHNOLOGY
    """Registered technology backend this chip was sampled with.  The
    class name predates the backend protocol; a sample is the generic
    per-line retention map any registered backend produces."""
    latency_factor_by_line: Optional[np.ndarray] = None
    """Optional per-line access-time multiplier (design-induced latency
    variation, e.g. the vardram backend); ``None`` for uniform-latency
    technologies."""

    def __post_init__(self) -> None:
        if self.retention_by_line.shape != (self.geometry.n_lines,):
            raise ConfigurationError(
                f"retention_by_line must have shape ({self.geometry.n_lines},), "
                f"got {self.retention_by_line.shape}"
            )
        if self.retention_by_word is not None:
            if (
                self.retention_by_word.ndim != 2
                or self.retention_by_word.shape[0] != self.geometry.n_lines
            ):
                raise ConfigurationError(
                    "retention_by_word must have one row per line"
                )
        if self.latency_factor_by_line is not None:
            if self.latency_factor_by_line.shape != (self.geometry.n_lines,):
                raise ConfigurationError(
                    "latency_factor_by_line must have one entry per line"
                )

    @property
    def mean_latency_factor(self) -> float:
        """Mean design-induced latency multiplier (1.0 when uniform)."""
        if self.latency_factor_by_line is None:
            return 1.0
        return float(np.mean(self.latency_factor_by_line))

    @property
    def retention_grid(self) -> np.ndarray:
        """Retention times as a ``(n_sets, ways)`` grid, seconds."""
        return self.retention_by_line.reshape(
            self.geometry.n_sets, self.geometry.ways
        )

    @property
    def chip_retention_time(self) -> float:
        """Global-scheme retention: the worst line limits the whole cache."""
        return float(np.min(self.retention_by_line))

    @property
    def mean_line_retention(self) -> float:
        """Mean per-line retention time, seconds."""
        return float(np.mean(self.retention_by_line))

    def dead_lines(self, threshold: float = 0.0) -> np.ndarray:
        """Boolean mask of lines whose retention is at or below ``threshold``.

        The paper also counts a line as dead when its retention is below
        the minimal line-counter step; pass that step as ``threshold``.
        """
        if threshold < 0:
            raise ConfigurationError("threshold must be >= 0")
        return self.retention_by_line <= threshold

    def dead_line_fraction(self, threshold: float = 0.0) -> float:
        """Fraction of cache lines that are dead."""
        return float(np.mean(self.dead_lines(threshold)))

    def is_discarded_under_global_scheme(self, threshold: float = 0.0) -> bool:
        """True if the global refresh scheme cannot operate this chip.

        One dead line forces the global retention to zero, so the chip
        must be discarded (paper section 4.3).
        """
        return bool(np.any(self.dead_lines(threshold)))

    @property
    def normalized_leakage(self) -> float:
        """Leakage relative to the *golden 6T* design (Figure 7b x-axis)."""
        return self.leakage_power / self.golden_leakage_power

    def with_geometry(self, geometry: CacheGeometry) -> "DRAM3T1DChipSample":
        """Re-interpret the same physical chip with a different associativity.

        The physical lines and their retention times are unchanged; only
        the (set, way) interpretation moves.  Used by the Figure 11 sweep.
        """
        if geometry.n_lines != self.geometry.n_lines:
            raise ConfigurationError(
                "can only re-interpret a chip with the same total line count"
            )
        return DRAM3T1DChipSample(
            node=self.node,
            geometry=geometry,
            chip_id=self.chip_id,
            retention_by_line=self.retention_by_line,
            leakage_power=self.leakage_power,
            golden_leakage_power=self.golden_leakage_power,
            retention_by_word=self.retention_by_word,
            technology=self.technology,
            latency_factor_by_line=self.latency_factor_by_line,
        )


@dataclass(frozen=True)
class OperatingPoint:
    """One (node, variation scenario, 6T cell size) a chip is solved at."""

    node: TechnologyNode
    params: VariationParams
    size_factor: float = 1.0
    """6T cell size factor; ignored for 3T1D builds."""


@dataclass(frozen=True)
class ChipBuildTask:
    """A reserved chip draw that can be realized in any process.

    The ``(chip_id, chip_seed)`` pair was reserved serially from a
    :class:`~repro.variation.montecarlo.VariationSampler` root generator
    (see :meth:`ChipSampler.reserve_build_tasks`), so realizing tasks in
    parallel -- in any order, on any process -- reproduces the exact chip
    sequence a serial ``sample_*_chips`` loop would have drawn.

    ``points`` are the operating points the chip is solved at.  Reserved
    tasks carry one; ``ParallelChipRunner.build_chips`` joins the points
    of tasks that reserved the same chip, so that one build draws the
    chip's per-cell fields once and solves every point from them,
    bit-identically to building each point on its own.
    """

    points: Tuple[OperatingPoint, ...]
    geometry: CacheGeometry
    kind: str
    """``"3t1d"`` or ``"sram"``."""
    chip_id: int
    chip_seed: int
    technology: str = DEFAULT_TECHNOLOGY
    """Backend name used for ``kind == "3t1d"`` (retention-map) builds."""

    def __post_init__(self) -> None:
        if self.kind not in ("3t1d", "sram"):
            raise ConfigurationError(
                f"unknown chip kind {self.kind!r}; expected '3t1d' or 'sram'"
            )
        if not self.points:
            raise ConfigurationError("a chip build needs an operating point")
        if len(self.points) > 1 and any(
            point.params.sigma_vth_rel <= 0 for point in self.points
        ):
            # A zero sigma draws nothing, so such a point cannot share
            # the other points' fields.
            raise ConfigurationError(
                "operating points of one build need per-cell variation "
                "(sigma_vth_rel > 0) each"
            )

    def build(self) -> Tuple[Union[DRAM3T1DChipSample, SRAMChipSample], ...]:
        """Realize the reserved chip: one sample per operating point."""
        # Deferred: the repro.engine package imports this module.
        from repro.engine.trace import span

        with span(
            "array.chip.build", cat="build", kind=self.kind,
            technology=self.technology, points=len(self.points),
        ):
            chips = [
                ChipSampler(
                    point.node, point.params, geometry=self.geometry,
                )._sampler.chip_from_seed(self.chip_id, self.chip_seed)
                for point in self.points
            ]
            if self.kind == "3t1d":
                return tuple(_dram_samples(
                    chips, self.geometry, get_backend(self.technology)
                ))
            return tuple(_sram_samples(
                chips, [point.size_factor for point in self.points],
                self.geometry,
            ))


def _sram_samples(
    chips: Sequence[ChipVariation],
    size_factors: Sequence[float],
    geometry: CacheGeometry,
) -> List[SRAMChipSample]:
    """6T samples of one chip seed at each point, sharing its draws.

    The pair loop is outer and the point loop inner; each pair's two
    Vth fields are drawn once (see :class:`SharedNormalField`).
    """
    rng = shared_generator(chips)
    cells_6t = [
        SRAM6TCell(chip.node, size_factor=size_factor)
        for chip, size_factor in zip(chips, size_factors)
    ]
    sigma_vth_min = [chip.params.sigma_vth(chip.node) for chip in chips]
    rows = geometry.rows_per_pair
    cells = geometry.cells_per_line

    access_by_line = [np.empty(geometry.n_lines) for _ in chips]
    leakage = [0.0 for _ in chips]
    # Every pair is evaluated in place in these buffers.  Draw order per
    # pair: the access-path Vth, then the leakage-path Vth, both into
    # the one field.
    shape = (rows, cells)
    vth = SharedNormalField(shape, [
        sigma * cell.mismatch_scale
        for sigma, cell in zip(sigma_vth_min, cells_6t)
    ])
    cell_values = np.empty(shape)
    dead = np.empty(shape, dtype=bool)
    for pair in range(geometry.n_pairs):
        sub_a, sub_b = geometry.subarrays_of_pair(pair)
        line_ids = np.arange(rows) * geometry.n_pairs + pair
        delta_l = [
            0.5 * (chip.delta_l_total(sub_a) + chip.delta_l_total(sub_b))
            for chip in chips
        ]
        vth.draw(rng)
        for i, cell in enumerate(cells_6t):
            periphery = float(cell.periphery_delay_factor(delta_l[i]))
            access = cell.access_time(
                delta_vth=vth.scaled(i), delta_l=delta_l[i],
                periphery_factor=periphery, out=cell_values, mask=dead,
            )
            access_by_line[i][line_ids] = np.max(access, axis=1)
        vth.draw(rng)
        for i, cell in enumerate(cells_6t):
            leakage[i] += float(np.sum(cell.leakage_power(
                vth.scaled(i), delta_l[i], out=cell_values
            )))
    continue_from(chips, rng)

    samples = []
    for i, (chip, cell) in enumerate(zip(chips, cells_6t)):
        p_flip = cell.flip_probability(sigma_vth_min[i])
        samples.append(SRAMChipSample(
            node=chip.node,
            cell_label=cell.label,
            chip_id=chip.chip_id,
            worst_access_time=float(np.max(access_by_line[i])),
            nominal_access_time=cell.nominal_access_time(),
            # Banking periphery leakage (sense columns, row drivers,
            # control) relative to the paper layout; an exact no-op for
            # the paper's organisation, so default-geometry chips stay
            # bit-identical.
            leakage_power=cactimodel.scale_chip_leakage(
                leakage[i], geometry
            ),
            golden_leakage_power=cactimodel.scale_chip_leakage(
                cell.nominal_cell_leakage_power() * geometry.total_cells,
                geometry,
            ),
            # Each point's generator continues from the shared draws.
            flip_count=(
                int(chip.rng.binomial(geometry.total_cells, p_flip))
                if p_flip > 0
                else 0
            ),
            total_cells=geometry.total_cells,
            access_time_by_line=access_by_line[i],
        ))
    return samples


def _dram_samples(
    chips: Sequence[ChipVariation],
    geometry: CacheGeometry,
    backend: TechnologyBackend,
) -> List[DRAM3T1DChipSample]:
    """3T1D samples of one chip seed at each point, through ``backend``."""
    maps = backend.sample_retention_maps(chips, geometry)
    return [
        DRAM3T1DChipSample(
            node=chip.node,
            geometry=geometry,
            chip_id=chip.chip_id,
            retention_by_line=rmap.retention_by_line,
            leakage_power=cactimodel.scale_chip_leakage(
                rmap.leakage_power, geometry
            ),
            golden_leakage_power=cactimodel.scale_chip_leakage(
                rmap.golden_leakage_power, geometry
            ),
            retention_by_word=rmap.retention_by_word,
            technology=backend.name,
            latency_factor_by_line=rmap.latency_factor_by_line,
        )
        for chip, rmap in zip(chips, maps)
    ]


@dataclass
class ChipSampler:
    """Draws fabricated-chip samples for one node and variation scenario.

    A single sampler instance produces a deterministic chip sequence for a
    given ``seed``; 6T and 3T1D samples drawn at the same position in the
    sequence share the same correlated-variation draw, mimicking "the same
    wafer corner built both ways".
    """

    node: TechnologyNode
    params: VariationParams
    seed: int = 0
    geometry: CacheGeometry = field(default_factory=CacheGeometry)
    technology: str = DEFAULT_TECHNOLOGY
    """Registered backend that maps variation draws to retention maps for
    the ``sample_3t1d_*`` entry points (6T sampling is backend-independent
    -- it is the normalisation reference)."""
    _sampler: VariationSampler = field(init=False, repr=False)
    _backend: TechnologyBackend = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._backend = get_backend(self.technology)
        # The correlation grid follows the geometry's die placement: the
        # paper's 8 sub-arrays land on the historical 2 x 4 layout, and
        # swept geometries get their own most-square grid with enough
        # quad-tree levels to resolve it.
        die_rows, die_cols = self.geometry.die_grid
        levels = max(3, (max(die_rows, die_cols) - 1).bit_length())
        self._sampler = VariationSampler(
            node=self.node,
            params=self.params,
            seed=self.seed,
            subarray_rows=die_rows,
            subarray_cols=die_cols,
            quadtree_levels=levels,
        )

    # ------------------------------------------------------------------
    # batch reservation (parallel sampling)
    # ------------------------------------------------------------------

    def reserve_build_tasks(
        self, count: int, kind: str = "3t1d", size_factor: float = 1.0
    ) -> List[ChipBuildTask]:
        """Reserve ``count`` upcoming draws as self-contained build tasks.

        Reservation consumes the root generator exactly like serial
        sampling, so ``[t.build()[0] for t in tasks]`` -- or realizing
        the tasks across worker processes -- equals ``sample_3t1d_chips``
        / ``sample_sram_chips`` bit for bit.  Each task has one operating
        point; ``ParallelChipRunner.build_chips`` shares draws between
        batches that reserved the same chips.
        """
        if kind not in ("3t1d", "sram"):
            raise ConfigurationError(
                f"unknown chip kind {kind!r}; expected '3t1d' or 'sram'"
            )
        return [
            ChipBuildTask(
                points=(OperatingPoint(self.node, self.params, size_factor),),
                geometry=self.geometry,
                kind=kind,
                chip_id=chip_id,
                chip_seed=chip_seed,
                technology=self.technology,
            )
            for chip_id, chip_seed in self._sampler.reserve_chip_seeds(count)
        ]

    # ------------------------------------------------------------------
    # 6T sampling
    # ------------------------------------------------------------------

    def sample_sram_chip(self, size_factor: float = 1.0) -> SRAMChipSample:
        """Draw the next chip built with 6T cells of ``size_factor``."""
        chip = self._sampler.sample_chip()
        return self._build_sram_sample(chip, size_factor)

    def sample_sram_chips(
        self, count: int, size_factor: float = 1.0
    ) -> List[SRAMChipSample]:
        """Draw ``count`` consecutive 6T chips."""
        return [
            self.sample_sram_chip(size_factor)
            for _ in range(validate_chip_count(count))
        ]

    def _build_sram_sample(
        self, chip: ChipVariation, size_factor: float
    ) -> SRAMChipSample:
        return _sram_samples((chip,), (size_factor,), self.geometry)[0]

    # ------------------------------------------------------------------
    # 3T1D sampling
    # ------------------------------------------------------------------

    def sample_3t1d_chip(self) -> DRAM3T1DChipSample:
        """Draw the next chip built with 3T1D cells."""
        chip = self._sampler.sample_chip()
        return self._build_3t1d_sample(chip)

    def sample_3t1d_chips(self, count: int) -> List[DRAM3T1DChipSample]:
        """Draw ``count`` consecutive 3T1D chips."""
        return [
            self.sample_3t1d_chip()
            for _ in range(validate_chip_count(count))
        ]

    def _build_3t1d_sample(self, chip: ChipVariation) -> DRAM3T1DChipSample:
        return _dram_samples((chip,), self.geometry, self._backend)[0]

    # ------------------------------------------------------------------
    # golden references
    # ------------------------------------------------------------------

    @classmethod
    def golden_sram_chip(
        cls,
        node: TechnologyNode,
        size_factor: float = 1.0,
        geometry: Optional[CacheGeometry] = None,
    ) -> SRAMChipSample:
        """The no-variation 6T chip (the normalisation reference)."""
        geometry = geometry or CacheGeometry()
        cell = SRAM6TCell(node, size_factor=size_factor)
        golden_leak = cactimodel.scale_chip_leakage(
            cell.nominal_cell_leakage_power() * geometry.total_cells, geometry
        )
        return SRAMChipSample(
            node=node,
            cell_label=cell.label,
            chip_id=-1,
            worst_access_time=cell.nominal_access_time(),
            nominal_access_time=cell.nominal_access_time(),
            leakage_power=golden_leak,
            golden_leakage_power=golden_leak,
            flip_count=0,
            total_cells=geometry.total_cells,
        )

    @classmethod
    def golden_3t1d_chip(
        cls,
        node: TechnologyNode,
        geometry: Optional[CacheGeometry] = None,
    ) -> DRAM3T1DChipSample:
        """The no-variation 3T1D chip: every line at nominal retention."""
        geometry = geometry or CacheGeometry()
        cell = DRAM3T1DCell(node)
        model = RetentionModel(cell)
        nominal = model.nominal_retention_time()
        sram_golden = cactimodel.scale_chip_leakage(
            SRAM6TCell(node).nominal_cell_leakage_power()
            * geometry.total_cells,
            geometry,
        )
        return DRAM3T1DChipSample(
            node=node,
            geometry=geometry,
            chip_id=-1,
            retention_by_line=np.full(geometry.n_lines, nominal),
            leakage_power=cactimodel.scale_chip_leakage(
                cell.nominal_cell_leakage_power() * geometry.total_cells,
                geometry,
            ),
            golden_leakage_power=sram_golden,
        )
