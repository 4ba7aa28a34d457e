"""Pluggable technology backends behind one typed protocol.

The paper's central abstraction is deliberately narrow: all process
variation is lumped into a single per-line retention time, and everything
downstream -- refresh x placement schemes, :class:`ChipSampler` retention
maps, the batched/timeline kernels -- consumes only that abstraction.
:class:`TechnologyBackend` makes the abstraction explicit so alternative
cell technologies can be dropped underneath the unchanged scheme
machinery:

* :class:`DRAM3T1DBackend` -- the paper's 3T1D cell, a verbatim port of the
  original ``ChipSampler`` sampling loop (bit-identical draw order, so the
  default backend reproduces pre-backend outputs exactly).
* :class:`STTRAMBackend` -- an STT-RAM L1 with asymmetric read/write
  latency and energy, relaxed-retention banks, and DVFS-point-dependent
  retention scaling, after ARC (arxiv 2407.19612): retention follows
  ``tau0 * exp(Delta)`` in the thermal stability factor ``Delta``, relaxed
  banks trade stability for write energy, and a hotter/faster DVFS point
  erodes ``Delta``.
* :class:`VarDRAMBackend` -- a commodity-DRAM-style array with
  design-induced access-latency variation after Lee et al. (arxiv
  1610.09604): a cell's distance from its sense amplifiers sets a
  deterministic latency gradient, distant rows also restore less charge
  (shorter effective retention), and process variation adds a lognormal
  retention tail.

Backends register by name in a module-level registry; ``get_backend``
resolves the names the ``--technology`` CLI flag and
``ExperimentContext.technology`` accept.  Registration enforces full
protocol conformance (no partial duck-typing) -- mirrored statically by
linter rule API005.

The two non-3T1D models keep the paper's *trace-scale* framing: retention
times land in the same tens-of-microseconds window the 3T1D study
observes, so the existing benchmark traces exercise expiry/refresh
behaviour rather than trivially never (STT-RAM at seconds of retention) or
always (unscaled DRAM refresh windows) expiring.  They are design-point
models for comparing scheme machinery across technologies, not sign-off
device models.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import units
from repro.errors import ConfigurationError
from repro.technology import calibration
from repro.technology.node import TechnologyNode
from repro.variation.montecarlo import (
    SharedNormalField,
    continue_from,
    shared_generator,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.array.geometry import CacheGeometry
    from repro.variation.montecarlo import ChipVariation


# ---------------------------------------------------------------------------
# Typed payloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellTiming:
    """Intrinsic array timing of one backend at one node, seconds."""

    read_time: float
    write_time: float

    def __post_init__(self) -> None:
        if self.read_time <= 0 or self.write_time <= 0:
            raise ConfigurationError("cell timing values must be positive")


@dataclass(frozen=True)
class CellEnergy:
    """Per-access energy of one backend at one node, joules."""

    read_energy: float
    write_energy: float
    refresh_line_energy: float

    def __post_init__(self) -> None:
        if self.read_energy <= 0 or self.write_energy <= 0:
            raise ConfigurationError("access energies must be positive")
        if self.refresh_line_energy < 0:
            raise ConfigurationError("refresh_line_energy must be >= 0")

    @property
    def store_energy_premium(self) -> float:
        """Extra energy of a write over a read, joules (>= 0 clamped)."""
        return max(self.write_energy - self.read_energy, 0.0)


@dataclass(frozen=True)
class RefreshCost:
    """What a refresh pass costs -- or that the technology needs none."""

    needs_refresh: bool
    cycles_per_line: int
    energy_per_line: float

    def __post_init__(self) -> None:
        if self.cycles_per_line < 0 or self.energy_per_line < 0:
            raise ConfigurationError("refresh costs must be >= 0")


@dataclass(frozen=True)
class LatencyModel:
    """Pipeline view of a backend's access latency, in core cycles."""

    read_hit_cycles: int
    write_hit_cycles: int

    def __post_init__(self) -> None:
        if self.read_hit_cycles < 1:
            raise ConfigurationError("read_hit_cycles must be >= 1")
        if self.write_hit_cycles < self.read_hit_cycles:
            raise ConfigurationError(
                "write_hit_cycles must be >= read_hit_cycles (writes may be "
                "slower than reads, never faster)"
            )

    @property
    def write_extra_cycles(self) -> int:
        """Cycles a write hit spends beyond a read hit."""
        return self.write_hit_cycles - self.read_hit_cycles


@dataclass(frozen=True)
class DVFSPoint:
    """One voltage/frequency operating point, relative to nominal."""

    name: str = "nominal"
    vdd_scale: float = 1.0
    frequency_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.vdd_scale <= 0 or self.frequency_scale <= 0:
            raise ConfigurationError("DVFS scales must be positive")


DVFS_NOMINAL = DVFSPoint()


@dataclass(frozen=True)
class RetentionMap:
    """One sampled chip reduced to the per-line quantities schemes consume.

    ``latency_factor_by_line`` is ``None`` for technologies without
    design-induced latency variation; when present it holds each line's
    access-time multiplier relative to the nearest-to-sense-amps line.
    """

    retention_by_line: np.ndarray
    leakage_power: float
    latency_factor_by_line: Optional[np.ndarray] = None


#: Data words per line used for word-granularity retention minima
#: (512 data bits in 64-bit words; tag cells fold into word 0).
WORDS_PER_LINE: int = 8
_WORD_BITS: int = 64

#: Rows of a sub-array pair the 3T1D backend solves at a time.  Block
#: buffers stay small (128 x 544 cells is about 0.5 MB) while each
#: numpy call still covers tens of thousands of cells.
ROW_BLOCK: int = 128


def _map_shape(geometry: "CacheGeometry", words: bool) -> Tuple[int, ...]:
    """One map's retention array: a value per line, or a row of words."""
    if words:
        return (geometry.n_lines, WORDS_PER_LINE)
    return (geometry.n_lines,)


def _cell_minima(cell_retention: np.ndarray, words: bool) -> np.ndarray:
    """A (rows, cells) retention block's line minima, or its word minima.

    Shared by every backend so the word-level refresh study sees the
    same tag-folding convention regardless of technology.
    """
    if not words:
        return np.min(cell_retention, axis=1)
    rows, cells = cell_retention.shape
    data_bits = WORDS_PER_LINE * _WORD_BITS
    data_words = np.min(
        cell_retention[:, :data_bits].reshape(rows, WORDS_PER_LINE, _WORD_BITS),
        axis=2,
    )
    if cells > data_bits:
        tag_min = np.min(cell_retention[:, data_bits:], axis=1)
        data_words[:, 0] = np.minimum(data_words[:, 0], tag_min)
    return data_words


# ---------------------------------------------------------------------------
# The protocol
# ---------------------------------------------------------------------------

#: Methods every backend must implement; API005 enforces this statically
#: and :func:`register_backend` enforces it at registration time.
BACKEND_PROTOCOL_METHODS: Tuple[str, ...] = (
    "cell_timing",
    "cell_energy",
    "leakage_power",
    "nominal_retention_time",
    "sample_retention_map",
    "refresh_cost",
    "latency_model",
)


class TechnologyBackend(ABC):
    """One cell technology reduced to the surface the schemes consume.

    A backend owns the physics: how fast/expensive an access is, how much
    the array leaks, how long a line retains its value, and how process
    variation maps onto the per-line retention/latency arrays.  Everything
    above (refresh x placement schemes, kernels, experiments) is
    technology-agnostic.
    """

    #: Registry key; subclasses must override.
    name: str = ""

    @abstractmethod
    def cell_timing(self, node: TechnologyNode) -> CellTiming:
        """Intrinsic array read/write times at ``node``."""

    @abstractmethod
    def cell_energy(self, node: TechnologyNode) -> CellEnergy:
        """Per-access and per-refresh energies at ``node``."""

    @abstractmethod
    def leakage_power(
        self, node: TechnologyNode, geometry: "CacheGeometry"
    ) -> float:
        """Nominal (no-variation) leakage of the full array, watts."""

    @abstractmethod
    def nominal_retention_time(self, node: TechnologyNode) -> float:
        """No-variation retention time of one line, seconds."""

    @abstractmethod
    def sample_retention_map(
        self,
        chip: "ChipVariation",
        geometry: "CacheGeometry",
        rng: Optional[np.random.Generator] = None,
    ) -> RetentionMap:
        """Reduce one correlated-variation draw to per-line quantities.

        ``rng`` defaults to the chip's private generator; backends must
        consume it in a single documented draw order so a fixed chip seed
        reproduces the map bit for bit.
        """

    def sample_retention_maps(
        self,
        chips: Sequence["ChipVariation"],
        geometry: "CacheGeometry",
    ) -> List[RetentionMap]:
        """One map per operating point of one chip seed.

        ``chips`` are the same chip seed realised at several operating
        points (see :class:`~repro.array.chip.ChipBuildTask`).
        :meth:`_solve_maps` draws their shared per-cell fields once from
        one generator (checked by :func:`shared_generator`), and every
        point's generator then continues from its end state, so each map
        equals ``sample_retention_map(chip, geometry)`` bit for bit.  One
        point is one ``sample_retention_map`` call.
        """
        if len(chips) == 1:
            return [self.sample_retention_map(chips[0], geometry)]
        rng = shared_generator(chips)
        maps = self._solve_maps(chips, geometry, rng)
        continue_from(chips, rng)
        return maps

    def sample_word_retention(
        self, chip: "ChipVariation", geometry: "CacheGeometry"
    ) -> np.ndarray:
        """Per-word retention of one chip, ``(n_lines, WORDS_PER_LINE)``.

        The draws of ``sample_retention_map(chip, geometry)`` reduced per
        64-bit data word instead of per line (word 0 also covers the
        line's tag cells), so each row's minimum is that map's line
        retention bit for bit.  Only the word-level refresh study reads
        word maps; a chip build solves line minima only.
        """
        (rmap,) = self._solve_maps((chip,), geometry, chip.rng, words=True)
        return rmap.retention_by_line

    @abstractmethod
    def _solve_maps(
        self,
        chips: Sequence["ChipVariation"],
        geometry: "CacheGeometry",
        rng: np.random.Generator,
        words: bool = False,
    ) -> List[RetentionMap]:
        """Every point's map, drawing the shared per-cell fields from ``rng``.

        A backend draws in one documented order so that a fixed chip seed
        reproduces its maps bit for bit.  With ``words`` each map's
        ``retention_by_line`` holds the word minima of
        :meth:`sample_word_retention` instead of the line minima.
        """

    @abstractmethod
    def refresh_cost(
        self, node: TechnologyNode, geometry: "CacheGeometry"
    ) -> RefreshCost:
        """Cost of refreshing one line, or that no refresh is needed."""

    @abstractmethod
    def latency_model(
        self, node: TechnologyNode, geometry: "CacheGeometry"
    ) -> LatencyModel:
        """Pipeline hit latencies at ``node`` in core cycles."""


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, TechnologyBackend] = {}


def register_backend(
    backend: TechnologyBackend, replace: bool = False
) -> TechnologyBackend:
    """Register ``backend`` under its ``name``; returns it for chaining.

    Registration enforces full protocol conformance: the object must be a
    concrete :class:`TechnologyBackend` with every protocol method
    callable.  Partial duck-typing is rejected here (and statically by
    linter rule API005).
    """
    if not isinstance(backend, TechnologyBackend):
        raise ConfigurationError(
            f"backend must be a TechnologyBackend instance, got "
            f"{type(backend).__name__}"
        )
    missing = [
        method
        for method in BACKEND_PROTOCOL_METHODS
        if not callable(getattr(backend, method, None))
    ]
    if missing:
        raise ConfigurationError(
            f"backend {type(backend).__name__} does not satisfy the "
            f"TechnologyBackend protocol; missing {', '.join(missing)}"
        )
    name = backend.name
    if not isinstance(name, str) or not name:
        raise ConfigurationError(
            f"backend {type(backend).__name__} must define a non-empty "
            "string 'name'"
        )
    if name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"technology backend {name!r} is already registered; pass "
            "replace=True to override"
        )
    _REGISTRY[name] = backend
    return backend


def get_backend(name: str) -> TechnologyBackend:
    """Resolve a registered backend by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(backend_names()) or "<none>"
        raise ConfigurationError(
            f"unknown technology backend {name!r}; registered: {known}"
        ) from None


def backend_names() -> Tuple[str, ...]:
    """Names of all registered backends, sorted for stable CLI choices."""
    return tuple(sorted(_REGISTRY))


# ---------------------------------------------------------------------------
# Default backend: the paper's 3T1D cell
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DRAM3T1DBackend(TechnologyBackend):
    """The paper's 3T1D DRAM cell -- the default backend.

    ``sample_retention_map`` keeps the original
    ``ChipSampler._build_3t1d_sample`` draw order and arithmetic, now
    evaluated in place in row-block buffers, so chips sampled through the
    backend are bit-identical to pre-backend outputs.
    """

    name: str = "3t1d"

    def cell_timing(self, node: TechnologyNode) -> CellTiming:
        # The 3T1D cell is designed to match the 6T array access (section
        # 2.2); writes reuse the same array cycle.
        access = calibration.nominal_access_time(node)
        return CellTiming(read_time=access, write_time=access)

    def cell_energy(self, node: TechnologyNode) -> CellEnergy:
        port = calibration.port_access_energy(node, "3T1D")
        return CellEnergy(
            read_energy=port,
            write_energy=port,
            refresh_line_energy=calibration.refresh_line_energy(node),
        )

    def leakage_power(
        self, node: TechnologyNode, geometry: "CacheGeometry"
    ) -> float:
        from repro.cells.dram3t1d import DRAM3T1DCell

        return (
            DRAM3T1DCell(node).nominal_cell_leakage_power()
            * geometry.total_cells
        )

    def nominal_retention_time(self, node: TechnologyNode) -> float:
        return calibration.nominal_retention_time(node)

    def sample_retention_map(
        self,
        chip: "ChipVariation",
        geometry: "CacheGeometry",
        rng: Optional[np.random.Generator] = None,
    ) -> RetentionMap:
        rng = chip.rng if rng is None else rng
        return self._solve_maps((chip,), geometry, rng)[0]

    def _solve_maps(
        self,
        chips: Sequence["ChipVariation"],
        geometry: "CacheGeometry",
        rng: np.random.Generator,
        words: bool = False,
    ) -> List[RetentionMap]:
        """Every point's map, drawing each pair's fields once from ``rng``.

        The pair loop is outer.  Each pair's three fields are drawn at
        full size, in the documented order; each point is then solved
        :data:`ROW_BLOCK` rows at a time, so its scaled draws and solve
        temporaries stay block-sized however many points share the
        draws.  Cell leakage lands in one full-size buffer that is summed
        once per pair and point, in the order of a one-pass solve.
        """
        import repro.cells.dram3t1d as dram3t1d
        from repro.cells.dram3t1d import DRAM3T1DCell
        from repro.cells.retention import RetentionModel

        dram_cells = [DRAM3T1DCell(chip.node) for chip in chips]
        models = [RetentionModel(cell) for cell in dram_cells]
        sigma_vth = [
            chip.params.sigma_vth(chip.node) * dram3t1d.DEVICE_AREA_SIGMA_SCALE
            for chip in chips
        ]
        sigma_eps = [
            dram3t1d.DIODE_BOOST_SIGMA_FACTOR * chip.params.sigma_vth_rel
            for chip in chips
        ]
        rows = geometry.rows_per_pair
        cells = geometry.cells_per_line

        retention = [np.empty(_map_shape(geometry, words)) for _ in chips]
        leakage = [0.0 for _ in chips]
        shape = (rows, cells)
        # Draw order per pair: T1, T2, then boost mismatch.
        fields = (
            SharedNormalField(shape, sigma_vth),
            SharedNormalField(shape, sigma_vth),
            SharedNormalField(shape, sigma_eps),
        )
        # Every block is solved in place in these buffers, so a map
        # costs its draws plus a fixed number of passes over them.
        block = (min(rows, ROW_BLOCK), cells)
        scaled = [np.empty(block) for _ in fields]
        cell_retention, scratch = np.empty(block), np.empty(block)
        dead = np.empty(block, dtype=bool)
        cell_leakage = np.empty(shape)
        for pair in range(geometry.n_pairs):
            sub_a, sub_b = geometry.subarrays_of_pair(pair)
            line_ids = np.arange(rows) * geometry.n_pairs + pair
            for field in fields:
                field.draw(rng)
            for i, chip in enumerate(chips):
                delta_l = 0.5 * (
                    chip.delta_l_total(sub_a) + chip.delta_l_total(sub_b)
                )
                for start in range(0, rows, ROW_BLOCK):
                    span = slice(start, min(start + ROW_BLOCK, rows))
                    n = span.stop - start
                    d_t1, d_t2, eps = (
                        field.scaled(i, span, out=buffer[:n])
                        for field, buffer in zip(fields, scaled)
                    )
                    retention[i][line_ids[span]] = _cell_minima(
                        models[i].retention_time(
                            d_t1, d_t2, delta_l, eps, out=cell_retention[:n],
                            scratch=scratch[:n], mask=dead[:n],
                        ),
                        words,
                    )
                    # Supply leakage flows through the read stack; reuse
                    # the T2 draw.
                    dram_cells[i].leakage_power(
                        d_t2, delta_l, out=cell_leakage[span]
                    )
                leakage[i] += float(np.sum(cell_leakage))

        return [
            RetentionMap(retention_by_line=line, leakage_power=leak)
            for line, leak in zip(retention, leakage)
        ]

    def refresh_cost(
        self, node: TechnologyNode, geometry: "CacheGeometry"
    ) -> RefreshCost:
        return RefreshCost(
            needs_refresh=True,
            cycles_per_line=geometry.refresh_cycles_per_line,
            energy_per_line=calibration.refresh_line_energy(node),
        )

    def latency_model(
        self, node: TechnologyNode, geometry: "CacheGeometry"
    ) -> LatencyModel:
        cycles = geometry.access_latency_cycles
        return LatencyModel(read_hit_cycles=cycles, write_hit_cycles=cycles)


# ---------------------------------------------------------------------------
# STT-RAM backend (ARC, arxiv 2407.19612)
# ---------------------------------------------------------------------------

STTRAM_ATTEMPT_PERIOD: float = units.ns(1.0)
"""Thermal attempt period tau0 of the free layer, seconds (standard
1/f0 with f0 ~ 1 GHz)."""

STTRAM_THERMAL_STABILITY: float = 11.0
"""Nominal thermal stability factor Delta of the scaled free layer.

Deliberately an aggressively *relaxed-retention* design point (retention
tau0 * e^11 ~ 60 us): ARC's premise is that shrinking the free layer (or
raising temperature) trades non-volatility for write energy, pushing
retention down into the architectural window where refresh/expiry policies
matter.  Commodity STT-RAM sits at Delta ~ 40-60 (years)."""

STTRAM_STABILITY_SIGMA_FACTOR: float = 0.8
"""Random sigma of Delta, relative, as a multiple of the scenario's
sigma_Vth/Vth (free-layer volume and anisotropy mismatch track the same
lithographic tolerances)."""

STTRAM_STABILITY_L_COUPLING: float = 0.5
"""Correlated coupling of Delta to the sub-array gate-length deviation:
Delta scales with free-layer volume, so a longer-drawn region is more
stable.  Units: relative Delta per unit of relative gate length."""

STTRAM_RELAXED_BANK_FACTOR: float = 0.85
"""Delta multiplier of the relaxed-retention banks (odd sub-array pairs).
ARC provisions part of the array with a smaller free layer: cheaper writes,
shorter retention -- the placement schemes must steer around it."""

STTRAM_DVFS_STABILITY_SENSITIVITY: float = 2.0
"""Relative Delta lost per unit of supply overdrive: a faster/hotter DVFS
point raises junction temperature and read-disturb rates, eroding thermal
stability (Delta ~ 1/T).  ``delta *= 1 - k * (vdd_scale - 1)``."""

STTRAM_WRITE_TIME_FACTOR: float = 3.0
"""MTJ write pulse relative to the 6T array access time (spin-torque
switching needs nanosecond-class pulses)."""

STTRAM_READ_ENERGY_FACTOR: float = 0.8
"""Read energy relative to the 6T port access (small sensing currents)."""

STTRAM_WRITE_ENERGY_FACTOR: float = 6.0
"""Write energy relative to the 6T port access (switching current must
beat the thermal barrier)."""

STTRAM_PERIPHERY_LEAKAGE_SHARE: float = 0.08
"""Array leakage relative to the 6T cache: the MTJ cell itself is
non-volatile and leak-free; only CMOS periphery leaks."""


@dataclass(frozen=True)
class STTRAMBackend(TechnologyBackend):
    """Relaxed-retention STT-RAM with DVFS-dependent stability (ARC)."""

    name: str = "sttram"
    dvfs: DVFSPoint = DVFS_NOMINAL

    def _nominal_delta(self) -> float:
        """Thermal stability at this DVFS point (fully-retained banks)."""
        delta = STTRAM_THERMAL_STABILITY * (
            1.0
            - STTRAM_DVFS_STABILITY_SENSITIVITY * (self.dvfs.vdd_scale - 1.0)
        )
        if delta <= 0:
            raise ConfigurationError(
                f"DVFS point {self.dvfs.name!r} leaves no thermal stability"
            )
        return delta

    def cell_timing(self, node: TechnologyNode) -> CellTiming:
        access = calibration.nominal_access_time(node)
        return CellTiming(
            read_time=access,
            write_time=STTRAM_WRITE_TIME_FACTOR * access,
        )

    def cell_energy(self, node: TechnologyNode) -> CellEnergy:
        port = calibration.port_access_energy(node, "6T")
        read = STTRAM_READ_ENERGY_FACTOR * port
        write = STTRAM_WRITE_ENERGY_FACTOR * port
        return CellEnergy(
            read_energy=read,
            write_energy=write,
            # "Refresh" on relaxed-retention STT-RAM is a scrub: read the
            # line and rewrite it before the thermal barrier loses the bit
            # (ARC section IV), so a pass costs a full read + write.
            refresh_line_energy=read + write,
        )

    def leakage_power(
        self, node: TechnologyNode, geometry: "CacheGeometry"
    ) -> float:
        from repro.cells.sram6t import SRAM6TCell

        return (
            STTRAM_PERIPHERY_LEAKAGE_SHARE
            * SRAM6TCell(node).nominal_cell_leakage_power()
            * geometry.total_cells
        )

    def nominal_retention_time(self, node: TechnologyNode) -> float:
        return STTRAM_ATTEMPT_PERIOD * math.exp(self._nominal_delta())

    def sample_retention_map(
        self,
        chip: "ChipVariation",
        geometry: "CacheGeometry",
        rng: Optional[np.random.Generator] = None,
    ) -> RetentionMap:
        rng = chip.rng if rng is None else rng
        return self._solve_maps((chip,), geometry, rng)[0]

    def _solve_maps(
        self,
        chips: Sequence["ChipVariation"],
        geometry: "CacheGeometry",
        rng: np.random.Generator,
        words: bool = False,
    ) -> List[RetentionMap]:
        """Every point's map, drawing each pair's field once from ``rng``."""
        delta0 = self._nominal_delta()
        rows = geometry.rows_per_pair
        cells = geometry.cells_per_line

        retention = [np.empty(_map_shape(geometry, words)) for _ in chips]
        # Draw order: one (rows, cells) normal draw per sub-array pair, in
        # pair order.
        z = SharedNormalField((rows, cells), [
            STTRAM_STABILITY_SIGMA_FACTOR * chip.params.sigma_vth_rel
            for chip in chips
        ])
        for pair in range(geometry.n_pairs):
            sub_a, sub_b = geometry.subarrays_of_pair(pair)
            relax = (
                STTRAM_RELAXED_BANK_FACTOR if pair % 2 else 1.0
            )
            line_ids = np.arange(rows) * geometry.n_pairs + pair
            z.draw(rng)
            for i, chip in enumerate(chips):
                delta_l = 0.5 * (
                    chip.delta_l_total(sub_a) + chip.delta_l_total(sub_b)
                )
                correlated = 1.0 + STTRAM_STABILITY_L_COUPLING * (
                    delta_l / chip.node.feature_size
                )
                delta_cells = delta0 * relax * correlated * (1.0 + z.scaled(i))
                # A cell whose barrier collapses retains nothing.
                cell_retention = np.where(
                    delta_cells > 0,
                    STTRAM_ATTEMPT_PERIOD
                    * np.exp(np.minimum(delta_cells, 60.0)),
                    0.0,
                )
                retention[i][line_ids] = _cell_minima(cell_retention, words)

        return [
            RetentionMap(
                retention_by_line=retention[i],
                # Periphery leakage is CMOS and draw-independent.
                leakage_power=self.leakage_power(chip.node, geometry),
            )
            for i, chip in enumerate(chips)
        ]

    def refresh_cost(
        self, node: TechnologyNode, geometry: "CacheGeometry"
    ) -> RefreshCost:
        # Refresh schemes act as scrubbing here: a pass re-reads and
        # rewrites the line before thermal decay flips a bit, taking the
        # same sense-amp-limited cycles as a DRAM refresh pass.
        return RefreshCost(
            needs_refresh=True,
            cycles_per_line=geometry.refresh_cycles_per_line,
            energy_per_line=self.cell_energy(node).refresh_line_energy,
        )

    def latency_model(
        self, node: TechnologyNode, geometry: "CacheGeometry"
    ) -> LatencyModel:
        read_cycles = geometry.access_latency_cycles
        timing = self.cell_timing(node)
        extra_time = timing.write_time - timing.read_time
        frequency = node.frequency * self.dvfs.frequency_scale
        extra_cycles = int(math.ceil(extra_time * frequency))
        return LatencyModel(
            read_hit_cycles=read_cycles,
            write_hit_cycles=read_cycles + extra_cycles,
        )


# ---------------------------------------------------------------------------
# Variation-aware DRAM backend (Lee et al., arxiv 1610.09604)
# ---------------------------------------------------------------------------

VARDRAM_NOMINAL_RETENTION: float = units.us(40.0)
"""Nominal restore-limited retention window, seconds.  Trace-scaled: real
DRAM refresh windows are 32-64 ms, but the paper's benchmark traces span
microseconds, so the window is scaled into the observable range (same
framing the 3T1D study itself uses) while keeping the *relative* spread
from the Lee et al. distributions."""

VARDRAM_RETENTION_SIGMA_FACTOR: float = 1.2
"""Lognormal sigma of per-cell retention as a multiple of the scenario's
sigma_Vth/Vth (leaky-cell tails dominate DRAM retention statistics)."""

VARDRAM_LATENCY_SLOPE: float = 0.3
"""Design-induced latency gradient: the row farthest from its sense
amplifiers is 30% slower than the nearest (Lee et al. observe that
bitline/wordline position sets a deterministic access-time spread)."""

VARDRAM_LATENCY_JITTER_FACTOR: float = 0.4
"""Lognormal process jitter on the per-pair latency factor, as a multiple
of sigma_Vth/Vth, on top of the deterministic position gradient."""

VARDRAM_L_RETENTION_COUPLING: float = 2.0
"""Correlated coupling of retention to the sub-array gate length: a
shorter-drawn access transistor leaks more charge off the cell.
``retention *= exp(-k * delta_l / L)``."""

VARDRAM_READ_TIME_FACTOR: float = 1.5
"""DRAM sensing relative to the 6T array access (destructive read +
restore makes the array cycle longer)."""

VARDRAM_READ_ENERGY_FACTOR: float = 0.9
VARDRAM_WRITE_ENERGY_FACTOR: float = 1.1
"""Access energies relative to the 6T port access: opening a row costs,
but the 1T1C array moves less switched capacitance per bit."""

VARDRAM_LEAKAGE_SHARE: float = 0.05
"""Array leakage relative to the 6T cache: 1T1C cells have no static
supply-to-ground path; only periphery leaks."""


@dataclass(frozen=True)
class VarDRAMBackend(TechnologyBackend):
    """Commodity-style DRAM with design-induced latency variation."""

    name: str = "vardram"

    def cell_timing(self, node: TechnologyNode) -> CellTiming:
        access = VARDRAM_READ_TIME_FACTOR * calibration.nominal_access_time(
            node
        )
        return CellTiming(read_time=access, write_time=access)

    def cell_energy(self, node: TechnologyNode) -> CellEnergy:
        port = calibration.port_access_energy(node, "6T")
        return CellEnergy(
            read_energy=VARDRAM_READ_ENERGY_FACTOR * port,
            write_energy=VARDRAM_WRITE_ENERGY_FACTOR * port,
            refresh_line_energy=calibration.refresh_line_energy(node),
        )

    def leakage_power(
        self, node: TechnologyNode, geometry: "CacheGeometry"
    ) -> float:
        from repro.cells.sram6t import SRAM6TCell

        return (
            VARDRAM_LEAKAGE_SHARE
            * SRAM6TCell(node).nominal_cell_leakage_power()
            * geometry.total_cells
        )

    def nominal_retention_time(self, node: TechnologyNode) -> float:
        return VARDRAM_NOMINAL_RETENTION

    def sample_retention_map(
        self,
        chip: "ChipVariation",
        geometry: "CacheGeometry",
        rng: Optional[np.random.Generator] = None,
    ) -> RetentionMap:
        rng = chip.rng if rng is None else rng
        return self._solve_maps((chip,), geometry, rng)[0]

    def _solve_maps(
        self,
        chips: Sequence["ChipVariation"],
        geometry: "CacheGeometry",
        rng: np.random.Generator,
        words: bool = False,
    ) -> List[RetentionMap]:
        """Every point's map, drawing each pair's fields once from ``rng``."""
        rows = geometry.rows_per_pair
        cells = geometry.cells_per_line

        retention = [np.empty(_map_shape(geometry, words)) for _ in chips]
        latency_factor = [np.empty(geometry.n_lines) for _ in chips]
        # Deterministic position gradient: row r of a pair sits r/(rows-1)
        # of the way up the bitline from its sense amplifiers.
        distance = (
            np.arange(rows) / (rows - 1) if rows > 1 else np.zeros(rows)
        )
        position = 1.0 + VARDRAM_LATENCY_SLOPE * distance
        # Draw order per pair: one (rows,) latency-jitter draw, then one
        # (rows, cells) retention draw.
        jitter = SharedNormalField((rows,), [
            VARDRAM_LATENCY_JITTER_FACTOR * chip.params.sigma_vth_rel
            for chip in chips
        ])
        z = SharedNormalField((rows, cells), [
            VARDRAM_RETENTION_SIGMA_FACTOR * chip.params.sigma_vth_rel
            for chip in chips
        ])
        for pair in range(geometry.n_pairs):
            sub_a, sub_b = geometry.subarrays_of_pair(pair)
            line_ids = np.arange(rows) * geometry.n_pairs + pair
            jitter.draw(rng)
            z.draw(rng)
            for i, chip in enumerate(chips):
                delta_l = 0.5 * (
                    chip.delta_l_total(sub_a) + chip.delta_l_total(sub_b)
                )
                correlated = math.exp(
                    -VARDRAM_L_RETENTION_COUPLING * delta_l
                    / chip.node.feature_size
                )
                row_latency = position * np.exp(jitter.scaled(i))
                # Distant rows restore less charge each access, so their
                # effective retention shrinks by the same design factor
                # that slows them down (restore truncation, Lee et al.
                # section 5).
                cell_retention = (
                    VARDRAM_NOMINAL_RETENTION
                    * correlated
                    * np.exp(z.scaled(i))
                    / row_latency[:, None]
                )
                retention[i][line_ids] = _cell_minima(cell_retention, words)
                latency_factor[i][line_ids] = row_latency

        return [
            RetentionMap(
                retention_by_line=retention[i],
                leakage_power=self.leakage_power(chip.node, geometry),
                latency_factor_by_line=latency_factor[i],
            )
            for i, chip in enumerate(chips)
        ]

    def refresh_cost(
        self, node: TechnologyNode, geometry: "CacheGeometry"
    ) -> RefreshCost:
        return RefreshCost(
            needs_refresh=True,
            cycles_per_line=geometry.refresh_cycles_per_line,
            energy_per_line=calibration.refresh_line_energy(node),
        )

    def latency_model(
        self, node: TechnologyNode, geometry: "CacheGeometry"
    ) -> LatencyModel:
        base = geometry.access_latency_cycles
        extra_time = (VARDRAM_READ_TIME_FACTOR - 1.0) * (
            calibration.nominal_access_time(node)
        )
        extra_cycles = int(math.ceil(extra_time * node.frequency))
        cycles = base + extra_cycles
        return LatencyModel(read_hit_cycles=cycles, write_hit_cycles=cycles)


DEFAULT_TECHNOLOGY: str = "3t1d"

register_backend(DRAM3T1DBackend())
register_backend(STTRAMBackend())
register_backend(VarDRAMBackend())

__all__ = [
    "BACKEND_PROTOCOL_METHODS",
    "CellEnergy",
    "CellTiming",
    "DEFAULT_TECHNOLOGY",
    "DRAM3T1DBackend",
    "DVFSPoint",
    "DVFS_NOMINAL",
    "LatencyModel",
    "RefreshCost",
    "RetentionMap",
    "STTRAMBackend",
    "TechnologyBackend",
    "VarDRAMBackend",
    "backend_names",
    "get_backend",
    "register_backend",
]
