"""Sub-array timing: access-path assembly and refresh timing.

:class:`SubArrayTiming` turns per-cell drive-current factors into array
access times for one sub-array (used by the 6T chip sampler to find the
frequency-limiting cell).  :class:`RefreshTiming` converts the geometry's
refresh cycle counts into wall-clock numbers at a node's frequency --
reproducing the paper's "2K cycles, 476.3ns at 4.3GHz" bookkeeping from
section 4.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.errors import ConfigurationError
from repro.technology import calibration
from repro.technology.node import TechnologyNode
from repro.technology.wire import WireModel
from repro.array import cactimodel
from repro.array.geometry import CacheGeometry

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class SubArrayTiming:
    """Access-path timing of one 256x256 sub-array at a node.

    The calibrated nominal access time is decomposed into a bitline share
    (per-cell drive), a wordline/decoder share (sub-array periphery), and a
    fixed sense-amp share (see :mod:`repro.technology.calibration`).  The
    wire model provides a sanity check that the physical bitline RC at the
    node is comfortably inside the calibrated bitline budget.
    """

    node: TechnologyNode
    geometry: CacheGeometry = CacheGeometry()

    @property
    def geometry_time_factor(self) -> float:
        """Access-time scaling of this organisation vs. the paper's.

        The CACTI-calibrated banking model (DESIGN 3h): bitline RC with
        rows, wordline RC with columns, H-tree routing with die extent,
        port loading.  Exactly 1.0 for the paper organisation.
        """
        return cactimodel.access_time_factor(self.geometry)

    @property
    def nominal_access_time(self) -> float:
        """Ideal array access time at this node, seconds.

        The node calibration anchors the paper organisation; other
        geometries scale by :attr:`geometry_time_factor`.
        """
        base = calibration.nominal_access_time(self.node)
        factor = self.geometry_time_factor
        if factor == 1.0:
            return base
        return base * factor

    @property
    def bitline_length(self) -> float:
        """Physical bitline length in meters (rows * cell pitch)."""
        cell_pitch = np.sqrt(self.node.cell_area)
        return self.geometry.subarray_rows * float(cell_pitch)

    @property
    def bitline_wire_delay(self) -> float:
        """Distributed RC delay of the bare bitline wire, seconds."""
        wire = WireModel(self.node)
        return wire.elmore_delay(self.bitline_length)

    @property
    def wordline_length(self) -> float:
        """Physical wordline length in meters (cols * cell pitch)."""
        cell_pitch = np.sqrt(self.node.cell_area)
        return self.geometry.subarray_cols * float(cell_pitch)

    def access_times(
        self,
        cell_current_factors: ArrayLike,
        periphery_factor: ArrayLike = 1.0,
    ) -> ArrayLike:
        """Access time per cell, seconds.

        ``cell_current_factors`` is the read-path drive current of each cell
        relative to nominal; ``periphery_factor`` the sub-array's correlated
        wordline/decoder slowdown (1.0 nominal).  Cells with zero drive get
        ``inf``.
        """
        factors = np.asarray(cell_current_factors, dtype=float)
        if np.any(factors < 0):
            raise ConfigurationError("drive-current factors must be >= 0")
        with np.errstate(divide="ignore"):
            bitline = np.where(
                factors > 0,
                calibration.BITLINE_FRACTION / np.maximum(factors, 1e-12),
                np.inf,
            )
        wordline = calibration.WORDLINE_FRACTION * np.asarray(periphery_factor)
        return self.nominal_access_time * (
            bitline + wordline + calibration.PERIPHERY_FRACTION
        )

    def worst_access_time(
        self,
        cell_current_factors: ArrayLike,
        periphery_factor: ArrayLike = 1.0,
    ) -> float:
        """Slowest cell access in this sub-array, seconds."""
        return float(
            np.max(self.access_times(cell_current_factors, periphery_factor))
        )


@dataclass(frozen=True)
class RefreshTiming:
    """Wall-clock refresh timing at a node (paper section 4.1)."""

    node: TechnologyNode
    geometry: CacheGeometry = CacheGeometry()

    @property
    def cycles_per_line(self) -> int:
        """Clock cycles to refresh one line (8 for the paper's design)."""
        return self.geometry.refresh_cycles_per_line

    @property
    def cycles_full_pass(self) -> int:
        """Clock cycles for a full refresh pass (2K for the paper's design)."""
        return self.geometry.refresh_cycles_full_pass

    @property
    def full_pass_seconds(self) -> float:
        """Wall-clock time for a full pass (476.3ns at 32nm/4.3GHz)."""
        return self.cycles_full_pass / self.node.frequency

    def bandwidth_fraction(self, retention_time: float) -> float:
        """Fraction of cache bandwidth spent on global refresh.

        The paper's example: 476.3ns per pass / 6000ns retention = ~8%.
        Returns 1.0 (saturated) when retention is no longer than a pass --
        the cache can do nothing but refresh.
        """
        if retention_time <= 0:
            return 1.0
        return min(1.0, self.full_pass_seconds / retention_time)
