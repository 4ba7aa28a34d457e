"""Retention-time solver and the Figure 4 access-time curve.

The paper *redefines* retention time: not the time until the stored value
is lost, but the time during which the 3T1D cell's access speed still
matches the 6T SRAM array access time.  The solver here implements that
definition in closed form:

1. the stored voltage decays linearly at the cell's leakage-driven decay
   rate: ``V_s(t) = V_s0 - R * t``;
2. a read succeeds at 6T speed while the boosted gate overdrive stays
   above the required overdrive, i.e. while ``V_s(t) >= V_s*``;
3. retention time is therefore ``t_ret = max(0, (V_s0 - V_s*) / R)``.

A cell whose margin ``V_s0 - V_s*`` is negative can never be read at 6T
speed even immediately after a write: it is **dead** (retention zero).
Dead cells are what produce the paper's dead cache lines under severe
variation (Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.technology import calibration
from repro.technology.node import TechnologyNode
from repro.technology.transistor import ALPHA_POWER_EXPONENT
from repro.cells.dram3t1d import (
    ACCESS_PERIPHERY_SHARE,
    DRAM3T1DCell,
)

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class RetentionModel:
    """Maps device variation of a 3T1D cell to its retention time."""

    cell: DRAM3T1DCell

    @classmethod
    def for_node(cls, node: TechnologyNode) -> "RetentionModel":
        """Convenience constructor from a technology node."""
        return cls(cell=DRAM3T1DCell(node))

    @property
    def node(self) -> TechnologyNode:
        """Technology node of the underlying cell."""
        return self.cell.node

    def nominal_retention_time(self) -> float:
        """Retention of the no-variation cell, seconds (Figure 4 anchor)."""
        return calibration.nominal_retention_time(self.node)

    def retention_time(
        self,
        delta_vth_t1: ArrayLike = 0.0,
        delta_vth_t2: ArrayLike = 0.0,
        delta_l: ArrayLike = 0.0,
        boost_eps: ArrayLike = 0.0,
        out: Optional[np.ndarray] = None,
        scratch: Optional[np.ndarray] = None,
        mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Retention time in seconds; zero marks a dead cell.

        All arguments broadcast, so a whole sub-array's cells can be solved
        in one vectorised call.  A caller solving many same-shaped blocks
        passes ``out`` and ``scratch`` (float64) and ``mask`` (bool) of the
        broadcast shape, and the solve then allocates nothing: ``out``
        receives the result, the other two are overwritten.
        """
        if out is None:
            out = np.empty(np.broadcast_shapes(*map(np.shape, (
                delta_vth_t1, delta_vth_t2, delta_l, boost_eps
            ))))
        cell = self.cell
        # ``out`` holds the boost derating until the stored level lands in it.
        required = cell.required_storage_voltage(
            delta_vth_t2, delta_l, boost_eps, out=scratch, scratch=out
        )
        stored = cell.stored_voltage(delta_vth_t1, delta_l, out=out)
        margin = np.subtract(stored, required, out=out)
        dead = np.greater(margin, 0.0, out=mask)
        dead = np.logical_not(dead, out=mask)
        rate = cell.decay_rate(delta_vth_t1, delta_l, out=scratch)
        retention = np.divide(margin, rate, out=out)
        np.copyto(retention, 0.0, where=dead)
        return retention

    def is_dead(
        self,
        delta_vth_t1: ArrayLike = 0.0,
        delta_vth_t2: ArrayLike = 0.0,
        delta_l: ArrayLike = 0.0,
        boost_eps: ArrayLike = 0.0,
    ) -> ArrayLike:
        """True where the cell cannot meet 6T speed even right after a write."""
        times = self.retention_time(delta_vth_t1, delta_vth_t2, delta_l, boost_eps)
        return np.asarray(times) <= 0.0


@dataclass(frozen=True)
class AccessTimeCurve:
    """The Figure 4 curve: array access time vs. time since the last write.

    ``delta_*`` freeze one cell's corner; :meth:`access_time` then evaluates
    the access time at any elapsed time after a write.  The curve starts
    well below the 6T access time (the boosted read is *faster* than 6T
    right after a write), rises as the stored charge leaks away, crosses
    the 6T line exactly at the cell's retention time, and diverges as the
    boosted overdrive collapses.
    """

    model: RetentionModel
    delta_vth_t1: float = 0.0
    delta_vth_t2: float = 0.0
    delta_l: float = 0.0
    boost_eps: float = 0.0

    @property
    def sram_access_time(self) -> float:
        """The 6T array access time the retention definition compares against."""
        return calibration.nominal_access_time(self.model.node)

    @property
    def retention_time(self) -> float:
        """This corner's retention time in seconds (zero if dead)."""
        return float(
            self.model.retention_time(
                self.delta_vth_t1, self.delta_vth_t2, self.delta_l, self.boost_eps
            )
        )

    def access_time(self, elapsed: ArrayLike) -> ArrayLike:
        """Array access time (seconds) ``elapsed`` seconds after a write.

        Returns ``inf`` once the boosted overdrive reaches zero (the cell
        can no longer discharge the bitline at all).
        """
        elapsed_arr = np.asarray(elapsed, dtype=float)
        if np.any(elapsed_arr < 0):
            raise ConfigurationError("elapsed time must be >= 0")
        cell = self.model.cell
        stored0 = cell.stored_voltage(self.delta_vth_t1, self.delta_l)
        rate = cell.decay_rate(self.delta_vth_t1, self.delta_l)
        stored = np.maximum(np.asarray(stored0) - np.asarray(rate) * elapsed_arr, 0.0)
        boosted = cell.boosted_voltage(stored, self.boost_eps)
        # Effective T2 threshold including roll-off, reconstructed from the
        # required-storage relation: V_req * boost = vth_t2_eff + K.
        required = cell.required_storage_voltage(
            self.delta_vth_t2, self.delta_l, self.boost_eps
        )
        boost = np.asarray(cell.boosted_voltage(1.0, self.boost_eps))
        overdrive_required = cell.read_overdrive_required
        vth_t2_eff = np.asarray(required) * boost - overdrive_required
        overdrive = boosted - vth_t2_eff
        nominal = self.sram_access_time
        periphery = ACCESS_PERIPHERY_SHARE * nominal
        bitline_at_match = (1.0 - ACCESS_PERIPHERY_SHARE) * nominal
        with np.errstate(divide="ignore"):
            bitline = np.where(
                overdrive > 0.0,
                bitline_at_match
                * (overdrive_required / np.maximum(overdrive, 1e-12))
                ** ALPHA_POWER_EXPONENT,
                np.inf,
            )
        result = periphery + bitline
        if np.isscalar(elapsed) or np.ndim(elapsed) == 0:
            return float(result)
        return result

    def matches_sram_speed(self, elapsed: ArrayLike) -> ArrayLike:
        """True while the access time is still within the 6T access time."""
        access = np.asarray(self.access_time(np.asarray(elapsed, dtype=float)))
        # Tiny tolerance: at exactly t = retention the curve touches the line.
        return access <= self.sram_access_time * (1.0 + 1e-9)
