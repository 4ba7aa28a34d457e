"""3T1D DRAM cell model (paper section 2.2, Figure 3).

The 3T1D cell stores charge on a gated diode (D1).  Writing a "1" through
the write-access transistor T1 leaves a *degraded* level on the storage
node (T1's threshold plus body effect eat into the supply).  During a read
the diode's voltage-dependent capacitance boosts the read transistor's gate
by 1.5-2.5x the stored voltage, letting the cell discharge the bitline as
fast as a 6T cell -- but only while enough charge remains.

Variation enters through:

* ``delta_vth_t1`` -- the write device's threshold: shifts the stored level
  *and* the storage node's subthreshold leakage,
* ``delta_vth_t2`` -- the read stack's threshold: shifts the boosted
  overdrive needed to match 6T speed,
* ``delta_l`` -- the sub-array's correlated gate length (roll-off couples
  it into both thresholds),
* ``boost_eps`` -- relative variation of the gated-diode boost ratio
  (diode area/capacitance mismatch).

All of it is folded into a single number per cell by
:class:`repro.cells.retention.RetentionModel` -- the retention time --
exactly the lumping argument the paper makes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.technology import calibration
from repro.technology.node import TechnologyNode
from repro.technology.transistor import Transistor
from repro.cells.leakage import leakage_variation_factor

ArrayLike = Union[float, np.ndarray]

BODY_EFFECT_SHIFT: float = 0.2
"""Extra threshold seen by T1 when writing a "1" (source high), volts.

With Vdd=1.1 and Vth=0.3 this leaves the 0.6 V stored level the paper's
Figure 3b waveform shows."""

BOOST_RATIO: float = 1.883
"""Gated-diode voltage gain onto T2's gate during a read.

0.6 V stored boosts to the 1.13 V the paper reports (section 2.2)."""

READ_OVERDRIVE_REQUIRED: float = 0.385
"""Boosted-gate overdrive (above T2's threshold) at which the 3T1D read
matches the 6T array access time, volts, for the 32nm reference design.
Other nodes derive their value through :func:`read_overdrive_required`."""

MARGIN_VTH_RATIO: float = 0.236 / 0.30
"""Design rule tying the nominal stored-voltage margin to the node's
threshold voltage.  Random threshold sigma scales with Vth (the scenarios
specify sigma_Vth/Vth), so designing each node's read overdrive to leave a
margin proportional to Vth keeps the margin-to-sigma ratio -- and hence
the dead-cell statistics -- consistent across nodes, exactly as a designer
re-targeting the cell per node would.  The constant reproduces the 32nm
reference design's 236 mV margin."""


@functools.lru_cache()
def read_overdrive_required(node: TechnologyNode) -> float:
    """Design-time read overdrive for ``node``'s 3T1D cell, volts.

    Computed from the node's *reference* voltages (the Table 1 design
    point), so supply-voltage what-if studies shrink the margin instead of
    silently re-designing the cell.  Memoised: a pure function of the
    frozen node, read on every cell evaluation.
    """
    reference = TechnologyNode.from_name(node.name)
    stored = reference.vdd - reference.vth - BODY_EFFECT_SHIFT
    required = stored - MARGIN_VTH_RATIO * reference.vth
    if required <= 0:
        raise ConfigurationError(
            f"node {node.name!r} leaves no designable 3T1D read margin"
        )
    return required * BOOST_RATIO - reference.vth

STORAGE_SUBTHRESHOLD_SHARE: float = 0.20
"""Fraction of nominal storage-node leakage that is Vth-sensitive
subthreshold current through T1; the rest (gate/junction leakage) is a
constant floor.  Dampens the retention spread relative to pure
subthreshold leakage."""

STORAGE_LEAK_IDEALITY: float = 1.5
"""Subthreshold ideality of the storage-node leakage.  The storage node
sits at a low drain bias, so its leakage follows the plain subthreshold
slope without the DIBL enhancement used for bitline-connected devices."""

DIODE_BOOST_SIGMA_FACTOR: float = 0.30
"""Random sigma of ``boost_eps`` as a multiple of the scenario's relative
threshold sigma (diode capacitance mismatch)."""

DEVICE_AREA_SIGMA_SCALE: float = 0.78
"""Pelgrom mismatch scale of the 3T1D devices relative to a minimum-size
device.  The 3T1D cell packs only three transistors and a diode into the
8-transistor 6T footprint, so its devices can be drawn larger than
minimum; values below 1.0 shrink the random threshold sigma accordingly."""

MARGIN_ROLLOFF_PER_REL_L: float = 0.384
"""Correlated gate-length to threshold coupling on the margin path, volts
per unit of relative gate-length deviation (0.384 V/unit = 12 mV per nm at
32nm; scaling with L keeps the coupling node-appropriate)."""

ACCESS_PERIPHERY_SHARE: float = 0.33
"""Share of the 3T1D array access spent in periphery (decoder, sense amp),
independent of the stored charge.  Sets the floor of the Figure 4 curve."""

LEAKAGE_SENSITIVE_SHARE_3T1D: float = 0.7
"""Vth-sensitive share of the 3T1D cell's (single, weaker) leakage path."""

# Per-node 3T1D/6T nominal cache leakage ratio, from the Table 3 anchors.
_LEAKAGE_RATIO: dict = {
    "65nm": 3.36 / 15.8,
    "45nm": 5.68 / 36.0,
    "32nm": 24.4 / 78.2,
}


@dataclass(frozen=True)
class DRAM3T1DCell:
    """A 3T1D dynamic memory cell, sized to equal the 1X 6T cell area.

    The paper deliberately sizes the 3T1D cell up to the 6T footprint to
    maximise retention (section 3.1), so the cell has no size knob here.
    """

    node: TechnologyNode

    @property
    def label(self) -> str:
        """Paper-style cell label."""
        return "3T1D"

    @property
    def area(self) -> float:
        """Cell area in m^2 (equal to the 1X 6T cell by design)."""
        return self.node.cell_area

    @property
    def read_transistor(self) -> Transistor:
        """T2/T3 lumped read stack."""
        return Transistor(node=self.node, width_f=1.0, length_f=1.0)

    @property
    def read_overdrive_required(self) -> float:
        """This node's design-time read overdrive (see module function)."""
        return read_overdrive_required(self.node)

    def _rolloff_shift(self, delta_l: ArrayLike = 0.0) -> ArrayLike:
        """Threshold shift from correlated gate-length deviation, volts."""
        return (
            MARGIN_ROLLOFF_PER_REL_L
            * np.asarray(delta_l) / self.node.feature_size
        )

    # ------------------------------------------------------------------
    # storage node voltages
    # ------------------------------------------------------------------

    def stored_voltage(
        self,
        delta_vth_t1: ArrayLike = 0.0,
        delta_l: ArrayLike = 0.0,
        out: Optional[np.ndarray] = None,
    ) -> ArrayLike:
        """Storage-node voltage right after writing a "1", volts.

        Clamped at zero: a catastrophically high T1 threshold simply fails
        to write any charge.  ``out`` receives the result in place.
        """
        vth_t1 = np.add(self.node.vth, delta_vth_t1, out=out)
        vth_t1 = np.add(vth_t1, self._rolloff_shift(delta_l), out=out)
        stored = np.subtract(self.node.vdd, vth_t1, out=out)
        stored = np.subtract(stored, BODY_EFFECT_SHIFT, out=out)
        return np.maximum(stored, 0.0, out=out)

    def boosted_voltage(
        self, stored: ArrayLike, boost_eps: ArrayLike = 0.0
    ) -> ArrayLike:
        """T2 gate voltage during a read, for a given stored level."""
        return BOOST_RATIO * (1.0 + np.asarray(boost_eps)) * np.asarray(stored)

    def required_storage_voltage(
        self,
        delta_vth_t2: ArrayLike = 0.0,
        delta_l: ArrayLike = 0.0,
        boost_eps: ArrayLike = 0.0,
        out: Optional[np.ndarray] = None,
        scratch: Optional[np.ndarray] = None,
    ) -> ArrayLike:
        """Minimum stored voltage at which the read still matches 6T speed.

        The boosted gate must sit ``READ_OVERDRIVE_REQUIRED`` above T2's
        effective threshold; dividing by the (varied) boost ratio converts
        that back to a storage-node voltage.  ``out`` receives the result
        in place; ``scratch`` (same shape) holds the boost derating.
        """
        vth_t2 = np.add(self.node.vth, delta_vth_t2, out=out)
        vth_t2 = np.add(vth_t2, self._rolloff_shift(delta_l), out=out)
        # First-order in the boost variation: a diode with eps less boost
        # needs eps more stored voltage.  (Linearised to keep the variation
        # Gaussian; the paper's +-10-15% component spreads never reach the
        # regime where the 1/(1+eps) curvature matters.)
        base = np.add(vth_t2, self.read_overdrive_required, out=out)
        base = np.divide(base, BOOST_RATIO, out=out)
        derating = np.subtract(1.0, boost_eps, out=scratch)
        return np.multiply(base, derating, out=out)

    # ------------------------------------------------------------------
    # storage-node decay
    # ------------------------------------------------------------------

    def nominal_margin(self) -> float:
        """Stored-voltage headroom of the nominal cell, volts."""
        return float(self.stored_voltage() - self.required_storage_voltage())

    @functools.lru_cache()
    def nominal_decay_rate(self) -> float:
        """Storage-node decay rate of the nominal cell in V/s.

        Back-solved from the nominal retention anchor (Figure 4: ~5.8 us at
        32nm): decay_rate = margin / retention.  Memoised per cell.
        """
        margin = self.nominal_margin()
        if margin <= 0:
            raise ConfigurationError(
                "nominal 3T1D cell has no read margin; check node voltages"
            )
        return margin / calibration.nominal_retention_time(self.node)

    def decay_rate(
        self,
        delta_vth_t1: ArrayLike = 0.0,
        delta_l: ArrayLike = 0.0,
        out: Optional[np.ndarray] = None,
    ) -> ArrayLike:
        """Storage-node decay rate in V/s under variation.

        The Vth-sensitive share follows T1's subthreshold leakage
        (exponential in its effective threshold); the remainder is a fixed
        gate/junction leakage floor.  ``out`` receives the result in place.
        """
        factor = leakage_variation_factor(
            delta_vth_t1,
            np.asarray(delta_l) / self.node.feature_size,
            sensitive_share=STORAGE_SUBTHRESHOLD_SHARE,
            ideality=STORAGE_LEAK_IDEALITY,
            out=out,
        )
        return np.multiply(self.nominal_decay_rate(), factor, out=out)

    # ------------------------------------------------------------------
    # cell leakage (supply current, for the power model)
    # ------------------------------------------------------------------

    @functools.lru_cache()
    def nominal_cell_leakage_power(self) -> float:
        """Leakage power of one nominal 3T1D cell in watts.

        Pinned so that the full 64KB 3T1D cache hits the Table 3 leakage
        anchor: the per-node ratio to the 6T cell comes straight from the
        Table 3 columns.  Memoised per cell.
        """
        from repro.cells.sram6t import SRAM6TCell

        try:
            ratio = _LEAKAGE_RATIO[self.node.name]
        except KeyError:
            raise ConfigurationError(
                f"no 3T1D leakage calibration for node {self.node.name!r}"
            ) from None
        return ratio * SRAM6TCell(self.node).nominal_cell_leakage_power()

    def leakage_power(
        self,
        delta_vth: ArrayLike = 0.0,
        delta_l: ArrayLike = 0.0,
        out: Optional[np.ndarray] = None,
    ) -> ArrayLike:
        """Cell leakage power in watts under the given variation.

        The single weak path plus the Vth-insensitive floor compress the
        spread relative to 6T -- the mechanism behind Figure 7b's tight
        3T1D leakage distribution.  ``out`` receives the result in place.
        """
        factor = leakage_variation_factor(
            delta_vth,
            np.asarray(delta_l) / self.node.feature_size,
            sensitive_share=LEAKAGE_SENSITIVE_SHARE_3T1D,
            out=out,
        )
        return np.multiply(self.nominal_cell_leakage_power(), factor, out=out)
