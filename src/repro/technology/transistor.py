"""First-order MOSFET model: drive current, leakage, capacitance.

This module replaces Hspice + PTM device cards with two standard analytic
models that capture exactly the dependencies the architectural study needs:

* **Drive (on) current** -- the alpha-power law [Sakurai & Newton 1990]::

      I_on = k_drive * (W / L) * (Vgs - Vth)^alpha

  Gate-length and threshold-voltage variation modulate ``I_on`` and hence
  access time, the quantity that limits 6T SRAM frequency (paper section
  2.1) and shifts the 3T1D access-time curve (paper Figure 4).

* **Subthreshold (off) current** -- exponential in threshold voltage::

      I_off = k_leak * W * exp(-Vth / (n * vT))

  Threshold variation therefore produces the multiplicative (lognormal)
  leakage spread the paper reports ("a 5X variation in leakage power across
  chips", section 2.1) and the 3T1D retention-time spread (section 2.2).

Short-channel effects couple gate length back into threshold voltage via a
Vth roll-off slope (``vth_rolloff``): shorter channels have lower Vth, which
simultaneously speeds the device up and leaks more.  This coupling is what
makes correlated gate-length variation shift whole sub-arrays and chips.

All model constants are per-:class:`~repro.technology.node.TechnologyNode`
and are calibrated in :mod:`repro.technology.calibration`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from repro import units
from repro.errors import ConfigurationError
from repro.technology.node import TechnologyNode

ArrayLike = Union[float, np.ndarray]

ALPHA_POWER_EXPONENT: float = 1.3
"""Velocity-saturation exponent of the alpha-power law for nanoscale CMOS."""

SUBTHRESHOLD_IDEALITY: float = 1.5
"""Subthreshold slope ideality factor n (S = n * vT * ln 10 ~ 105 mV/dec at 80C)."""


class TransistorType(Enum):
    """Device polarity. The analytic model treats both identically except
    for the sign conventions handled by callers; PMOS devices are given a
    mobility-derated drive constant."""

    NMOS = "nmos"
    PMOS = "pmos"


PMOS_DRIVE_DERATING: float = 0.5
"""PMOS drive relative to equal-sized NMOS (hole vs electron mobility)."""


@dataclass(frozen=True)
class Transistor:
    """A transistor instance within a memory cell.

    Sizes are expressed relative to the node feature size ``F``:
    ``width = width_f * F`` and ``length = length_f * F``.  A minimum-size
    device is ``width_f=1, length_f=1``; the paper's "2X 6T" cell doubles
    both (``width_f=2, length_f=2``).

    The model methods accept numpy arrays for the variation arguments so
    that Monte-Carlo sampling over hundreds of thousands of cells stays
    vectorised.
    """

    node: TechnologyNode
    width_f: float = 1.0
    length_f: float = 1.0
    kind: TransistorType = TransistorType.NMOS
    vth_rolloff_rel: float = 0.384
    """Threshold-voltage roll-off coupling in volts per unit of *relative*
    gate-length deviation (delta_L / L_nominal); positive means a shorter
    channel lowers Vth.  0.384 V/unit equals 12 mV per nm at 32nm, modeling
    strong halo-implant roll-off, and scales appropriately to the longer
    channels of older nodes."""

    def __post_init__(self) -> None:
        if self.width_f <= 0 or self.length_f <= 0:
            raise ConfigurationError(
                f"transistor sizes must be positive; got width_f={self.width_f}, "
                f"length_f={self.length_f}"
            )

    # --- geometry -------------------------------------------------------

    @property
    def width(self) -> float:
        """Drawn device width in meters."""
        return self.width_f * self.node.feature_size

    @property
    def length(self) -> float:
        """Drawn device length in meters."""
        return self.length_f * self.node.feature_size

    @property
    def gate_area(self) -> float:
        """Gate area W*L in m^2 (the Pelgrom mismatch scaling parameter)."""
        return self.width * self.length

    @property
    def gate_capacitance(self) -> float:
        """Gate capacitance Cox * W * L in farads."""
        return self.node.oxide_capacitance_per_area * self.gate_area

    @property
    def drain_capacitance(self) -> float:
        """Drain junction capacitance, modeled as a fraction of gate cap."""
        return 0.5 * self.gate_capacitance

    # --- variation coupling ----------------------------------------------

    def effective_vth(
        self,
        delta_vth: ArrayLike = 0.0,
        delta_l: ArrayLike = 0.0,
        out: Optional[np.ndarray] = None,
    ) -> ArrayLike:
        """Threshold voltage including random dopant shift and L roll-off.

        ``delta_vth`` is the random-dopant threshold shift in volts;
        ``delta_l`` the gate-length deviation in meters (positive = longer
        channel = higher Vth).  ``out`` receives the result in place.
        """
        relative = np.asarray(delta_l) / self.length
        vth = np.add(self.node.vth, delta_vth, out=out)
        return np.add(vth, self.vth_rolloff_rel * relative, out=out)

    def mismatch_sigma_scale(self) -> float:
        """Pelgrom area scaling of random Vth mismatch: sigma ~ 1/sqrt(W*L).

        Returned value is relative to a minimum-size device at this node, so
        a minimum-size device returns 1.0 and the paper's 2X cell (2x width,
        2x length) returns 0.5.
        """
        minimum_area = self.node.feature_size ** 2
        return math.sqrt(minimum_area / self.gate_area)

    # --- currents --------------------------------------------------------

    def drive_constant(self) -> float:
        """Per-node drive constant k_drive (A/V^alpha), mobility derated for PMOS."""
        from repro.technology.calibration import drive_constant_for_node

        base = drive_constant_for_node(self.node)
        if self.kind is TransistorType.PMOS:
            return base * PMOS_DRIVE_DERATING
        return base

    def on_current(
        self,
        vgs: ArrayLike = None,
        delta_vth: ArrayLike = 0.0,
        delta_l: ArrayLike = 0.0,
        out: Optional[np.ndarray] = None,
    ) -> ArrayLike:
        """Saturation drive current in amperes (alpha-power law).

        ``vgs`` defaults to the full supply voltage.  Overdrive below zero
        (device effectively off) clamps the drive current to zero; callers
        treating such devices as "dead" should check for zero.  ``out``
        receives the result in place.
        """
        if vgs is None:
            vgs = self.node.vdd
        vth = self.effective_vth(delta_vth, delta_l, out=out)
        length = self.length + np.asarray(delta_l)
        overdrive = np.subtract(vgs, vth, out=out)
        overdrive = np.maximum(overdrive, 0.0, out=out)
        # In place for arrays (``out`` or a fresh temporary); a numpy scalar
        # rebinds through scalar ``**``, whose libm pow can differ in the
        # last bit from the ufunc's SIMD pow.
        overdrive **= ALPHA_POWER_EXPONENT
        return np.multiply(
            self.drive_constant() * (self.width / length), overdrive, out=out
        )

    def off_current(
        self,
        delta_vth: ArrayLike = 0.0,
        delta_l: ArrayLike = 0.0,
        temperature_c: float = units.SIMULATION_TEMPERATURE_C,
    ) -> ArrayLike:
        """Subthreshold leakage current in amperes at Vgs=0.

        Exponential in the effective threshold voltage, which is what turns
        Gaussian process variation into the lognormal leakage (and retention
        time) distributions observed in the paper.
        """
        from repro.technology.calibration import leakage_constant_for_node

        vth = self.effective_vth(delta_vth, delta_l)
        v_t = units.thermal_voltage(temperature_c)
        k_leak = leakage_constant_for_node(self.node)
        return k_leak * self.width * np.exp(-vth / (SUBTHRESHOLD_IDEALITY * v_t))

    def subthreshold_swing(
        self, temperature_c: float = units.SIMULATION_TEMPERATURE_C
    ) -> float:
        """Subthreshold swing in V/decade (~105 mV/dec at 80C with n=1.5)."""
        return SUBTHRESHOLD_IDEALITY * units.thermal_voltage(temperature_c) * math.log(10.0)
