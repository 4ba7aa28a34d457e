"""Shared leakage-variation helpers.

Leakage through an off transistor is exponential in its effective threshold
voltage.  Two refinements matter for reproducing the paper's leakage
*distributions* (Figure 7):

* DIBL steepens the effective sensitivity of drain leakage to process
  shifts, so the variation factor uses a slightly lower ideality
  (``LEAKAGE_VARIATION_IDEALITY``) than the absolute-current calibration.
* Not all of a cell's leakage is Vth-sensitive subthreshold current; gate
  and junction leakage are (to first order) Vth-independent.  The
  ``sensitive_share`` parameter mixes an exponential term with a constant
  floor, which compresses the distribution -- the mechanism behind the
  3T1D cache's much tighter leakage spread (never above 4X golden, versus
  the 6T tail beyond 10X).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro import units
from repro.errors import ConfigurationError

ArrayLike = Union[float, np.ndarray]

LEAKAGE_VARIATION_IDEALITY: float = 1.2
"""Effective ideality of the leakage *variation* factor (DIBL-enhanced)."""

LEAKAGE_ROLLOFF_PER_REL_L: float = 0.64
"""Gate-length to threshold coupling for leakage paths, volts per unit of
*relative* gate-length deviation (delta_L / L_nominal).

Expressed relative to the channel length so every node sees the same
coupling for the same percentage variation (0.64 V/unit = 20 mV per nm at
32nm).  Stronger than the drive-side roll-off because drain leakage sees
both the Vth roll-off and DIBL as the channel shortens."""


def leakage_variation_factor(
    delta_vth: ArrayLike,
    delta_l_rel: ArrayLike = 0.0,
    sensitive_share: float = 1.0,
    temperature_c: float = units.SIMULATION_TEMPERATURE_C,
    ideality: float = LEAKAGE_VARIATION_IDEALITY,
    out: Optional[np.ndarray] = None,
) -> ArrayLike:
    """Multiplicative leakage factor relative to the nominal device.

    ``delta_vth`` is the random-dopant threshold shift (V), ``delta_l_rel``
    the *relative* gate-length deviation (delta_L / L_nominal, positive =
    longer channel = less leakage).
    ``sensitive_share`` in (0, 1] is the fraction of nominal leakage that is
    Vth-sensitive; the remainder is a constant floor.  ``ideality`` sets the
    exponential slope: drain leakage of cache cells uses the DIBL-enhanced
    default, while the 3T1D storage node (drain at low bias, no DIBL) uses
    the plain subthreshold ideality.  ``out`` receives the factor in place
    (it may be ``delta_vth`` itself).
    """
    if not 0.0 < sensitive_share <= 1.0:
        raise ConfigurationError(
            f"sensitive_share must be in (0, 1], got {sensitive_share!r}"
        )
    if ideality <= 0:
        raise ConfigurationError(f"ideality must be positive, got {ideality!r}")
    slope = ideality * units.thermal_voltage(temperature_c)
    factor = np.add(
        delta_vth, LEAKAGE_ROLLOFF_PER_REL_L * np.asarray(delta_l_rel), out=out
    )
    factor = np.negative(factor, out=out)
    factor = np.divide(factor, slope, out=out)
    factor = np.exp(factor, out=out)
    factor = np.multiply(sensitive_share, factor, out=out)
    return np.add(factor, 1.0 - sensitive_share, out=out)
