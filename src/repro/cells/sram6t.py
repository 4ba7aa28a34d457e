"""6T SRAM cell model (paper section 2.1).

The paper's "6T" cell is really an 8-transistor 2-read/1-write variant of
the classic 6T cell, but is called 6T throughout; so do we.  Two sizings
are studied:

* ``1X`` -- minimum-size devices (the baseline that suffers most),
* ``2X`` -- every device doubled in width *and* length, which quarters the
  gate-area-limited random mismatch (Pelgrom: sigma_Vth ~ 1/sqrt(W*L)).

Three effects of process variation are modeled, each feeding a different
paper figure:

1. **Access-time variation** (Figure 6a): the read-path drive current of
   each cell varies with its random Vth and its sub-array's correlated
   gate length, and the wordline/decoder periphery varies with correlated
   gate length.  The slowest cell sets the chip's frequency.
2. **Read-stability flips** (section 2.1): threshold mismatch between the
   access and pull-down device can exceed the read static-noise margin and
   flip the bit.  Calibrated to the ~0.4% bit flip rate the paper reports
   at 32nm under typical variation.
3. **Leakage** (Figure 7): three strong leakage paths per cell, each
   exponential in its device's effective threshold.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.technology import calibration
from repro.technology.node import TechnologyNode
from repro.technology.transistor import Transistor
from repro.cells.leakage import leakage_variation_factor

ArrayLike = Union[float, np.ndarray]

STABILITY_MARGIN_VTH_FACTOR: float = 0.375
"""Read static-noise margin expressed as a fraction of nominal Vth.

The cell flips during a read when the access/pull-down threshold mismatch
exceeds this margin.  0.375 * Vth places the margin at 2.65 sigma of the
mismatch distribution under typical variation for a 1X cell, reproducing
the ~0.4% bit-flip rate the paper quotes at 32nm."""

LEAKAGE_SENSITIVE_SHARE_6T: float = 1.0
"""All three strong 6T leakage paths are subthreshold -- fully Vth-sensitive."""

PERIPHERY_VARIATION_WEIGHT: float = 0.35
"""How strongly the decoder/wordline periphery delay tracks the sub-array's
correlated drive-current factor (large multi-finger periphery devices
average out random mismatch but fully see correlated gate length)."""


@dataclass(frozen=True)
class SRAM6TCell:
    """A 6T SRAM cache cell at one node and sizing.

    ``size_factor`` of 1 is the paper's 1X cell; 2 is the 2X cell (width and
    length of every device doubled).
    """

    node: TechnologyNode
    size_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.size_factor <= 0:
            raise ConfigurationError(
                f"size_factor must be positive, got {self.size_factor!r}"
            )

    @property
    def label(self) -> str:
        """Paper-style cell label, e.g. ``"1X 6T"``."""
        if float(self.size_factor).is_integer():
            return f"{int(self.size_factor)}X 6T"
        return f"{self.size_factor:g}X 6T"

    @property
    def read_transistor(self) -> Transistor:
        """The lumped read-path device (access + pull-down in series)."""
        return Transistor(
            node=self.node,
            width_f=self.size_factor,
            length_f=self.size_factor,
        )

    @property
    def area(self) -> float:
        """Cell area in m^2 (scales with the square of the sizing)."""
        return self.node.cell_area * self.size_factor ** 2

    @property
    def mismatch_scale(self) -> float:
        """Pelgrom scaling of random Vth sigma relative to a 1X device."""
        return self.read_transistor.mismatch_sigma_scale()

    # ------------------------------------------------------------------
    # access time
    # ------------------------------------------------------------------

    def nominal_access_time(self) -> float:
        """Ideal array access time in seconds (calibration anchor)."""
        return calibration.nominal_access_time(self.node)

    @functools.lru_cache()
    def nominal_read_current(self) -> float:
        """Drive current of the nominal read path in amperes (memoised)."""
        return self.read_transistor.on_current()

    def read_current_factor(
        self,
        delta_vth: ArrayLike = 0.0,
        delta_l: ArrayLike = 0.0,
        out: Optional[np.ndarray] = None,
    ) -> ArrayLike:
        """Read-path drive current relative to the nominal cell.

        Zero (a cell that cannot discharge the bitline at all) is possible
        for extreme corners and is treated by callers as an unusable cell.
        ``out`` receives the result in place.
        """
        actual = self.read_transistor.on_current(
            delta_vth=delta_vth, delta_l=delta_l, out=out
        )
        return np.divide(actual, self.nominal_read_current(), out=out)

    def access_time(
        self,
        delta_vth: ArrayLike = 0.0,
        delta_l: ArrayLike = 0.0,
        periphery_factor: ArrayLike = 1.0,
        out: Optional[np.ndarray] = None,
        mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Array access time through this cell, in seconds.

        The calibrated nominal access time is split into a bitline share
        (scales with this cell's read current), a wordline/decoder share
        (scales with the sub-array ``periphery_factor``), and a fixed
        sense-amp/output share.  A dead read path yields ``inf``.  A
        caller evaluating many same-shaped blocks passes ``out`` (float64)
        and ``mask`` (bool) of the broadcast shape, and the evaluation then
        allocates nothing: ``out`` receives the result, ``mask`` is
        overwritten.
        """
        current = self.read_current_factor(
            delta_vth=delta_vth, delta_l=delta_l, out=out
        )
        if out is None:
            out = np.empty(np.broadcast_shapes(
                np.shape(current), np.shape(periphery_factor)
            ))
        dead = np.greater(current, 0.0, out=mask)
        dead = np.logical_not(dead, out=mask)
        bitline = np.maximum(current, 1e-12, out=out)
        bitline = np.divide(calibration.BITLINE_FRACTION, bitline, out=out)
        np.copyto(bitline, np.inf, where=dead)
        wordline = calibration.WORDLINE_FRACTION * np.asarray(periphery_factor)
        total = np.add(bitline, wordline, out=out)
        total = np.add(total, calibration.PERIPHERY_FRACTION, out=out)
        return np.multiply(self.nominal_access_time(), total, out=out)

    def periphery_delay_factor(self, delta_l_correlated: ArrayLike) -> ArrayLike:
        """Wordline/decoder delay factor of a sub-array.

        Periphery devices are large, so only the correlated gate-length
        component matters; ``PERIPHERY_VARIATION_WEIGHT`` derates the full
        single-device sensitivity to account for the mix of gate and wire
        delay along the path.
        """
        actual = self.read_transistor.on_current(delta_l=delta_l_correlated)
        ratio = np.asarray(actual) / self.nominal_read_current()
        slowdown = np.where(ratio > 0, 1.0 / np.maximum(ratio, 1e-12), np.inf)
        return 1.0 + PERIPHERY_VARIATION_WEIGHT * (slowdown - 1.0)

    # ------------------------------------------------------------------
    # stability
    # ------------------------------------------------------------------

    def stability_margin(self) -> float:
        """Threshold-mismatch read margin in volts."""
        return STABILITY_MARGIN_VTH_FACTOR * self.node.vth

    def flip_probability(self, sigma_vth: float) -> float:
        """Probability that one bit flips on a read.

        ``sigma_vth`` is the per-device random threshold sigma for a
        *minimum-size* device; Pelgrom scaling for this cell's sizing is
        applied internally.  The mismatch of the critical pair has sigma
        ``sqrt(2) * sigma_vth * mismatch_scale`` and only the tail beyond
        the read margin flips.
        """
        if sigma_vth < 0:
            raise ConfigurationError(f"sigma_vth must be >= 0, got {sigma_vth}")
        if sigma_vth == 0.0:
            return 0.0
        mismatch_sigma = math.sqrt(2.0) * sigma_vth * self.mismatch_scale
        z = self.stability_margin() / mismatch_sigma
        # One-sided tail: only mismatch weakening the pull-down flips.
        return 0.5 * math.erfc(z / math.sqrt(2.0))

    def line_failure_probability(self, sigma_vth: float, line_bits: int = 256) -> float:
        """Probability that at least one bit in a ``line_bits`` line flips.

        Reproduces the paper's observation that a 0.4% bit flip rate makes
        256-bit line redundancy ineffective (64% line failure)."""
        if line_bits < 1:
            raise ConfigurationError(f"line_bits must be >= 1, got {line_bits}")
        p_bit = self.flip_probability(sigma_vth)
        return 1.0 - (1.0 - p_bit) ** line_bits

    # ------------------------------------------------------------------
    # leakage
    # ------------------------------------------------------------------

    @functools.lru_cache()
    def nominal_cell_leakage_power(self) -> float:
        """Leakage power of one nominal cell in watts (three strong paths;
        memoised)."""
        transistor = self.read_transistor
        per_path = transistor.off_current() * self.node.vdd
        return calibration.STRONG_LEAK_PATHS_6T * per_path

    def leakage_power(
        self,
        delta_vth: ArrayLike = 0.0,
        delta_l: ArrayLike = 0.0,
        out: Optional[np.ndarray] = None,
    ) -> ArrayLike:
        """Cell leakage power in watts under the given variation; ``out``
        receives the result in place."""
        factor = leakage_variation_factor(
            delta_vth,
            np.asarray(delta_l) / self.node.feature_size,
            sensitive_share=LEAKAGE_SENSITIVE_SHARE_6T,
            out=out,
        )
        return np.multiply(self.nominal_cell_leakage_power(), factor, out=out)
