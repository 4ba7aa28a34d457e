"""Process-variation modeling substrate.

Implements the paper's Monte-Carlo methodology (section 3.1):

* die-to-die gate-length variation (one offset per chip),
* within-die gate-length variation, spatially correlated with a 3-level
  quad-tree (Agarwal et al.); gate lengths within one sub-array are
  strongly correlated (Friedberg's measurements), so the correlated
  component is sampled per sub-array,
* random dopant threshold-voltage variation, independent per device,
  Pelgrom-scaled with device area.

Two named scenarios match the paper: ``typical`` (sigma_L/L = 5% within
die, sigma_Vth/Vth = 10%) and ``severe`` (7% and 15%), both with 5%
die-to-die gate-length sigma.
"""

from repro.variation.parameters import VariationParams
from repro.variation.quadtree import QuadTreeSampler
from repro.variation.montecarlo import (
    ChipVariation,
    VariationSampler,
    normal_draws,
    validate_chip_count,
)
from repro.variation.statistics import (
    DistributionSummary,
    harmonic_mean,
    normalized_histogram,
    summarize,
)

__all__ = [
    "VariationParams",
    "QuadTreeSampler",
    "ChipVariation",
    "VariationSampler",
    "normal_draws",
    "validate_chip_count",
    "DistributionSummary",
    "harmonic_mean",
    "normalized_histogram",
    "summarize",
]
