"""Cache array substrate: geometry, timing, power, and chip sampling.

This layer aggregates cell-level models over the paper's 64KB L1 data
cache organisation (8 sub-arrays of 256x256 bits; each pair of sub-arrays
shares 64 sense amplifiers and forms the 512-bit blocks) and produces the
chip-level Monte-Carlo samples every architecture experiment consumes.
"""

from repro.array.geometry import CacheGeometry, derived_tag_bits
from repro.array.subarray import SubArrayTiming, RefreshTiming
from repro.array.power import CachePowerModel
from repro.array.bist import BISTResult, RetentionBIST
from repro.array.cactimodel import (
    CACTI_ANCHORS,
    ArrayMetrics,
    access_time_factor,
    bank_leakage_overhead_factor,
    derived_access_latency_cycles,
    leakage_factor,
    read_energy_factor,
    reference_metrics,
)
from repro.array.chip import (
    ChipBuildTask,
    ChipSampler,
    DRAM3T1DChipSample,
    OperatingPoint,
    SRAMChipSample,
    merge_build_batches,
)

__all__ = [
    "ArrayMetrics",
    "CACTI_ANCHORS",
    "ChipBuildTask",
    "CacheGeometry",
    "SubArrayTiming",
    "RefreshTiming",
    "CachePowerModel",
    "RetentionBIST",
    "BISTResult",
    "ChipSampler",
    "DRAM3T1DChipSample",
    "OperatingPoint",
    "SRAMChipSample",
    "access_time_factor",
    "bank_leakage_overhead_factor",
    "derived_access_latency_cycles",
    "derived_tag_bits",
    "leakage_factor",
    "merge_build_batches",
    "read_energy_factor",
    "reference_metrics",
]
