"""Cache simulator configuration.

Binds the physical :class:`~repro.array.geometry.CacheGeometry` to the
timing parameters the simulator needs and the retention-scheme knobs from
the paper:

* ``partial_refresh_threshold_cycles`` -- the partial-refresh scheme's
  lifetime guarantee; the paper uses a 6K-cycle threshold (section 4.3.3);
* ``counter_bits`` -- per-line retention counters are 3 bits wide
  (section 4.3.1);
* L2 latency / write-buffer depth for the backing store model.

Geometry-adjacent scalars live on the geometries, not here: the L1 hit
latency defaults to ``geometry.access_latency_cycles`` (pass an explicit
value only to override the derived one), and the backing L2 is a full
:class:`CacheGeometry` in :attr:`CacheConfig.l2_geometry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError
from repro.array.geometry import CacheGeometry

DEFAULT_L2_CAPACITY_BYTES: int = 2 * 1024 * 1024
"""Table 2's 2MB L2."""

DEFAULT_L2_WAYS: int = 4
"""Table 2's 4-way L2."""


def default_l2_geometry(line_bits: int = 512) -> CacheGeometry:
    """The Table 2 L2 (2MB, 4-way, LRU, write-back) as a geometry."""
    return CacheGeometry.from_capacity(
        DEFAULT_L2_CAPACITY_BYTES, DEFAULT_L2_WAYS, line_bits=line_bits
    )


@dataclass(frozen=True)
class CacheConfig:
    """All knobs of one retention-aware cache instance."""

    geometry: CacheGeometry = field(default_factory=CacheGeometry)
    hit_latency_cycles: Optional[int] = None
    """L1 hit latency; ``None`` (the default) reads the geometry's
    derived ``access_latency_cycles`` -- 3 for the paper point."""
    write_hit_extra_cycles: int = 0
    """Extra cycles a write hit occupies beyond ``hit_latency_cycles``.
    Zero for the paper's 3T1D design; technologies with asymmetric writes
    (e.g. STT-RAM) set this from their backend's latency model, and the
    CPU model charges it as a store-port stall."""
    l2_latency_cycles: int = 12
    memory_latency_cycles: int = 250
    l2_miss_rate: float = 0.05
    counter_bits: int = 3
    partial_refresh_threshold_cycles: int = 6000
    write_buffer_entries: int = 8
    l2_write_interval_cycles: int = 4
    write_back: bool = True
    """True for the paper's write-back cache; False models a write-through,
    no-write-allocate cache, for which expiring dirty data needs no action
    (section 4.3.1)."""
    real_l2: bool = False
    """When True the simulator instantiates the Table 2 L2 (2MB, 4-way,
    LRU, write-back) and measures its miss rate from the trace instead of
    using the per-benchmark statistical ``l2_miss_rate``."""
    l2_geometry: Optional[CacheGeometry] = None
    """Backing L2 organisation; ``None`` derives the Table 2 default.
    Always concrete after construction."""

    def __post_init__(self) -> None:
        if self.hit_latency_cycles is None:
            object.__setattr__(
                self,
                "hit_latency_cycles",
                self.geometry.access_latency_cycles,
            )
        if self.hit_latency_cycles < 1:
            raise ConfigurationError("hit_latency_cycles must be >= 1")
        if self.write_hit_extra_cycles < 0:
            raise ConfigurationError("write_hit_extra_cycles must be >= 0")
        if self.l2_latency_cycles <= self.hit_latency_cycles:
            raise ConfigurationError(
                "L2 latency must exceed the L1 hit latency"
            )
        if self.memory_latency_cycles <= self.l2_latency_cycles:
            raise ConfigurationError(
                "memory latency must exceed the L2 latency"
            )
        if not 0.0 <= self.l2_miss_rate <= 1.0:
            raise ConfigurationError("l2_miss_rate must be in [0, 1]")
        if self.counter_bits < 1:
            raise ConfigurationError("counter_bits must be >= 1")
        if self.partial_refresh_threshold_cycles < 1:
            raise ConfigurationError(
                "partial_refresh_threshold_cycles must be >= 1"
            )
        if self.write_buffer_entries < 1:
            raise ConfigurationError("write_buffer_entries must be >= 1")
        if self.l2_write_interval_cycles < 1:
            raise ConfigurationError("l2_write_interval_cycles must be >= 1")
        if self.l2_geometry is None:
            object.__setattr__(
                self,
                "l2_geometry",
                default_l2_geometry(line_bits=self.geometry.line_bits),
            )

    @property
    def miss_latency_cycles(self) -> float:
        """Average L1-miss service latency, cycles (L2 hit/miss weighted)."""
        return (
            (1.0 - self.l2_miss_rate) * self.l2_latency_cycles
            + self.l2_miss_rate * self.memory_latency_cycles
        )

    def with_ways(self, ways: int) -> "CacheConfig":
        """Same configuration at a different associativity (Figure 11)."""
        import dataclasses

        return dataclasses.replace(
            self, geometry=self.geometry.with_ways(ways)
        )

    def with_geometry(self, geometry: CacheGeometry) -> "CacheConfig":
        """Same scheme/L2 knobs rebound to a different L1 organisation.

        The hit latency re-derives from the new geometry; everything
        else (schemes, L2, backing-store timing) carries over.
        """
        import dataclasses

        return dataclasses.replace(
            self, geometry=geometry, hit_latency_cycles=None
        )
