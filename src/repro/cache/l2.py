"""L2 backing store and write-buffer model.

The paper's machine has a 2MB 4-way L2 (Table 2).  For the L1 retention
study the L2's job is to (a) serve L1 misses at its latency, (b) absorb
dirty write-backs -- including the bursts the no-refresh scheme produces
when many dirty lines expire close together (section 4.3.1 describes the
write-buffer stall this can cause).

The L2 itself is modeled statistically (hit latency + a fixed miss rate to
memory) because the synthetic workloads' L2-footprint behaviour is a
profile parameter, not something the L1 schemes change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.config import CacheConfig


@dataclass
class WriteBuffer:
    """Token-bucket write buffer between the L1 and the L2.

    Write-backs enqueue at their event cycle and drain one entry every
    ``drain_interval_cycles``.  When a write-back arrives to a full buffer
    the cache must stall until a slot frees -- those stall cycles are what
    the paper's "pathological scenario" costs.
    """

    capacity: int = 8
    drain_interval_cycles: int = 4
    _queued: int = field(init=False, default=0)
    _last_cycle: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigurationError("write buffer capacity must be >= 1")
        if self.drain_interval_cycles < 1:
            raise ConfigurationError("drain interval must be >= 1 cycle")

    @classmethod
    def for_config(cls, config: "CacheConfig") -> "WriteBuffer":
        """The L1's write buffer as sized by a :class:`CacheConfig`."""
        return cls(
            capacity=config.write_buffer_entries,
            drain_interval_cycles=config.l2_write_interval_cycles,
        )

    def _drain_until(self, cycle: float) -> None:
        if cycle < self._last_cycle:
            # Lazily-discovered expiry write-backs may arrive out of order;
            # treat them as happening "now" -- the buffer cannot time travel.
            cycle = self._last_cycle
        elapsed = cycle - self._last_cycle
        drained = int(elapsed // self.drain_interval_cycles)
        self._queued = max(0, self._queued - drained)
        self._last_cycle = cycle

    def push(self, cycle: float) -> int:
        """Enqueue one write-back at ``cycle``; returns stall cycles incurred."""
        self._drain_until(cycle)
        stall = 0
        if self._queued >= self.capacity:
            # Must wait for one drain slot.
            stall = self.drain_interval_cycles
            self._queued = self.capacity - 1
        self._queued += 1
        return stall

    @property
    def occupancy(self) -> int:
        """Entries currently queued (as of the last event)."""
        return self._queued


@dataclass
class L2Model:
    """Statistical L2: latency bookkeeping and access counting."""

    latency_cycles: int = 12
    memory_latency_cycles: int = 250
    miss_rate: float = 0.05
    accesses: int = field(init=False, default=0)
    writes: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.latency_cycles < 1:
            raise ConfigurationError("L2 latency must be >= 1 cycle")
        if self.memory_latency_cycles <= self.latency_cycles:
            raise ConfigurationError("memory latency must exceed L2 latency")
        if not 0.0 <= self.miss_rate <= 1.0:
            raise ConfigurationError("miss_rate must be in [0, 1]")

    @property
    def average_latency_cycles(self) -> float:
        """Expected L1-miss service latency in cycles."""
        return (
            (1.0 - self.miss_rate) * self.latency_cycles
            + self.miss_rate * self.memory_latency_cycles
        )

    def read(self) -> float:
        """Record a demand read; returns its expected latency in cycles."""
        self.accesses += 1
        return self.average_latency_cycles

    def write(self) -> None:
        """Record a write-back arriving at the L2."""
        self.accesses += 1
        self.writes += 1
