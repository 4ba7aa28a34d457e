"""Event counters reported by the cache simulator."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class AccessOutcome(Enum):
    """What happened to one cache access."""

    HIT = "hit"
    MISS_COLD = "miss_cold"
    """Tag not present (cold/capacity/conflict miss)."""
    MISS_EXPIRED = "miss_expired"
    """Tag present but the line's retention had run out -- the miss class
    that only exists in a 3T1D cache and that the schemes fight."""
    MISS_DEAD_BYPASS = "miss_dead_bypass"
    """Every usable way of the set is dead; the access bypassed the L1."""


@dataclass
class CacheStats:
    """Aggregate counters over one simulation window.

    Port-activity counters feed the dynamic-power model; miss/refresh/move
    counters feed the performance model.
    """

    loads: int = 0
    stores: int = 0
    hits: int = 0
    misses_cold: int = 0
    misses_expired: int = 0
    misses_dead_bypass: int = 0
    writebacks: int = 0
    expiry_writebacks: int = 0
    write_throughs: int = 0
    l2_accesses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    line_refreshes: int = 0
    refresh_blocked_cycles: int = 0
    line_moves: int = 0
    move_blocked_cycles: int = 0
    write_buffer_stall_cycles: int = 0
    fills: int = 0

    @property
    def accesses(self) -> int:
        """Total demand accesses."""
        return self.loads + self.stores

    @property
    def misses(self) -> int:
        """Total demand misses of all causes."""
        return self.misses_cold + self.misses_expired + self.misses_dead_bypass

    @property
    def miss_rate(self) -> float:
        """Demand miss rate; zero on an empty window."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def expired_miss_rate(self) -> float:
        """Retention-expiry misses per demand access."""
        if self.accesses == 0:
            return 0.0
        return self.misses_expired / self.accesses

    @property
    def port_accesses(self) -> int:
        """Array port activations for the dynamic-power model.

        Demand accesses + fills + write-backs/write-throughs; refreshes and
        line moves are charged separately at their own (cheaper) per-line
        energies.
        """
        return self.accesses + self.fills + self.writebacks + self.write_throughs

    @property
    def measured_l2_miss_rate(self) -> float:
        """L2 demand miss rate when a real L2 was simulated; 0 otherwise."""
        demand = self.l2_hits + self.l2_misses
        if demand == 0:
            return 0.0
        return self.l2_misses / demand

    @property
    def blocked_cycles(self) -> int:
        """Cycles during which refresh or line moves held cache ports."""
        return self.refresh_blocked_cycles + self.move_blocked_cycles
