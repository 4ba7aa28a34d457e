"""Token-based refresh arbitration (paper section 4.3.1).

The partial- and full-refresh hardware works like this in the paper:
every line's counter asserts a *refresh request* when it nears expiry; a
one-bit token iterates through the lines tagged for refresh, and a line
refreshes only while holding the token.  Requests can therefore queue
behind each other, so "to ensure data integrity, we conservatively set
the retention time counter to guarantee each line will receive the token
before expiring."

:class:`TokenRefreshEngine` implements that mechanism online for the
cache simulator: refreshes are *scheduled* (a deadline heap per sub-array
pair), serialized through each pair's single refresh port (the token),
and requested early by a conservative margin that covers the worst-case
token wait.  The engine is an opt-in alternative to the controller's lazy
refresh accounting -- the aggregate counts agree (tested), but the online
engine additionally exposes time-resolved port-busy intervals and the
token-margin cost: a line whose retention cannot cover its token margin
cannot be safely refreshed at all and is treated as dead by the refresh
machinery, exactly like the global scheme's pass-time bound.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.array.geometry import CacheGeometry


@dataclass
class TokenRefreshEngine:
    """Scheduled, token-serialized line refreshes for one cache.

    Parameters
    ----------
    geometry:
        Physical organisation (refresh port parallelism = sub-array pairs;
        one line refresh occupies its pair for ``refresh_cycles_per_line``).
    margin_cycles:
        Conservative early-request margin per line.  ``None`` derives the
        paper's worst-case bound: every line of the pair could hold the
        token first, i.e. ``rows_per_pair * refresh_cycles_per_line``
        (2048 cycles for the paper's design -- the same number as a global
        refresh pass, and not coincidentally).
    """

    geometry: CacheGeometry
    margin_cycles: Optional[int] = None
    _heaps: List[List[Tuple[int, int, int]]] = field(init=False, repr=False)
    _pair_busy_until: List[int] = field(init=False, repr=False)
    _generation: Dict[Tuple[int, int], int] = field(init=False, repr=False)
    refreshes_done: int = field(init=False, default=0)
    busy_cycles: int = field(init=False, default=0)
    max_token_wait: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.margin_cycles is None:
            self.margin_cycles = (
                self.geometry.rows_per_pair
                * self.geometry.refresh_cycles_per_line
            )
        if self.margin_cycles < 0:
            raise ConfigurationError("margin_cycles must be >= 0")
        self._heaps = [[] for _ in range(self.geometry.n_pairs)]
        self._pair_busy_until = [0] * self.geometry.n_pairs
        self._generation = {}

    # ------------------------------------------------------------------

    def can_sustain(self, retention_cycles: int) -> bool:
        """Can a line with this retention be refreshed safely at all?

        The refresh request must fire ``margin_cycles`` before expiry, so
        retention at or below the margin (plus the refresh op itself)
        cannot be guaranteed service -- the paper's conservative-counter
        rule turns such lines into dead lines for the refresh machinery.
        """
        return retention_cycles > self.margin_cycles + (
            self.geometry.refresh_cycles_per_line
        )

    def line_pair(self, set_index: int, way: int, ways: int) -> int:
        """Sub-array pair of the (set, way) line."""
        line_id = set_index * ways + way
        return line_id % self.geometry.n_pairs

    def schedule(
        self, set_index: int, way: int, ways: int, fill_cycle: int,
        retention_cycles: int,
    ) -> bool:
        """Arm the refresh request for a just-filled (or refreshed) line.

        Returns False (and schedules nothing) when the line cannot be
        sustained under the token margin.
        """
        if not self.can_sustain(retention_cycles):
            return False
        key = (set_index, way)
        generation = self._generation.get(key, 0) + 1
        self._generation[key] = generation
        due = fill_cycle + retention_cycles - self.margin_cycles
        pair = self.line_pair(set_index, way, ways)
        heapq.heappush(self._heaps[pair], (due, set_index, way, generation))
        return True

    def cancel(self, set_index: int, way: int) -> None:
        """Disarm a line's pending request (evicted / invalidated).

        Lazy: the generation bump makes stale heap entries no-ops.
        """
        key = (set_index, way)
        self._generation[key] = self._generation.get(key, 0) + 1

    def due_refreshes(self, now: int) -> List[Tuple[int, int, int]]:
        """Pop and serialize every request due by ``now``.

        Returns ``(service_cycle, set_index, way)`` triples: the cycle at
        which the line actually obtained the token and refreshed.  The
        pair's port is booked for ``refresh_cycles_per_line`` per service.
        """
        serviced = []
        per_line = self.geometry.refresh_cycles_per_line
        for pair, heap in enumerate(self._heaps):
            while heap and heap[0][0] <= now:
                due, set_index, way, generation = heapq.heappop(heap)
                if self._generation.get((set_index, way)) != generation:
                    continue  # stale: line was evicted or re-filled
                service = max(due, self._pair_busy_until[pair])
                self._pair_busy_until[pair] = service + per_line
                self.refreshes_done += 1
                self.busy_cycles += per_line
                self.max_token_wait = max(self.max_token_wait, service - due)
                serviced.append((service, set_index, way))
        return serviced

    def pending(self, pair: Optional[int] = None) -> int:
        """Requests currently armed (optionally for one pair)."""
        if pair is None:
            return sum(len(h) for h in self._heaps)
        if not 0 <= pair < self.geometry.n_pairs:
            raise ConfigurationError(f"pair {pair} out of range")
        return len(self._heaps[pair])

    def pair_busy_fraction(self, window_cycles: int) -> float:
        """Mean fraction of the window each pair's port was refreshing."""
        if window_cycles <= 0:
            raise ConfigurationError("window_cycles must be positive")
        return self.busy_cycles / (
            window_cycles * self.geometry.n_pairs
        )
