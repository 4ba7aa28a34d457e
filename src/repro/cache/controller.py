"""The retention-aware cache controller (event-driven simulator core).

:class:`RetentionAwareCache` simulates the paper's L1 data cache on a
reference trace.  Each line carries the retention time of its physical
location (quantised by the line counters); the configured refresh policy
decides how long filled data stays usable and how many refresh operations
that costs; the configured replacement policy decides where blocks go --
including the RSP schemes' intrinsic-refresh block moves.

The simulator is open-loop in time: reference timestamps come from the
workload trace and are not stretched by misses.  Miss/refresh/stall
*counts* are exact for that reference stream; the CPU model
(:mod:`repro.cpu.perfmodel`) converts them into IPC.
"""

from __future__ import annotations

from typing import List, Iterable, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.cache.config import CacheConfig
from repro.cache.counters import LineCounterConfig, quantize_retention
from repro.cache.l2 import L2Model, WriteBuffer
from repro.cache.refresh import (
    FullRefresh,
    GlobalRefresh,
    NoRefresh,
    PartialRefresh,
    RefreshPolicy,
)
from repro.cache.token import TokenRefreshEngine
from repro.cache.replacement import ReplacementPolicy, make_replacement_policy
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.stats import AccessOutcome, CacheStats


class SetState:
    """Mutable state of one cache set."""

    __slots__ = (
        "index",
        "n_ways",
        "tags",
        "valid",
        "dirty",
        "stale",
        "fill_cycle",
        "expiry_cycle",
        "recency",
        "retention",
        "retention_order",
        "refreshes_done",
    )

    def __init__(self, retention_cycles: Sequence[int], index: int = 0):
        self.index = index
        self.n_ways = len(retention_cycles)
        self.tags: List[int] = [0] * self.n_ways
        self.valid: List[bool] = [False] * self.n_ways
        self.dirty: List[bool] = [False] * self.n_ways
        self.stale: List[bool] = [False] * self.n_ways
        self.fill_cycle: List[int] = [0] * self.n_ways
        self.expiry_cycle: List[float] = [0.0] * self.n_ways
        self.recency: List[int] = [0] * self.n_ways
        self.refreshes_done: List[int] = [0] * self.n_ways
        self.retention: List[int] = [int(r) for r in retention_cycles]
        # Live ways sorted by descending retention (ties broken by way
        # index for determinism); dead ways are excluded.
        self.retention_order: List[int] = sorted(
            (w for w in range(self.n_ways) if self.retention[w] > 0),
            key=lambda w: (-self.retention[w], w),
        )

    @property
    def live_ways(self) -> List[int]:
        """Ways with non-zero usable retention."""
        return self.retention_order

    def invalid_way(self, candidates: Optional[Iterable[int]] = None) -> Optional[int]:
        """First invalid way among ``candidates`` (default: all ways)."""
        ways = range(self.n_ways) if candidates is None else candidates
        for way in ways:
            if not self.valid[way]:
                return way
        return None

    def lru_way(self, candidates: Iterable[int]) -> int:
        """Least-recently-used way among ``candidates``."""
        best, best_recency = None, None
        for way in candidates:
            if best_recency is None or self.recency[way] < best_recency:
                best, best_recency = way, self.recency[way]
        if best is None:
            raise SimulationError("lru_way called with no candidates")
        return best


class RetentionAwareCache:
    """Trace-driven simulator of one 3T1D (or ideal 6T) L1 data cache.

    Parameters
    ----------
    config:
        Cache organisation and timing knobs.
    retention_cycles:
        Per-line retention in cycles, shape ``(n_sets, ways)`` (or anything
        reshapeable to it).  Use ``None`` for an ideal cache whose lines
        never expire (the 6T baseline).
    replacement:
        Policy instance or paper-style name ("LRU", "DSP", "RSP-FIFO",
        "RSP-LRU").
    refresh:
        A :class:`~repro.cache.refresh.RefreshPolicy`; defaults to
        :class:`~repro.cache.refresh.NoRefresh`.
    counter:
        Line-counter configuration used to quantise ``retention_cycles``;
        ``None`` picks the per-chip default
        (:meth:`LineCounterConfig.for_chip`).  Pass ``quantize=False`` to
        use raw retention values (useful in unit tests).
    online_refresh:
        When True and the refresh policy is periodic (partial or full),
        refreshes run through the section 4.3.1 token engine: scheduled
        deadlines, serialized per sub-array pair, requested early by a
        conservative margin.  Aggregate counts match the default lazy
        accounting, but lines whose retention cannot cover the token
        margin are not refreshable (the hardware's conservative rule).
    """

    def __init__(
        self,
        config: CacheConfig,
        retention_cycles: Optional[np.ndarray] = None,
        replacement: Union[str, ReplacementPolicy] = "LRU",
        refresh: Optional[RefreshPolicy] = None,
        counter: Optional[LineCounterConfig] = None,
        quantize: bool = True,
        online_refresh: bool = False,
    ):
        self.config = config
        geometry = config.geometry
        if retention_cycles is None:
            grid = np.full((geometry.n_sets, geometry.ways), np.iinfo(np.int64).max)
            quantize = False
        else:
            grid = np.asarray(retention_cycles)
            if grid.size != geometry.n_lines:
                raise ConfigurationError(
                    f"retention_cycles has {grid.size} entries for "
                    f"{geometry.n_lines} lines"
                )
            grid = grid.reshape(geometry.n_sets, geometry.ways)
        if quantize:
            if counter is None:
                counter = LineCounterConfig.for_chip(
                    float(np.max(grid)), bits=config.counter_bits
                )
            grid = quantize_retention(grid, counter)
        self.counter = counter
        self.retention_grid = np.asarray(grid, dtype=np.int64)

        if isinstance(replacement, str):
            replacement = make_replacement_policy(replacement)
        self.replacement = replacement
        self.refresh = refresh if refresh is not None else NoRefresh()

        # Per-set state is built lazily on first touch: the batched replay
        # kernels read only ``retention_grid`` and the policy objects, so
        # they never pay for n_sets SetState constructions.
        self._sets: Optional[List[SetState]] = None
        # Optional token-arbitrated scheduled refresh (section 4.3.1's
        # hardware mechanism); only meaningful for the periodic policies.
        self.refresh_engine: Optional[TokenRefreshEngine] = None
        if online_refresh and isinstance(
            self.refresh, (PartialRefresh, FullRefresh)
        ):
            self.refresh_engine = TokenRefreshEngine(geometry)
        self.stats = CacheStats()
        self.l2 = L2Model(
            latency_cycles=config.l2_latency_cycles,
            memory_latency_cycles=config.memory_latency_cycles,
            miss_rate=config.l2_miss_rate,
        )
        self.write_buffer = WriteBuffer.for_config(config)
        self.l2_cache: Optional[SetAssociativeCache] = None
        if config.real_l2:
            self.l2_cache = SetAssociativeCache(
                capacity_bytes=config.l2_geometry.size_bytes,
                line_bytes=config.geometry.line_bits // 8,
                ways=config.l2_geometry.ways,
            )
        self._tick = 0
        self._last_cycle = 0
        self._finalized = False
        self._recently_expired_tags: set = set()

    @property
    def sets(self) -> List[SetState]:
        """Per-set mutable state (built lazily on first access)."""
        if self._sets is None:
            rows = self.retention_grid.tolist()
            self._sets = [
                SetState(rows[s], index=s)
                for s in range(self.config.geometry.n_sets)
            ]
        return self._sets

    # ------------------------------------------------------------------
    # main access path
    # ------------------------------------------------------------------

    def access(self, cycle: int, line_address: int, is_write: bool) -> AccessOutcome:
        """Simulate one demand access; returns its outcome."""
        if self._finalized:
            raise SimulationError("cache already finalized")
        if cycle < self._last_cycle:
            raise SimulationError(
                f"trace cycles must be non-decreasing ({cycle} after "
                f"{self._last_cycle})"
            )
        self._last_cycle = cycle
        self._tick += 1
        if is_write:
            self.stats.stores += 1
        else:
            self.stats.loads += 1

        if self.refresh_engine is not None:
            self._service_scheduled_refreshes(cycle)

        geometry = self.config.geometry
        set_index = line_address % geometry.n_sets
        tag = line_address // geometry.n_sets
        set_state = self.sets[set_index]

        self._sweep_expired(set_state, cycle)

        if is_write and not self.config.write_back:
            return self._write_through(set_state, tag, cycle, line_address)

        way = self._lookup(set_state, tag)
        if way is not None:
            if set_state.stale[way]:
                # The tag looked valid but the data has expired: expired
                # miss; the line refills in place from the L2.
                self.stats.misses_expired += 1
                self._l2_read(line_address)
                set_state.stale[way] = False
                set_state.dirty[way] = is_write
                set_state.fill_cycle[way] = cycle
                set_state.expiry_cycle[way] = cycle + self._effective_lifetime(
                    set_state.retention[way]
                )
                set_state.recency[way] = self._tick
                self.stats.fills += 1
                return AccessOutcome.MISS_EXPIRED
            self.stats.hits += 1
            set_state.recency[way] = self._tick
            if is_write:
                set_state.dirty[way] = True
            self.replacement.on_hit(self, set_state, way, cycle)
            return AccessOutcome.HIT

        # Miss: expired lines were invalidated in the sweep, so distinguish
        # an expiry miss by whether this tag was resident-but-expired.
        outcome = (
            AccessOutcome.MISS_EXPIRED
            if tag in self._recently_expired_tags
            else AccessOutcome.MISS_COLD
        )

        self._l2_read(line_address)
        victim_way = self.replacement.make_room(self, set_state, cycle)
        if victim_way is None:
            self.stats.misses_dead_bypass += 1
            return AccessOutcome.MISS_DEAD_BYPASS
        if outcome is AccessOutcome.MISS_EXPIRED:
            self.stats.misses_expired += 1
        else:
            self.stats.misses_cold += 1
        self._fill(set_state, victim_way, tag, cycle, dirty=is_write)
        return outcome

    def reset_stats(self) -> None:
        """Zero the counters, keeping all cache line state (end of warmup)."""
        self.stats = CacheStats()
        self.l2.accesses = 0
        self.l2.writes = 0
        if self.l2_cache is not None:
            self.l2_cache.reset_stats()

    def run_trace(
        self,
        cycles: Sequence[int],
        line_addresses: Sequence[int],
        is_write: Sequence[bool],
        warmup_references: int = 0,
    ) -> CacheStats:
        """Run a whole trace and finalize; returns the stats.

        The first ``warmup_references`` accesses prime the cache state and
        are excluded from the returned statistics.
        """
        for index, (cycle, addr, write) in enumerate(
            zip(cycles, line_addresses, is_write)
        ):
            if index == warmup_references and warmup_references:
                self.reset_stats()
            self.access(int(cycle), int(addr), bool(write))
        if warmup_references and len(cycles) <= warmup_references:
            self.reset_stats()
        end = int(cycles[-1]) if len(cycles) else 0
        return self.finalize(end)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _write_through(
        self, set_state: SetState, tag: int, cycle: int, line_address: int
    ) -> AccessOutcome:
        """Write-through, no-write-allocate store path.

        Every store goes straight to the L2 (through the write buffer);
        resident lines are updated but never dirtied, and store misses do
        not allocate.
        """
        self.stats.write_throughs += 1
        self.l2.write()
        if self.l2_cache is not None:
            self.l2_cache.fill_dirty(line_address)
        stall = self.write_buffer.push(cycle)
        self.stats.write_buffer_stall_cycles += stall
        way = self._lookup(set_state, tag)
        if way is not None and not set_state.stale[way]:
            set_state.recency[way] = self._tick
            self.stats.hits += 1
            self.replacement.on_hit(self, set_state, way, cycle)
            return AccessOutcome.HIT
        self.stats.misses_cold += 1
        return AccessOutcome.MISS_COLD

    def _l2_read(self, line_address: int) -> None:
        """Record one L1-miss read reaching the L2."""
        self.l2.read()
        self.stats.l2_accesses += 1
        if self.l2_cache is not None:
            if self.l2_cache.access(line_address, is_write=False):
                self.stats.l2_hits += 1
            else:
                self.stats.l2_misses += 1

    def _l2_writeback(self, set_state: SetState, way: int) -> None:
        """Deliver a dirty line's data into the L2."""
        if self.l2_cache is not None:
            line_address = (
                set_state.tags[way] * self.config.geometry.n_sets
                + set_state.index
            )
            self.l2_cache.fill_dirty(line_address)

    def _lookup(self, set_state: SetState, tag: int) -> Optional[int]:
        for way in range(set_state.n_ways):
            if set_state.valid[way] and set_state.tags[way] == tag:
                return way
        return None

    def _sweep_expired(self, set_state: SetState, cycle: int) -> None:
        """Handle lines whose retention ran out, lazily per set.

        Retention-aware placement (DSP/RSP) evicts expired lines outright:
        the way becomes free.  Retention-blind LRU leaves the tag
        *apparently valid* -- the paper's "mistakenly treated as being
        useful" dead/expired lines -- and the data-integrity machinery
        only writes dirty data back at expiry; a later access to the tag
        is an expired miss plus a pipeline replay.
        """
        self._recently_expired_tags = set()
        aware = self.replacement.uses_retention_info
        for way in range(set_state.n_ways):
            if (
                set_state.valid[way]
                and not set_state.stale[way]
                and cycle >= set_state.expiry_cycle[way]
            ):
                self._recently_expired_tags.add(set_state.tags[way])
                if aware:
                    self._finalize_line(
                        set_state, way, int(set_state.expiry_cycle[way]),
                        expired=True,
                    )
                else:
                    self._expire_in_place(
                        set_state, way, int(set_state.expiry_cycle[way])
                    )

    def _expire_in_place(
        self, set_state: SetState, way: int, cycle: int
    ) -> None:
        """Mark a line stale without freeing the way (retention-blind LRU)."""
        age = max(0, cycle - set_state.fill_cycle[way])
        self._account_refreshes(age, set_state.retention[way])
        if self.refresh_engine is not None:
            self.refresh_engine.cancel(set_state.index, way)
        if set_state.dirty[way]:
            self.stats.writebacks += 1
            self.stats.expiry_writebacks += 1
            self.l2.write()
            self._l2_writeback(set_state, way)
            stall = self.write_buffer.push(cycle)
            self.stats.write_buffer_stall_cycles += stall
            set_state.dirty[way] = False
        set_state.stale[way] = True

    def _effective_lifetime(self, retention: int) -> float:
        if self.refresh_engine is not None:
            # Scheduled refreshes extend life explicitly; between services
            # the data lives exactly one retention period.
            return float(retention)
        return self.refresh.effective_lifetime(retention)

    def _fill(
        self, set_state: SetState, way: int, tag: int, cycle: int, dirty: bool
    ) -> None:
        if set_state.valid[way]:
            raise SimulationError("fill into an occupied way; evict first")
        set_state.tags[way] = tag
        set_state.valid[way] = True
        set_state.stale[way] = False
        set_state.dirty[way] = dirty
        set_state.fill_cycle[way] = cycle
        lifetime = self._effective_lifetime(set_state.retention[way])
        set_state.expiry_cycle[way] = cycle + lifetime
        set_state.recency[way] = self._tick
        set_state.refreshes_done[way] = 0
        self.stats.fills += 1
        self._maybe_schedule_refresh(set_state, way, cycle)

    def _account_refreshes(self, age: int, retention: int) -> None:
        if self.refresh_engine is not None:
            return  # counted online at service time
        count = self.refresh.refresh_count(age, retention)
        if count:
            self.stats.line_refreshes += count
            self.stats.refresh_blocked_cycles += (
                count * self.config.geometry.refresh_cycles_per_line
            )

    def _finalize_line(
        self, set_state: SetState, way: int, cycle: int, expired: bool = False
    ) -> None:
        """Close out a valid line: refresh accounting plus dirty write-back."""
        if set_state.stale[way]:
            # Expiry already accounted refreshes and any write-back.
            set_state.valid[way] = False
            set_state.stale[way] = False
            set_state.dirty[way] = False
            return
        age = max(0, cycle - set_state.fill_cycle[way])
        self._account_refreshes(age, set_state.retention[way])
        if self.refresh_engine is not None:
            self.refresh_engine.cancel(set_state.index, way)
        if set_state.dirty[way]:
            self.stats.writebacks += 1
            if expired:
                self.stats.expiry_writebacks += 1
            self.l2.write()
            self._l2_writeback(set_state, way)
            stall = self.write_buffer.push(cycle)
            self.stats.write_buffer_stall_cycles += stall
        set_state.valid[way] = False
        set_state.dirty[way] = False

    # --- controller services used by replacement policies -----------------

    def evict_line(self, set_state: SetState, way: int, cycle: int) -> None:
        """Evict the block in ``way`` (no-op if invalid)."""
        if set_state.valid[way]:
            self._finalize_line(set_state, way, cycle, expired=False)

    def move_line(
        self, set_state: SetState, src: int, dst: int, cycle: int
    ) -> None:
        """Physically move a block between ways (RSP intrinsic refresh).

        The rewrite restarts the destination line's retention clock.
        """
        if not set_state.valid[src]:
            raise SimulationError("move_line from an invalid way")
        if set_state.valid[dst]:
            raise SimulationError("move_line into an occupied way")
        self._account_refreshes(
            max(0, cycle - set_state.fill_cycle[src]), set_state.retention[src]
        )
        set_state.tags[dst] = set_state.tags[src]
        set_state.dirty[dst] = set_state.dirty[src]
        set_state.recency[dst] = set_state.recency[src]
        set_state.fill_cycle[dst] = cycle
        set_state.expiry_cycle[dst] = cycle + self._effective_lifetime(
            set_state.retention[dst]
        )
        set_state.valid[dst] = True
        set_state.valid[src] = False
        set_state.dirty[src] = False
        set_state.refreshes_done[dst] = 0
        if self.refresh_engine is not None:
            self.refresh_engine.cancel(set_state.index, src)
            self._maybe_schedule_refresh(set_state, dst, cycle)
        self.stats.line_moves += 1
        self.stats.move_blocked_cycles += (
            self.config.geometry.refresh_cycles_per_line
        )

    def promote_line(
        self, set_state: SetState, order: Sequence[int], position: int, cycle: int
    ) -> None:
        """RSP-LRU promotion: block at ``order[position]`` moves to
        ``order[0]``; blocks above shift one step down."""
        if position <= 0:
            return
        src_way = order[position]
        if not set_state.valid[src_way]:
            raise SimulationError("promote_line from an invalid way")
        # Stash the promoted block, shift the chain, then land the stash.
        stash = (
            set_state.tags[src_way],
            set_state.dirty[src_way],
            set_state.recency[src_way],
        )
        set_state.valid[src_way] = False
        for i in range(position, 0, -1):
            src, dst = order[i - 1], order[i]
            if set_state.valid[src]:
                self.move_line(set_state, src, dst, cycle)
        landing = order[0]
        set_state.tags[landing] = stash[0]
        set_state.dirty[landing] = stash[1]
        set_state.recency[landing] = stash[2]
        set_state.fill_cycle[landing] = cycle
        set_state.expiry_cycle[landing] = cycle + self._effective_lifetime(
            set_state.retention[landing]
        )
        set_state.valid[landing] = True
        self.stats.line_moves += 1
        self.stats.move_blocked_cycles += (
            self.config.geometry.refresh_cycles_per_line
        )

    # ------------------------------------------------------------------
    # scheduled (token) refresh
    # ------------------------------------------------------------------

    def _maybe_schedule_refresh(
        self, set_state: SetState, way: int, cycle: int
    ) -> None:
        """Arm the token engine for a just-(re)written line, per policy."""
        engine = self.refresh_engine
        if engine is None:
            return
        retention = set_state.retention[way]
        if retention <= 0:
            return
        if isinstance(self.refresh, PartialRefresh):
            if retention >= self.refresh.threshold_cycles:
                return
            if set_state.refreshes_done[way] >= self.refresh.max_refreshes(
                retention
            ):
                return
        engine.schedule(
            set_state.index, way, set_state.n_ways, cycle, retention
        )

    def _service_scheduled_refreshes(self, cycle: int) -> None:
        """Apply every token-granted refresh due by ``cycle``.

        Each service re-arms the line's next request, so the drain loops
        until the window is quiet (an idle line can chain through several
        refresh periods between two demand accesses).
        """
        while True:
            serviced = self.refresh_engine.due_refreshes(cycle)
            if not serviced:
                return
            for service, set_index, way in serviced:
                set_state = self.sets[set_index]
                if not set_state.valid[way] or set_state.stale[way]:
                    continue
                retention = set_state.retention[way]
                set_state.fill_cycle[way] = service
                set_state.expiry_cycle[way] = service + retention
                set_state.refreshes_done[way] += 1
                self.stats.line_refreshes += 1
                self.stats.refresh_blocked_cycles += (
                    self.config.geometry.refresh_cycles_per_line
                )
                self._maybe_schedule_refresh(set_state, way, service)

    # ------------------------------------------------------------------
    # finalization
    # ------------------------------------------------------------------

    def finalize(self, end_cycle: int) -> CacheStats:
        """Close the simulation window at ``end_cycle`` and return stats.

        Accounts refreshes still owed by resident lines and, for the
        global scheme, the full-cache refresh passes issued during the
        window.
        """
        if self._finalized:
            return self.stats
        self._finalized = True
        end_cycle = max(end_cycle, self._last_cycle)
        for set_state in self.sets:
            for way in range(set_state.n_ways):
                if set_state.valid[way] and not set_state.stale[way]:
                    cutoff = min(end_cycle, set_state.expiry_cycle[way])
                    age = max(0, int(cutoff) - set_state.fill_cycle[way])
                    self._account_refreshes(age, set_state.retention[way])
        if isinstance(self.refresh, GlobalRefresh):
            passes = self.refresh.passes_in_window(end_cycle)
            lines = self.config.geometry.n_lines
            self.stats.line_refreshes += passes * lines
            self.stats.refresh_blocked_cycles += (
                passes * self.refresh.pass_cycles
            )
        return self.stats

    @property
    def window_cycles(self) -> int:
        """Cycles elapsed up to the last processed access."""
        return self._last_cycle
