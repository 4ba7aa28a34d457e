"""Property-based tests of the cache simulator.

The ideal cache is checked access-by-access against an executable
reference model (a dict-based LRU cache); retention caches are checked
against global invariants that must hold for *any* trace and *any*
retention map, and the batched replay kernels against the controller.
"""

import dataclasses
import functools
import os
from collections import OrderedDict

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.array import CacheGeometry, ChipSampler
from repro.cache import AccessOutcome, RetentionAwareCache
from repro.cache.counters import LineCounterConfig, quantize_retention
from repro.cache.refresh import (
    FullRefresh,
    GlobalRefresh,
    NoRefresh,
    PartialRefresh,
)
from repro.core import TraceArtifacts, kernel_support, simulate_trace
from repro.technology import NODE_32NM
from repro.variation import VariationParams
from repro.workloads.generator import MemoryTrace

N_SETS = 8
N_WAYS = 4

# One access: (gap cycles, line in a small footprint, is_write).
accesses = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3000),
        st.integers(min_value=0, max_value=47),
        st.booleans(),
    ),
    min_size=1,
    max_size=120,
)

retention_grids = st.lists(
    st.sampled_from([0, 500, 2_000, 10_000, 50_000]),
    min_size=N_SETS * N_WAYS,
    max_size=N_SETS * N_WAYS,
)


class ReferenceLRUCache:
    """Executable specification of an ideal set-associative LRU cache."""

    def __init__(self, n_sets, n_ways):
        self.n_sets = n_sets
        self.n_ways = n_ways
        self.sets = [OrderedDict() for _ in range(n_sets)]

    def access(self, line):
        index = line % self.n_sets
        tag = line // self.n_sets
        entries = self.sets[index]
        if tag in entries:
            entries.move_to_end(tag)
            return True
        if len(entries) >= self.n_ways:
            entries.popitem(last=False)
        entries[tag] = True
        return False


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(accesses=accesses)
def test_ideal_cache_matches_reference_lru(tiny_config, accesses):
    cache = RetentionAwareCache(tiny_config)
    reference = ReferenceLRUCache(N_SETS, N_WAYS)
    cycle = 0
    for gap, line, is_write in accesses:
        cycle += gap
        outcome = cache.access(cycle, line, is_write)
        expected_hit = reference.access(line)
        assert (outcome is AccessOutcome.HIT) == expected_hit


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(accesses=accesses, retention=retention_grids,
       replacement=st.sampled_from(["LRU", "DSP", "RSP-FIFO", "RSP-LRU"]))
def test_stats_conservation(tiny_config, accesses, retention, replacement):
    grid = np.array(retention).reshape(N_SETS, N_WAYS)
    cache = RetentionAwareCache(
        tiny_config, grid, replacement=replacement, quantize=False
    )
    cycle = 0
    for gap, line, is_write in accesses:
        cycle += gap
        cache.access(cycle, line, is_write)
    stats = cache.finalize(cycle)
    assert stats.accesses == len(accesses)
    assert stats.hits + stats.misses == stats.accesses
    assert stats.loads + stats.stores == stats.accesses
    assert stats.l2_accesses >= stats.misses  # every miss goes to L2
    assert stats.expiry_writebacks <= stats.writebacks
    assert stats.refresh_blocked_cycles == (
        stats.line_refreshes * tiny_config.geometry.refresh_cycles_per_line
    )
    assert stats.move_blocked_cycles == (
        stats.line_moves * tiny_config.geometry.refresh_cycles_per_line
    )


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(accesses=accesses, retention=retention_grids,
       replacement=st.sampled_from(["LRU", "DSP", "RSP-FIFO", "RSP-LRU"]))
def test_set_state_structural_invariants(
    tiny_config, accesses, retention, replacement
):
    grid = np.array(retention).reshape(N_SETS, N_WAYS)
    cache = RetentionAwareCache(
        tiny_config, grid, replacement=replacement, quantize=False
    )
    cycle = 0
    for gap, line, is_write in accesses:
        cycle += gap
        cache.access(cycle, line, is_write)
        for set_state in cache.sets:
            valid_tags = [
                set_state.tags[w]
                for w in range(set_state.n_ways)
                if set_state.valid[w]
            ]
            # No duplicate tags within a set, ever.
            assert len(valid_tags) == len(set(valid_tags))


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(accesses=accesses, retention=retention_grids)
def test_dsp_never_stores_in_dead_ways(tiny_config, accesses, retention):
    grid = np.array(retention).reshape(N_SETS, N_WAYS)
    cache = RetentionAwareCache(
        tiny_config, grid, replacement="DSP", quantize=False
    )
    cycle = 0
    for gap, line, is_write in accesses:
        cycle += gap
        cache.access(cycle, line, is_write)
        for s, set_state in enumerate(cache.sets):
            for way in range(set_state.n_ways):
                if grid[s, way] == 0:
                    assert not set_state.valid[way]


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(accesses=accesses, retention=retention_grids)
def test_bypass_only_when_all_ways_dead(tiny_config, accesses, retention):
    grid = np.array(retention).reshape(N_SETS, N_WAYS)
    cache = RetentionAwareCache(
        tiny_config, grid, replacement="DSP", quantize=False
    )
    cycle = 0
    for gap, line, is_write in accesses:
        cycle += gap
        outcome = cache.access(cycle, line, is_write)
        if outcome is AccessOutcome.MISS_DEAD_BYPASS:
            assert np.all(grid[line % N_SETS] == 0)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(accesses=accesses, retention=retention_grids)
def test_full_refresh_eliminates_expiry_misses(
    tiny_config, accesses, retention
):
    # With every live line refreshed forever and a retention-aware
    # placement, retention can only cause dead-way capacity loss -- never
    # an expired access.
    grid = np.array(retention).reshape(N_SETS, N_WAYS)
    cache = RetentionAwareCache(
        tiny_config, grid, replacement="DSP", refresh=FullRefresh(),
        quantize=False,
    )
    cycle = 0
    for gap, line, is_write in accesses:
        cycle += gap
        cache.access(cycle, line, is_write)
    assert cache.stats.misses_expired == 0


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(accesses=accesses, retention=retention_grids)
def test_partial_refresh_never_loses_data_before_threshold(
    tiny_config, accesses, retention
):
    """The paper's guarantee: every live line's data survives at least the
    threshold after its fill."""
    threshold = tiny_config.partial_refresh_threshold_cycles
    grid = np.array(retention).reshape(N_SETS, N_WAYS)
    cache = RetentionAwareCache(
        tiny_config, grid, replacement="DSP",
        refresh=PartialRefresh(threshold_cycles=threshold), quantize=False,
    )
    fill_times = {}
    cycle = 0
    for gap, line, is_write in accesses:
        cycle += gap
        outcome = cache.access(cycle, line, is_write)
        if outcome is AccessOutcome.MISS_EXPIRED:
            # The expired block must have been older than the threshold.
            assert cycle - fill_times.get(line, cycle) >= threshold
        if outcome is not AccessOutcome.HIT:
            fill_times[line] = cycle


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(accesses=accesses)
def test_no_refresh_hits_only_within_retention(tiny_config, accesses):
    grid = np.full((N_SETS, N_WAYS), 5_000)
    cache = RetentionAwareCache(
        tiny_config, grid, replacement="DSP", refresh=NoRefresh(),
        quantize=False,
    )
    last_fill = {}
    cycle = 0
    for gap, line, is_write in accesses:
        cycle += gap
        outcome = cache.access(cycle, line, is_write)
        if outcome is AccessOutcome.HIT:
            assert cycle - last_fill[line] < 5_000
        else:
            last_fill[line] = cycle


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(accesses=accesses,
       retention=st.sampled_from([2_000, 10_000, 50_000]))
def test_online_refresh_with_zero_margin_matches_lazy(
    tiny_config, accesses, retention
):
    """With a zero token margin the scheduled engine degenerates to the
    lazy idealisation: same hits, same misses, same refresh counts."""
    from repro.cache.refresh import FullRefresh
    from repro.cache.token import TokenRefreshEngine

    grid = np.full((N_SETS, N_WAYS), retention)
    lazy = RetentionAwareCache(
        tiny_config, grid, replacement="DSP", refresh=FullRefresh(),
        quantize=False,
    )
    online = RetentionAwareCache(
        tiny_config, grid, replacement="DSP", refresh=FullRefresh(),
        quantize=False, online_refresh=True,
    )
    online.refresh_engine = TokenRefreshEngine(
        tiny_config.geometry, margin_cycles=0
    )
    cycle = 0
    for gap, line, is_write in accesses:
        cycle += gap
        lazy_outcome = lazy.access(cycle, line, is_write)
        online_outcome = online.access(cycle, line, is_write)
        assert lazy_outcome == online_outcome
    lazy_stats = lazy.finalize(cycle)
    online_stats = online.finalize(cycle)
    assert online_stats.hits == lazy_stats.hits
    assert online_stats.misses == lazy_stats.misses


def _refresh_policy(name, config):
    if name == "partial":
        return PartialRefresh(
            threshold_cycles=config.partial_refresh_threshold_cycles
        )
    if name == "full":
        return FullRefresh()
    if name == "global":
        return GlobalRefresh(chip_retention_cycles=10_000, pass_cycles=256)
    return NoRefresh()


#: Examples per run of the kernel fuzzer; the tier-1 suite runs 200, and
#: ``KERNEL_FUZZ_EXAMPLES`` raises it for a longer profile.
KERNEL_FUZZ_EXAMPLES = int(os.environ.get("KERNEL_FUZZ_EXAMPLES", "200"))

#: Retentions the kernel fuzzer builds grids from: 0 is a dead line and
#: 10**9 outlives every generated trace.  The same values serve as
#: access gaps, so accesses land exactly on expiry cycles.  Under partial
#: refresh (6,000-cycle threshold) a 4,000-cycle line is refreshed to
#: live 8,000 cycles and outlives a 6,000-cycle one, so an RSP set can
#: hold an expired slot above a live one.
FUZZ_RETENTIONS = (0, 500, 2_000, 4_000, 6_000, 10_000, 50_000, 10**9)


#: Registered backends whose sampled maps the kernel fuzzer also replays:
#: the STT-RAM and VarDRAM maps have many distinct retentions and dead
#: lines, which stress RSP's block-move chains.
FUZZ_BACKENDS = ("3t1d", "sttram", "vardram")

#: Chip seeds per backend and geometry; sampled grids are cached, so the
#: fuzzer revisits a bounded set of maps.
FUZZ_CHIP_SEEDS = 32


@functools.lru_cache(maxsize=None)
def _backend_grid(technology, chip_seed, geometry, counter_bits):
    """One severe chip of ``technology`` sampled at ``geometry``, its
    line retentions quantised by the chip's line counters, as the
    evaluator's caches see them, in ``(n_sets, ways)`` order."""
    chip = ChipSampler(
        NODE_32NM, VariationParams.severe(), seed=chip_seed,
        geometry=geometry, technology=technology,
    ).sample_3t1d_chip()
    cycles = chip.retention_by_line * NODE_32NM.frequency
    counter = LineCounterConfig.for_chip(
        float(np.max(cycles)), bits=counter_bits
    )
    return quantize_retention(cycles, counter).reshape(
        geometry.n_sets, geometry.ways
    )


def _fuzz_trace(data, n_sets, n_lines, seed):
    """A generated trace, optionally behind a ``memory_trace``-style
    warmup prefix: one read to each of ``n_lines`` distinct high
    addresses, round-robin over the sets.

    A *wide* access repeats at the same cycle in every set (the next
    sets' lines), so the wide stretches of the stream keep many sets
    active at once and the narrow ones pile into a few.
    """
    accesses = data.draw(st.lists(
        st.tuples(
            st.one_of(
                st.integers(min_value=0, max_value=3000),
                st.sampled_from(FUZZ_RETENTIONS[:-1]),
            ),
            # Lines below n_lines re-reference the warmup prefix.  Lines
            # below 2 * n_sets make wide accesses overlap part-way, so
            # one step mixes first touches with hits on earlier blocks.
            st.one_of(
                st.integers(min_value=0, max_value=2 * n_lines - 1),
                st.integers(min_value=0, max_value=2 * n_sets - 1),
            ),
            st.booleans(),
            st.booleans(),
        ),
        min_size=1,
        max_size=120,
    ), label="accesses")
    gaps, lines, writes = [], [], []
    for gap, line, write, wide in accesses:
        width = n_sets if wide else 1
        gaps.extend([gap] + [0] * (width - 1))
        lines.extend((line + j) % (2 * n_lines) for j in range(width))
        writes.extend([write] * width)
    cycles = np.cumsum(gaps, dtype=np.int64)
    addresses = np.asarray(lines, dtype=np.int64)
    addresses = np.where(
        addresses < n_lines, addresses + 10**9, addresses - n_lines
    )
    writes = np.asarray(writes, dtype=bool)
    prefix = 0
    if data.draw(st.booleans(), label="warmup_prefix"):
        prefix = n_lines
        mean_gap = data.draw(st.sampled_from([0, 1, 7, 100]), label="gap")
        rng = np.random.default_rng(seed)
        warm_cycles = np.cumsum(
            rng.integers(0, 2 * mean_gap + 1, size=n_lines), dtype=np.int64
        )
        cycles = np.concatenate([warm_cycles, cycles + warm_cycles[-1]])
        addresses = np.concatenate(
            [np.arange(n_lines, dtype=np.int64) + 10**9, addresses]
        )
        writes = np.concatenate([np.zeros(n_lines, dtype=bool), writes])
    return MemoryTrace(
        cycles=cycles,
        line_addresses=addresses,
        is_write=writes,
        name="generated",
        instructions=len(cycles),
        warmup_references=data.draw(st.one_of(
            st.just(prefix),
            st.integers(min_value=0, max_value=len(cycles)),
        ), label="warmup"),
    )


@settings(
    max_examples=KERNEL_FUZZ_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n_sets=st.sampled_from([1, 8, 64, 128, 256]),
    ways=st.sampled_from([1, 2, 4, 8]),
    replacement=st.sampled_from(["LRU", "DSP", "RSP-FIFO", "RSP-LRU"]),
    refresh=st.sampled_from(["none", "partial", "full", "global"]),
    write_back=st.booleans(),
    write_buffer_entries=st.sampled_from([1, 2, 8]),
    l2_write_interval_cycles=st.integers(min_value=4, max_value=4000),
    data=st.data(),
)
def test_kernels_match_controller(
    tiny_config, n_sets, ways, replacement, refresh, write_back,
    write_buffer_entries, l2_write_interval_cycles, data,
):
    """``simulate_trace`` (flattened or RSP timeline kernel) equals
    ``RetentionAwareCache.run_trace`` on every stats field, including
    the stalls of a write buffer small or slow enough to fill.

    Geometries run from one set to 256 and from direct-mapped to
    8-way, so wide traces take the kernels' lockstep steps and hand off
    to their scalar tails (at 256 sets a wide access re-touches enough
    sets to keep RSP stepping in lockstep past its first fills, with
    dirty blocks promoted); a warmup prefix like the evaluator's fills
    every line first.  The retention grid is either drawn from a small
    palette or a registered backend's map sampled at the drawn geometry
    and quantised like the evaluator's.
    """
    n_lines = n_sets * ways
    config = dataclasses.replace(
        tiny_config.with_geometry(
            CacheGeometry.from_capacity(n_lines * 64, ways, banks=1)
        ),
        write_back=write_back,
        write_buffer_entries=write_buffer_entries,
        l2_write_interval_cycles=l2_write_interval_cycles,
    )
    seed = data.draw(
        st.integers(min_value=0, max_value=2**32 - 1), label="seed"
    )
    source = data.draw(
        st.sampled_from(("palette",) + FUZZ_BACKENDS), label="grid_source"
    )
    if source == "palette":
        palette = data.draw(st.lists(
            st.sampled_from(FUZZ_RETENTIONS), min_size=1, max_size=4,
            unique=True,
        ), label="retentions")
        grid = np.random.default_rng(seed).choice(
            palette, size=(n_sets, ways)
        )
    else:
        grid = _backend_grid(
            source, seed % FUZZ_CHIP_SEEDS, config.geometry,
            config.counter_bits,
        )
    trace = _fuzz_trace(data, n_sets, n_lines, seed)

    def build():
        return RetentionAwareCache(
            config, grid, replacement=replacement,
            refresh=_refresh_policy(refresh, config), quantize=False,
        )

    cache = build()
    assert kernel_support(cache).path == (
        "timeline" if replacement.startswith("RSP") else "flattened"
    )
    via_kernel = simulate_trace(
        cache, TraceArtifacts.from_trace(trace, n_sets)
    )
    via_controller = build().run_trace(
        trace.cycles, trace.line_addresses, trace.is_write,
        warmup_references=trace.warmup_references,
    )
    assert dataclasses.asdict(via_kernel) == dataclasses.asdict(
        via_controller
    )
