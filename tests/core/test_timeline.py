"""The RSP timeline kernel: bit-identity and edge semantics.

The full-suite identity sweep (all nine schemes x eight benchmarks,
which routes the RSP schemes through this kernel) lives in
``test_batcheval.py``, and a property test in
``tests/property/test_cache_properties.py`` compares both kernels with
the controller on generated inputs.  This module drives the timeline
path directly on crafted micro-traces where the awkward interleavings --
same-cycle expiry, the warmup split, a full write buffer -- are
guaranteed to occur.
"""

import dataclasses

import numpy as np
import pytest

from repro.technology import NODE_32NM
from repro.variation import VariationParams
from repro.array import CacheGeometry, ChipSampler
from repro.cache import CacheConfig, RetentionAwareCache
from repro.cache.refresh import NoRefresh, PartialRefresh
from repro.core import (
    Cache3T1DArchitecture,
    Evaluator,
    TraceArtifacts,
    simulate_trace,
)
from repro.core.schemes import (
    SCHEME_NO_REFRESH_LRU,
    SCHEME_RSP_FIFO,
    SCHEME_RSP_LRU,
)
from repro.workloads.generator import MemoryTrace


def _micro_trace(cycles, addresses, writes, warmup=0):
    cycles = list(cycles)
    return MemoryTrace(
        cycles=np.asarray(cycles, dtype=np.int64),
        line_addresses=np.asarray(list(addresses), dtype=np.int64),
        is_write=np.asarray(list(writes), dtype=bool),
        name="micro",
        instructions=len(cycles),
        warmup_references=warmup,
    )


def _run_both(grid, replacement, refresh, trace, config=None):
    """(controller stats, kernel stats) on identical fresh caches."""
    config = CacheConfig() if config is None else config

    def build():
        return RetentionAwareCache(
            config,
            retention_cycles=grid,
            replacement=replacement,
            refresh=refresh,
            quantize=False,
        )

    via_controller = build().run_trace(
        trace.cycles, trace.line_addresses, trace.is_write,
        warmup_references=trace.warmup_references,
    )
    via_kernel = simulate_trace(
        build(), TraceArtifacts.from_trace(trace, config.geometry.n_sets)
    )
    return via_controller, via_kernel


def _full_grid(retention=100000):
    geometry = CacheConfig().geometry
    return np.full((geometry.n_sets, geometry.ways), retention, np.int64)


def _busy_trace(n_sets, tags=6, repeats=20, stride=250):
    """A reuse-heavy stream in set 0 that exercises hits and evictions."""
    n = tags * repeats
    return _micro_trace(
        cycles=range(0, n * stride, stride),
        addresses=[t * n_sets for t in range(tags)] * repeats,
        writes=[True, False, False] * (n // 3),
    )


class TestTimelineIdentityMicro:
    """The RSP kernel against the controller on micro-traces."""

    @pytest.mark.parametrize("replacement", ["RSP-FIFO", "RSP-LRU"])
    def test_rsp_placement_identity(self, replacement):
        geometry = CacheConfig().geometry
        grid = _full_grid()
        # Mixed retention in set 0 so RSP's retention-ordered placement
        # and promotion actually reorder lines.
        grid[0] = [4000, 900, 250000, 60]
        trace = _busy_trace(geometry.n_sets, tags=3, repeats=40)
        ctrl, kern = _run_both(grid, replacement, NoRefresh(), trace)
        assert ctrl == kern
        assert kern.hits > 0
        assert kern.misses > 0

    def test_warmup_split_identity(self):
        geometry = CacheConfig().geometry
        grid = _full_grid()
        grid[0] = [4000, 900, 250000, 60]
        trace = _busy_trace(geometry.n_sets)
        warm = _micro_trace(
            trace.cycles, trace.line_addresses, trace.is_write,
            warmup=len(trace) // 2,
        )
        ctrl, kern = _run_both(grid, "RSP-FIFO", NoRefresh(), warm)
        assert ctrl == kern


class TestTimelineEdges:
    """The interleavings the interval arithmetic must get exactly right."""

    @pytest.mark.parametrize("replacement", ["RSP-FIFO", "RSP-LRU"])
    def test_same_cycle_expiry_vs_access_rsp(self, replacement):
        grid = _full_grid()
        grid[0, :] = 50
        # A dirty fill at cycle 0 (lifetime 50); the next reference lands
        # exactly on the expiry cycle, so the sweep must write the line
        # back and classify the access as an expired miss -- not a hit.
        trace = _micro_trace(
            cycles=[0, 50, 60], addresses=[0, 0, 0],
            writes=[True, False, True],
        )
        ctrl, kern = _run_both(grid, replacement, NoRefresh(), trace)
        assert ctrl == kern
        assert kern.expiry_writebacks == 1
        assert kern.misses_expired == 1


    def test_promotion_across_an_expired_slot(self):
        """An RSP-LRU hit below an expired slot carries the hole down.

        Partial refresh stretches a 4000-cycle line to 8000 cycles, past
        the 7000-cycle line above it, so slot 0 expires while slot 1
        lives.  The hit on slot 1 promotes its block into slot 0 and
        the shift carries the empty slot into slot 1: the promoted block
        must not stay behind as a copy.
        """
        grid = _full_grid()
        grid[0] = [3000, 4000, 7000, 100]
        n_sets = CacheConfig().geometry.n_sets
        trace = _micro_trace(
            cycles=[0, 10, 7500, 7600, 7700, 7800, 7900],
            addresses=[t * n_sets for t in (0, 1, 0, 2, 3, 0, 4)],
            writes=[True, False, False, True, False, False, False],
        )
        ctrl, kern = _run_both(
            grid, "RSP-LRU", PartialRefresh(threshold_cycles=6000), trace
        )
        assert dataclasses.asdict(kern) == dataclasses.asdict(ctrl)
        assert kern.misses_expired == 0 and kern.hits == 2


class TestLockstepSteps:
    """RSP's position-space lockstep step on a crafted 160-set stream.

    Every one of the 160 sets sees the same number of references, and in
    every round half of them touch a new line, so the whole trace
    replays in RSP's lockstep steps (no scalar tail).  The other half
    re-touch the line they first touched three rounds before, which has
    shifted down the chain since (an RSP-LRU promotion when it is still
    resident).  Sixteen sets are all dead, 32 partly dead, and the rest
    mix short and long retentions, so steps see dead bypasses, expiry
    and block moves in the same round, and the warmup split falls inside
    a step.
    """

    N_ACTIVE = 160
    ROUNDS = 16
    GAP = 900

    def _grid(self):
        grid = _full_grid()
        grid[:16] = 0
        grid[16:48] = [0, 4000, 0, 90000]
        grid[48:96] = [4000, 900, 250000, 1500]
        grid[96:self.N_ACTIVE] = [700, 0, 3000, 120000]
        return grid

    def _trace(self, warmup):
        n_sets = CacheConfig().geometry.n_sets
        sets = np.tile(np.arange(self.N_ACTIVE), self.ROUNDS)
        k = np.repeat(np.arange(self.ROUNDS), self.N_ACTIVE)
        retouch = ((k + sets) % 2 == 1) & (k >= 3)
        tags = 1000 + np.where(retouch, k - 3, k)
        return _micro_trace(
            cycles=k * self.GAP + sets,
            addresses=tags * n_sets + sets,
            # Stores recur every fourth round, so a re-touch three rounds
            # on is a load of a line stored to or a store to a clean one.
            writes=(k + sets) % 4 == 0,
            warmup=warmup,
        )

    @pytest.mark.parametrize("write_back", [True, False],
                             ids=["write-back", "write-through"])
    @pytest.mark.parametrize(
        "refresh", [NoRefresh(), PartialRefresh(threshold_cycles=6000)],
        ids=["no-refresh", "partial"],
    )
    def test_crafted_steps_match_controller(self, refresh, write_back):
        config = dataclasses.replace(CacheConfig(), write_back=write_back)
        trace = self._trace(warmup=5 * self.N_ACTIVE + 20)
        plan = TraceArtifacts.from_trace(
            trace, config.geometry.n_sets
        ).lockstep(first_touches=True)
        assert plan.tail_refs == 0
        assert len(plan.steps) == self.ROUNDS
        # The step holding the warmup split measures only part of its rows.
        assert any(isinstance(step[2], np.ndarray) for step in plan.steps)
        stats = {}
        for replacement in ("RSP-FIFO", "RSP-LRU"):
            ctrl, kern = _run_both(
                self._grid(), replacement, refresh, trace, config
            )
            assert dataclasses.asdict(kern) == dataclasses.asdict(ctrl)
            assert kern.misses_dead_bypass > 0
            assert kern.hits > 0
            if not isinstance(refresh, NoRefresh):
                assert kern.line_refreshes > 0
            elif write_back:
                assert kern.misses_expired > 0
            stats[replacement] = kern
        # RSP-LRU promotions move blocks on hits, which RSP-FIFO never does.
        assert stats["RSP-LRU"].line_moves > stats["RSP-FIFO"].line_moves

    def test_expiry_pushes_keep_way_order(self):
        """One sweep's expiry write-backs reach the write buffer in way
        order, not in retention order.

        In every set, ways 0, 3 and 2 hold dirty blocks that expire at
        cycles 103, 203 and 303 (retention order: ways 2, 3, 0).  The
        buffer holds one entry and drains one per 150 cycles, so pushing
        103 before 303 lets a drain in; the reverse stalls twice.
        """
        config = dataclasses.replace(
            CacheConfig(), write_buffer_entries=1,
            l2_write_interval_cycles=150,
        )
        n_sets = config.geometry.n_sets
        grid = _full_grid()
        grid[:self.N_ACTIVE] = [100, 5000, 300, 200]
        sets = np.tile(np.arange(self.N_ACTIVE), 5)
        k = np.repeat(np.arange(5), self.N_ACTIVE)
        trace = _micro_trace(
            cycles=np.where(k < 4, k, 400),
            addresses=np.where(k < 4, k, 9) * n_sets + sets,
            writes=k < 4,
        )
        plan = TraceArtifacts.from_trace(trace, n_sets).lockstep(
            first_touches=True
        )
        assert plan.tail_refs == 0
        ctrl, kern = _run_both(grid, "RSP-FIFO", NoRefresh(), trace, config)
        assert dataclasses.asdict(kern) == dataclasses.asdict(ctrl)
        assert kern.expiry_writebacks == 3 * self.N_ACTIVE


class TestFuzzerCounterexamples:
    """Shrunk counterexamples of the kernel fuzzer
    (``test_kernels_match_controller``), kept as named cases."""

    def test_promotion_below_expired_slot_on_a_3t1d_grid(self):
        """A severe 3T1D chip (chip seed 4) at 1 set x 2 ways quantises
        to retentions 7998 and 5332; partial refresh stretches the second
        to 10,664 cycles, so slot 0 expires first.  Found against a tail
        whose RSP-LRU promotion left a copy of the promoted block behind,
        which the finalize then charged an owed refresh."""
        config = CacheConfig().with_geometry(
            CacheGeometry.from_capacity(128, 2, banks=1)
        )
        line = 10**9
        trace = _micro_trace(
            cycles=[0, 0, 10000], addresses=[line, line + 1, line],
            writes=[False] * 3, warmup=2,
        )
        ctrl, kern = _run_both(
            np.array([[7998, 5332]]), "RSP-LRU",
            PartialRefresh(threshold_cycles=6000), trace, config,
        )
        assert dataclasses.asdict(kern) == dataclasses.asdict(ctrl)
        assert kern.hits == 1 and kern.line_moves == 1


class TestFullWriteBuffer:
    """Both kernels replay a one-entry, slow-draining write buffer.

    Set 0 mixes short-retention ways with long ones, so the stream of
    mostly-store references produces dirty evictions and expiry
    write-backs (write-back) or a push per store (write-through) on
    both sides of the warmup split, faster than the buffer drains.
    """

    @pytest.mark.parametrize("write_back", [True, False],
                             ids=["write-back", "write-through"])
    @pytest.mark.parametrize("replacement", ["LRU", "RSP-FIFO", "RSP-LRU"])
    def test_stalls_across_warmup_split(self, replacement, write_back):
        config = dataclasses.replace(
            CacheConfig(), write_back=write_back,
            write_buffer_entries=1, l2_write_interval_cycles=1000,
        )
        n_sets = config.geometry.n_sets
        grid = _full_grid()
        grid[0] = [30, 100000, 60, 100000]
        n = 48
        gaps = [0] + [10, 10, 45] * (n // 3 - 1) + [10, 10]
        tags = [0, 1, 2, 3, 4, 5, 1, 0]

        def trace(warmup):
            return _micro_trace(
                cycles=np.cumsum(gaps),
                addresses=[tags[i % len(tags)] * n_sets for i in range(n)],
                writes=[i % 4 != 3 for i in range(n)],
                warmup=warmup,
            )

        ctrl, kern = _run_both(
            grid, replacement, NoRefresh(), trace(n // 2), config
        )
        assert dataclasses.asdict(kern) == dataclasses.asdict(ctrl)
        assert kern.write_buffer_stall_cycles > 0
        if write_back:
            assert kern.expiry_writebacks > 0
            assert kern.writebacks > kern.expiry_writebacks
        else:
            assert kern.write_throughs > 0
        # The warmup prefix stalled too: its stalls are not counted.
        _, whole = _run_both(grid, replacement, NoRefresh(), trace(0), config)
        assert whole.write_buffer_stall_cycles > kern.write_buffer_stall_cycles


class TestKernelPathReporting:
    """evaluate results carry the replay path each benchmark took."""

    @pytest.fixture(scope="class")
    def evaluator(self):
        return Evaluator(NODE_32NM, n_references=800, seed=11)

    @pytest.fixture(scope="class")
    def chip(self):
        return ChipSampler(
            NODE_32NM, VariationParams.typical(), seed=20
        ).sample_3t1d_chip()

    def test_rsp_reports_timeline(self, evaluator, chip):
        evaluation = evaluator.evaluate(
            Cache3T1DArchitecture(
                chip, SCHEME_RSP_FIFO, config=evaluator.config
            )
        )
        assert set(evaluation.kernel_paths) == set(evaluator.benchmarks)
        assert set(evaluation.kernel_paths.values()) == {"timeline"}

    def test_stationary_reports_flattened(self, evaluator, chip):
        evaluation = evaluator.evaluate(
            Cache3T1DArchitecture(
                chip, SCHEME_NO_REFRESH_LRU, config=evaluator.config
            )
        )
        assert set(evaluation.kernel_paths.values()) == {"flattened"}

    def test_event_mode_reports_event(self, chip):
        slow = Evaluator(
            NODE_32NM, n_references=800, seed=11, use_batch_kernel=False
        )
        evaluation = slow.evaluate(
            Cache3T1DArchitecture(chip, SCHEME_RSP_LRU, config=slow.config)
        )
        assert set(evaluation.kernel_paths.values()) == {"event"}

    def test_baseline_path(self, evaluator):
        assert evaluator.baseline_path(evaluator.benchmarks[0]) in (
            "flattened", "timeline"
        )

    def test_metrics_observer_records_paths(self):
        from repro.engine.events import KernelPathsCollected
        from repro.engine.observer import JSONMetricsObserver

        observer = JSONMetricsObserver()
        observer.handle(KernelPathsCollected(
            label="fig10",
            paths=(("RSP-FIFO/gcc", "timeline"), ("no-refresh/LRU/gcc",
                                                  "flattened")),
        ))
        assert observer.metrics["kernel_paths"] == {
            "RSP-FIFO/gcc": "timeline",
            "no-refresh/LRU/gcc": "flattened",
        }
