"""The batched evaluation kernel: bit-identity and edge semantics."""

import numpy as np
import pytest

from repro.errors import (
    ChipDiscardedError,
    ConfigurationError,
    SimulationError,
)
from repro.technology import NODE_32NM
from repro.variation import VariationParams
from repro.array import CacheGeometry, ChipSampler
from repro.cache import CacheConfig, RetentionAwareCache
from repro.cache.refresh import NoRefresh, PartialRefresh
from repro.core import (
    Cache3T1DArchitecture,
    Evaluator,
    KernelSupport,
    LINE_LEVEL_SCHEMES,
    SCHEME_GLOBAL,
    TraceArtifacts,
    evaluate,
    evaluate_many,
    kernel_support,
    simulate_trace,
)
from repro.engine.trace import Tracer, activate
from repro.workloads.generator import MemoryTrace, SyntheticWorkload
from repro.workloads.profiles import get_profile

ALL_SCHEMES = (SCHEME_GLOBAL,) + LINE_LEVEL_SCHEMES


@pytest.fixture(scope="module")
def kernel_evaluator():
    return Evaluator(NODE_32NM, n_references=1200, seed=11)


@pytest.fixture(scope="module")
def controller_evaluator():
    return Evaluator(
        NODE_32NM, n_references=1200, seed=11, use_batch_kernel=False
    )


@pytest.fixture(scope="module")
def chips():
    typical = ChipSampler(
        NODE_32NM, VariationParams.typical(), seed=20
    ).sample_3t1d_chip()
    severe = ChipSampler(
        NODE_32NM, VariationParams.severe(), seed=21
    ).sample_3t1d_chip()
    return [typical, severe]


def _evaluate(evaluator, chip, scheme):
    try:
        return evaluator.evaluate(
            Cache3T1DArchitecture(chip, scheme, config=evaluator.config)
        )
    except ChipDiscardedError:
        return None


class TestBitIdentity:
    """evaluate_many == RetentionAwareCache on every scheme x benchmark."""

    @pytest.mark.parametrize(
        "scheme", ALL_SCHEMES, ids=lambda s: s.name
    )
    def test_scheme_identical_on_full_suite(
        self, scheme, chips, kernel_evaluator, controller_evaluator
    ):
        for chip in chips:
            via_kernel = _evaluate(kernel_evaluator, chip, scheme)
            via_controller = _evaluate(controller_evaluator, chip, scheme)
            assert (via_kernel is None) == (via_controller is None)
            if via_kernel is None:
                continue
            assert (
                set(via_kernel.results)
                == set(kernel_evaluator.benchmarks)
            )
            for bench in via_kernel.results:
                a = via_kernel.results[bench]
                b = via_controller.results[bench]
                assert a.stats == b.stats, (scheme.name, bench)
                assert (
                    a.normalized_performance == b.normalized_performance
                ), (scheme.name, bench)
                assert a.ipc == b.ipc
                assert a.dynamic_power_watts == b.dynamic_power_watts
                assert (
                    a.dynamic_power_normalized == b.dynamic_power_normalized
                )

    def test_baseline_stats_identical(
        self, kernel_evaluator, controller_evaluator
    ):
        for bench in kernel_evaluator.benchmarks:
            assert kernel_evaluator.baseline_stats(
                bench
            ) == controller_evaluator.baseline_stats(bench)


class _ThirdPartyRefresh(NoRefresh):
    """A refresh policy the kernels were never specialized for."""

    name = "third-party"


class TestKernelSupport:
    """The typed path classifier (the boolean probes are gone)."""

    def test_every_paper_scheme_supported(self, chips, kernel_evaluator):
        for scheme in ALL_SCHEMES:
            cache = Cache3T1DArchitecture(
                chips[0], scheme, config=kernel_evaluator.config
            ).build_cache()
            support = kernel_support(cache)
            assert support.supported
            assert support.reason is None
            if scheme.name.startswith("RSP"):
                assert support.path == "timeline"
            else:
                assert support.path == "flattened"

    @staticmethod
    def _assert_event_only(cache, evaluator):
        support = kernel_support(cache)
        assert support.supported is False
        assert support.path == "event"
        assert support.reason
        artifacts = evaluator.trace_artifacts(
            evaluator.benchmarks[0], cache.config.geometry.n_sets
        )
        with pytest.raises(ConfigurationError):
            simulate_trace(cache, artifacts)

    def test_real_l2_takes_event_path(self, kernel_evaluator):
        cache = RetentionAwareCache(CacheConfig(real_l2=True))
        assert cache.l2_cache is not None
        self._assert_event_only(cache, kernel_evaluator)

    def test_online_refresh_takes_event_path(self, kernel_evaluator):
        cache = RetentionAwareCache(
            CacheConfig(), refresh=PartialRefresh(), online_refresh=True
        )
        assert cache.refresh_engine is not None
        self._assert_event_only(cache, kernel_evaluator)

    def test_third_party_refresh_keeps_event_controller(self):
        cache = RetentionAwareCache(
            CacheConfig(), refresh=_ThirdPartyRefresh()
        )
        support = kernel_support(cache)
        assert not support.supported
        assert support.path == "event"
        assert "closed-form" in support.reason

    def test_simulate_trace_rejects_unsupported(self, kernel_evaluator):
        cache = RetentionAwareCache(
            CacheConfig(), refresh=_ThirdPartyRefresh()
        )
        artifacts = kernel_evaluator.trace_artifacts(
            kernel_evaluator.benchmarks[0],
            cache.config.geometry.n_sets,
        )
        with pytest.raises(ConfigurationError):
            simulate_trace(cache, artifacts)

    def test_facade_exports_kernel_support(self):
        import repro

        assert repro.kernel_support is kernel_support
        assert repro.KernelSupport is KernelSupport

    def test_deprecated_probe_shims_are_gone(self):
        # PR-6 deprecated the boolean kernel_supports /
        # kernel_fallback_reason probes; the cycle is complete and the
        # names must no longer be importable anywhere.
        import repro
        import repro.core
        import repro.core.batcheval as batcheval

        for module in (repro, repro.core, batcheval):
            assert not hasattr(module, "kernel_supports")
            assert not hasattr(module, "kernel_fallback_reason")
            assert "kernel_supports" not in module.__all__
            assert "kernel_fallback_reason" not in module.__all__

    def test_import_repro_emits_no_deprecation_warnings(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning",
             "-c", "import repro"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


def _micro_trace(cycles, addresses, writes):
    return MemoryTrace(
        cycles=np.asarray(cycles, dtype=np.int64),
        line_addresses=np.asarray(addresses, dtype=np.int64),
        is_write=np.asarray(writes, dtype=bool),
        name="micro",
        instructions=len(cycles),
    )


def _run_both(grid, replacement, refresh, trace, config=None):
    """(controller stats, kernel stats) on identical fresh caches."""
    config = config or CacheConfig()

    def build():
        return RetentionAwareCache(
            config,
            retention_cycles=grid,
            replacement=replacement,
            refresh=refresh,
            quantize=False,
        )

    via_controller = build().run_trace(
        trace.cycles, trace.line_addresses, trace.is_write
    )
    via_kernel = simulate_trace(
        build(), TraceArtifacts.from_trace(trace, config.geometry.n_sets)
    )
    return via_controller, via_kernel


class TestEdgeSemantics:
    """Controller corner cases the kernel must reproduce exactly."""

    def test_all_dead_set_dsp_bypasses(self):
        config = CacheConfig()
        geometry = config.geometry
        grid = np.full((geometry.n_sets, geometry.ways), 100000, np.int64)
        grid[0, :] = 0  # every line in set 0 is dead
        trace = _micro_trace(
            cycles=range(0, 40, 2),
            addresses=[w * geometry.n_sets for w in range(5)] * 4,
            writes=[False, True] * 10,
        )
        ctrl, kern = _run_both(grid, "DSP", NoRefresh(), trace)
        assert ctrl == kern
        assert kern.misses_dead_bypass == len(trace)

    def test_all_dead_set_lru_expires_immediately(self):
        config = CacheConfig()
        geometry = config.geometry
        grid = np.full((geometry.n_sets, geometry.ways), 100000, np.int64)
        grid[0, :] = 0
        trace = _micro_trace(
            cycles=range(0, 40, 2),
            addresses=[w * geometry.n_sets for w in range(5)] * 4,
            writes=[False, True] * 10,
        )
        ctrl, kern = _run_both(grid, "LRU", NoRefresh(), trace)
        assert ctrl == kern
        # LRU keeps filling the dead lines; every reference misses.
        assert kern.hits == 0
        assert kern.misses == len(trace)

    def test_write_through_mode(self):
        config = CacheConfig(write_back=False)
        geometry = config.geometry
        grid = np.full((geometry.n_sets, geometry.ways), 500, np.int64)
        trace = _micro_trace(
            cycles=range(0, 40, 2),
            addresses=[w * geometry.n_sets for w in range(5)] * 4,
            writes=[False, True] * 10,
        )
        ctrl, kern = _run_both(grid, "LRU", NoRefresh(), trace, config)
        assert ctrl == kern
        assert kern.write_throughs == 10
        assert kern.writebacks == 0

    @pytest.mark.parametrize("replacement", ["LRU", "DSP"])
    def test_dirty_line_expires_on_referenced_cycle(self, replacement):
        config = CacheConfig()
        geometry = config.geometry
        grid = np.full((geometry.n_sets, geometry.ways), 100000, np.int64)
        grid[0, :] = 50
        # Write fills a dirty line at cycle 0 (lifetime 50); the next
        # reference lands exactly on the expiry cycle, so the sweep must
        # write the line back and reclassify the access as expired-miss.
        trace = _micro_trace(
            cycles=[0, 50, 60], addresses=[0, 0, 0],
            writes=[True, False, True],
        )
        ctrl, kern = _run_both(grid, replacement, NoRefresh(), trace)
        assert ctrl == kern
        assert kern.expiry_writebacks == 1
        assert kern.misses_expired == 1

    def test_partial_refresh_identical_on_micro_trace(self):
        config = CacheConfig()
        geometry = config.geometry
        grid = np.full((geometry.n_sets, geometry.ways), 900, np.int64)
        trace = _micro_trace(
            cycles=range(0, 30000, 250),
            addresses=[w * geometry.n_sets for w in range(6)] * 20,
            writes=[True, False, False] * 40,
        )
        refresh = PartialRefresh(
            threshold_cycles=config.partial_refresh_threshold_cycles
        )
        ctrl, kern = _run_both(grid, "LRU", refresh, trace)
        assert ctrl == kern
        assert kern.line_refreshes > 0


class TestLockstepSplit:
    """Every placement runs the lockstep front and its scalar tail, under
    one replay span per replay, named after its path."""

    @pytest.mark.parametrize(
        "replacement", ["LRU", "DSP", "RSP-FIFO", "RSP-LRU"]
    )
    def test_replay_span_counts_both_halves(self, replacement):
        # 16KB, 4-way: 64 sets.  The evaluator's warmup fill gives every
        # set four references, and the measured stream piles into a few.
        config = CacheConfig(
            geometry=CacheGeometry.from_capacity(16 * 1024, 4)
        )
        n_lines = config.geometry.n_lines
        workload = SyntheticWorkload(get_profile("applu"), seed=2007)
        trace = workload.memory_trace(300, warmup_lines=n_lines)
        grid = np.random.default_rng(3).choice(
            [0, 4_000, 40_000, 400_000], size=(64, 4)
        )

        def build():
            return RetentionAwareCache(
                config, grid, replacement=replacement,
                refresh=PartialRefresh(threshold_cycles=100_000),
                quantize=False,
            )

        tracer = Tracer()
        with activate(tracer):
            via_kernel = simulate_trace(
                build(), TraceArtifacts.from_trace(trace, 64)
            )
        spans = [s for s in tracer.spans() if s.cat == "replay"]
        assert [s.name for s in spans] == [
            "core.timeline.replay" if replacement.startswith("RSP")
            else "core.batcheval.flattened"
        ]
        args = dict(spans[0].args)
        assert args["lockstep_refs"] >= n_lines
        assert args["tail_refs"] > 0
        assert args["lockstep_refs"] + args["tail_refs"] == len(trace)
        assert via_kernel == build().run_trace(
            trace.cycles, trace.line_addresses, trace.is_write,
            warmup_references=trace.warmup_references,
        )


class TestTraceArtifacts:
    def test_set_and_tag_decomposition(self):
        trace = _micro_trace(
            cycles=[0, 1, 2], addresses=[0, 257, 513], writes=[False] * 3
        )
        artifacts = TraceArtifacts.from_trace(trace, 256)
        assert artifacts.set_indices == [0, 1, 1]
        assert artifacts.tags == [0, 1, 2]
        assert artifacts.end_cycle == 2
        assert len(artifacts) == 3

    def test_first_touch_plan_ends_at_a_re_touch_step(self):
        # 64 sets, four rounds: new lines, new lines, the first round's
        # lines again, new lines.  The default plan steps all four; the
        # first-touch plan stops before the re-touch round, and the rest
        # of every set replays in the tail.
        rounds = (0, 1, 0, 2)
        addresses = [t * 256 + s for t in rounds for s in range(64)]
        trace = _micro_trace(
            cycles=range(len(addresses)), addresses=addresses,
            writes=[False] * len(addresses),
        )
        artifacts = TraceArtifacts.from_trace(trace, 256)
        plan = artifacts.lockstep()
        assert len(plan.steps) == 4 and plan.tail_refs == 0
        cut = artifacts.lockstep(first_touches=True)
        assert len(cut.steps) == 2
        assert cut.tail_rows == 64 and cut.tail_refs == 128
        assert artifacts.lockstep(first_touches=True) is cut
        fill = TraceArtifacts.from_trace(_micro_trace(
            cycles=range(128), addresses=range(128), writes=[False] * 128,
        ), 64)
        assert fill.lockstep(first_touches=True) is fill.lockstep()

    def test_evaluator_caches_artifacts(self, kernel_evaluator):
        bench = kernel_evaluator.benchmarks[0]
        first = kernel_evaluator.trace_artifacts(bench, 256)
        second = kernel_evaluator.trace_artifacts(bench, 256)
        assert first is second
        assert kernel_evaluator.trace_artifacts(bench, 128) is not first

    def test_set_count_mismatch_rejected(self, kernel_evaluator, chips):
        cache = Cache3T1DArchitecture(
            chips[0], LINE_LEVEL_SCHEMES[0], config=kernel_evaluator.config
        ).build_cache()
        wrong = kernel_evaluator.trace_artifacts(
            kernel_evaluator.benchmarks[0],
            cache.config.geometry.n_sets * 2,
        )
        with pytest.raises(ConfigurationError):
            simulate_trace(cache, wrong)

    def test_used_cache_rejected(self, kernel_evaluator, chips):
        cache = Cache3T1DArchitecture(
            chips[0], LINE_LEVEL_SCHEMES[0], config=kernel_evaluator.config
        ).build_cache()
        artifacts = kernel_evaluator.trace_artifacts(
            kernel_evaluator.benchmarks[0],
            cache.config.geometry.n_sets,
        )
        # The kernel reads only immutable cache state, so reusing it for
        # several kernel runs is fine ...
        assert simulate_trace(cache, artifacts) == simulate_trace(
            cache, artifacts
        )
        # ... but a cache that already ran event-mode accesses is stale.
        cache.run_trace(
            np.asarray([0]), np.asarray([0]), np.asarray([False])
        )
        with pytest.raises(SimulationError):
            simulate_trace(cache, artifacts)


class TestEvaluateMany:
    def test_row_per_chip_column_per_scheme(self, chips, kernel_evaluator):
        schemes = [LINE_LEVEL_SCHEMES[0], "partial-refresh/DSP"]
        rows = evaluate_many(chips, schemes, kernel_evaluator)
        assert len(rows) == len(chips)
        for row in rows:
            assert [e.scheme for e in row] == [
                "no-refresh/LRU", "partial-refresh/DSP",
            ]

    def test_matches_single_evaluate(self, chips, kernel_evaluator):
        scheme = LINE_LEVEL_SCHEMES[0]
        batched = evaluate_many(
            chips[:1], [scheme], kernel_evaluator
        )[0][0]
        single = evaluate(chips[0], scheme, kernel_evaluator)
        assert (
            batched.normalized_performance == single.normalized_performance
        )

    def test_discarded_chip_yields_none(self, kernel_evaluator):
        sampler = ChipSampler(NODE_32NM, VariationParams.severe(), seed=99)
        discarded = None
        for chip in sampler.sample_3t1d_chips(30):
            if _evaluate(kernel_evaluator, chip, SCHEME_GLOBAL) is None:
                discarded = chip
                break
        assert discarded is not None, "expected a global-scheme discard"
        row = evaluate_many(
            [discarded], [SCHEME_GLOBAL, LINE_LEVEL_SCHEMES[0]],
            kernel_evaluator,
        )[0]
        assert row[0] is None
        assert row[1] is not None
        with pytest.raises(ChipDiscardedError):
            evaluate(discarded, SCHEME_GLOBAL, kernel_evaluator)

    def test_bad_suite_rejected(self, chips):
        with pytest.raises(ConfigurationError):
            evaluate_many(chips, [LINE_LEVEL_SCHEMES[0]], suite=object())

    def test_benchmark_subset(self, chips, kernel_evaluator):
        row = evaluate_many(
            chips[:1], [LINE_LEVEL_SCHEMES[0]], kernel_evaluator,
            benchmarks=["gcc", "mcf"],
        )[0]
        assert set(row[0].results) == {"gcc", "mcf"}
