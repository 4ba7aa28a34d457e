"""Benchmark evaluation of architectures."""

import pytest

from repro.errors import ConfigurationError
from repro.technology import NODE_32NM
from repro.variation import VariationParams
from repro.array import ChipSampler
from repro.core import (
    Cache3T1DArchitecture,
    Cache6TArchitecture,
    Evaluator,
    IdealCacheArchitecture,
    SCHEME_GLOBAL,
    SCHEME_NO_REFRESH_LRU,
    SCHEME_RSP_FIFO,
)


@pytest.fixture(scope="module")
def evaluator():
    return Evaluator(NODE_32NM, n_references=3000, seed=9)


@pytest.fixture(scope="module")
def typical_chip():
    return ChipSampler(NODE_32NM, VariationParams.typical(), seed=20).sample_3t1d_chip()


@pytest.fixture(scope="module")
def severe_chip():
    return ChipSampler(NODE_32NM, VariationParams.severe(), seed=21).sample_3t1d_chip()


class TestIdealBaseline:
    def test_normalized_to_one(self, evaluator):
        result = evaluator.evaluate_benchmark(
            IdealCacheArchitecture(NODE_32NM), "gcc"
        )
        assert result.normalized_performance == 1.0
        assert result.dynamic_power_normalized == 1.0

    def test_bips_matches_profile(self, evaluator):
        from repro.workloads import get_profile

        result = evaluator.evaluate_benchmark(
            IdealCacheArchitecture(NODE_32NM), "mesa"
        )
        expected = get_profile("mesa").base_ipc * NODE_32NM.frequency / 1e9
        assert result.bips == pytest.approx(expected)


class TestSRAMChips:
    def test_perf_equals_normalized_frequency(self, evaluator):
        chip = ChipSampler(
            NODE_32NM, VariationParams.typical(), seed=22
        ).sample_sram_chip()
        arch = Cache6TArchitecture(chip)
        result = evaluator.evaluate(arch)
        assert result.normalized_performance == pytest.approx(
            chip.normalized_frequency
        )


class Test3T1DChips:
    def test_line_level_close_to_ideal_on_typical_chip(
        self, evaluator, typical_chip
    ):
        arch = Cache3T1DArchitecture(typical_chip, SCHEME_RSP_FIFO)
        result = evaluator.evaluate(arch)
        assert 0.9 < result.normalized_performance < 1.0

    def test_global_scheme_small_loss_on_typical_chip(
        self, evaluator, typical_chip
    ):
        arch = Cache3T1DArchitecture(typical_chip, SCHEME_GLOBAL)
        if arch.is_operable():
            result = evaluator.evaluate(arch)
            assert result.normalized_performance > 0.95

    def test_rsp_beats_plain_lru_on_severe_chip(self, evaluator, severe_chip):
        lru = evaluator.evaluate(
            Cache3T1DArchitecture(severe_chip, SCHEME_NO_REFRESH_LRU)
        )
        rsp = evaluator.evaluate(
            Cache3T1DArchitecture(severe_chip, SCHEME_RSP_FIFO)
        )
        assert rsp.normalized_performance > lru.normalized_performance

    def test_power_above_ideal(self, evaluator, severe_chip):
        result = evaluator.evaluate(
            Cache3T1DArchitecture(severe_chip, SCHEME_NO_REFRESH_LRU)
        )
        assert result.dynamic_power_normalized > 1.0

    def test_worst_benchmark_reported(self, evaluator, severe_chip):
        result = evaluator.evaluate(
            Cache3T1DArchitecture(severe_chip, SCHEME_NO_REFRESH_LRU)
        )
        name, perf = result.worst_benchmark
        assert name in result.results
        assert perf == min(
            r.normalized_performance for r in result.results.values()
        )

    def test_harmonic_mean_below_best(self, evaluator, severe_chip):
        result = evaluator.evaluate(
            Cache3T1DArchitecture(severe_chip, SCHEME_NO_REFRESH_LRU)
        )
        best = max(
            r.normalized_performance for r in result.results.values()
        )
        assert result.normalized_performance <= best

    def test_benchmark_subset(self, evaluator, typical_chip):
        arch = Cache3T1DArchitecture(typical_chip, SCHEME_NO_REFRESH_LRU)
        result = evaluator.evaluate(arch, benchmarks=["gcc", "mcf"])
        assert set(result.results) == {"gcc", "mcf"}


class TestEvaluatorCaching:
    def test_traces_cached(self, evaluator):
        assert evaluator.trace("gcc") is evaluator.trace("gcc")

    def test_baseline_stats_cached(self, evaluator):
        assert evaluator.baseline_stats("gcc") is evaluator.baseline_stats("gcc")

    def test_traces_have_warmup(self, evaluator):
        assert evaluator.trace("gcc").warmup_references == 1024

    def test_rejects_bad_reference_count(self):
        with pytest.raises(ConfigurationError):
            Evaluator(NODE_32NM, n_references=0)


class TestOptionalFidelityModes:
    def test_real_l2_mode_evaluates(self, typical_chip):
        from repro.cache.config import CacheConfig
        from repro.core import SCHEME_RSP_FIFO

        config = CacheConfig(real_l2=True)
        evaluator = Evaluator(
            NODE_32NM, config=config, n_references=2000, seed=10
        )
        result = evaluator.evaluate(
            Cache3T1DArchitecture(typical_chip, SCHEME_RSP_FIFO, config=config),
            benchmarks=["gcc"],
        )
        stats = result.results["gcc"].stats
        assert stats.l2_hits + stats.l2_misses == stats.misses
        # The real L2 replays on the event controller.
        assert result.results["gcc"].kernel_path == "event"
        assert 0.0 < result.normalized_performance <= 1.0

    def test_write_through_mode_evaluates(self, typical_chip):
        from repro.cache.config import CacheConfig

        config = CacheConfig(write_back=False)
        evaluator = Evaluator(
            NODE_32NM, config=config, n_references=2000, seed=10
        )
        result = evaluator.evaluate(
            Cache3T1DArchitecture(
                typical_chip, SCHEME_NO_REFRESH_LRU, config=config
            ),
            benchmarks=["gcc"],
        )
        stats = result.results["gcc"].stats
        assert stats.write_throughs > 0
        assert stats.expiry_writebacks == 0


class TestEmptyResultsValidation:
    def test_empty_evaluation_properties_raise(self):
        from repro.core import ChipEvaluation

        empty = ChipEvaluation(scheme="Global", results={})
        for attribute in (
            "normalized_performance",
            "bips",
            "dynamic_power_normalized",
            "worst_benchmark",
        ):
            with pytest.raises(ConfigurationError):
                getattr(empty, attribute)

    def test_evaluate_rejects_empty_benchmark_list(self, evaluator, typical_chip):
        arch = Cache3T1DArchitecture(typical_chip, SCHEME_RSP_FIFO)
        with pytest.raises(ConfigurationError):
            evaluator.evaluate(arch, benchmarks=[])

    def test_evaluator_rejects_empty_suite(self):
        with pytest.raises(ConfigurationError):
            Evaluator(NODE_32NM, n_references=1000, benchmarks=[])
