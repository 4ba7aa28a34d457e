"""Word-level refresh study."""

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.technology import NODE_32NM
from repro.variation import VariationParams
from repro.array import ChipSampler
from repro.core.wordlevel import compare_refresh_granularity


@pytest.fixture(scope="module")
def severe_task():
    sampler = ChipSampler(NODE_32NM, VariationParams.severe(), seed=600)
    # Pick a chip with some weak lines so the comparison is non-trivial.
    tasks = sampler.reserve_build_tasks(6)
    return max(
        tasks, key=lambda task: task.build()[0].dead_line_fraction(500e-9)
    )


@pytest.fixture(scope="module")
def comparison(severe_task):
    return compare_refresh_granularity(severe_task)


class TestComparison:
    def test_word_level_saves_bandwidth(self, comparison):
        assert (
            comparison.word_level.blocked_cycle_fraction
            <= comparison.line_level.blocked_cycle_fraction
        )
        if comparison.weak_lines:
            assert comparison.bandwidth_saving > 0.5

    def test_word_level_saves_energy(self, comparison):
        assert (
            comparison.word_level.energy_per_cycle_joules
            <= comparison.line_level.energy_per_cycle_joules
        )

    def test_counter_hardware_is_8x(self, comparison):
        assert comparison.counter_hardware_ratio == pytest.approx(8.0)

    def test_weak_words_at_most_words_of_weak_lines(self, comparison):
        # Usually ~1 weak word per weak line; never more than 8.
        if comparison.weak_lines:
            assert (
                comparison.weak_words <= 8 * comparison.weak_lines
            )

    def test_refresh_rates_consistent(self, comparison):
        # Word periods are no shorter than their line's period, so the
        # total event rate can rise, but each event is 8x cheaper; net
        # energy must not increase.
        assert comparison.word_level.energy_per_cycle_joules <= (
            comparison.line_level.energy_per_cycle_joules + 1e-18
        )


class TestValidation:
    def test_requires_a_3t1d_task(self):
        (task,) = ChipSampler(
            NODE_32NM, VariationParams.severe(), seed=600
        ).reserve_build_tasks(1, kind="sram")
        with pytest.raises(ConfigurationError, match="one-point '3t1d'"):
            compare_refresh_granularity(task)

    def test_requires_a_one_point_task(self, severe_task):
        both = replace(
            severe_task, points=severe_task.points + severe_task.points
        )
        with pytest.raises(ConfigurationError, match="one-point '3t1d'"):
            compare_refresh_granularity(both)

    def test_rejects_bad_threshold(self, severe_task):
        with pytest.raises(ConfigurationError):
            compare_refresh_granularity(severe_task, threshold_cycles=0)

    def test_power_conversion(self, comparison):
        power = comparison.line_level.power_watts(NODE_32NM.frequency)
        assert power >= 0.0
