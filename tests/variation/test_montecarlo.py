"""Per-chip Monte-Carlo sampling."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.technology import NODE_32NM
from repro.variation import VariationParams, VariationSampler, normal_draws


@pytest.fixture
def sampler():
    return VariationSampler(NODE_32NM, VariationParams.typical(), seed=1)


class TestSampler:
    def test_default_subarray_grid(self, sampler):
        assert sampler.n_subarrays == 8

    def test_chip_ids_sequential(self, sampler):
        chips = [sampler.sample_chip() for _ in range(3)]
        assert [c.chip_id for c in chips] == [0, 1, 2]

    def test_deterministic_sequence(self):
        a = VariationSampler(NODE_32NM, VariationParams.typical(), seed=9)
        b = VariationSampler(NODE_32NM, VariationParams.typical(), seed=9)
        chip_a = a.sample_chip()
        chip_b = b.sample_chip()
        assert chip_a.delta_l_d2d == chip_b.delta_l_d2d
        assert np.array_equal(chip_a.delta_l_subarray, chip_b.delta_l_subarray)

    def test_chip_sequence_independent_of_rng_usage(self):
        # Using chip 0's private rng must not change chip 1's draw.
        a = VariationSampler(NODE_32NM, VariationParams.typical(), seed=5)
        first = a.sample_chip()
        first.rng.normal(size=1000)  # burn some draws
        second_after_use = a.sample_chip()

        b = VariationSampler(NODE_32NM, VariationParams.typical(), seed=5)
        b.sample_chip()
        second_clean = b.sample_chip()
        assert second_after_use.delta_l_d2d == second_clean.delta_l_d2d

    def test_reserve_chip_seeds_count(self, sampler):
        assert [chip_id for chip_id, _ in sampler.reserve_chip_seeds(5)] == [
            0, 1, 2, 3, 4
        ]

    def test_reserve_chip_seeds_rejects_negative(self, sampler):
        with pytest.raises(ConfigurationError):
            sampler.reserve_chip_seeds(-1)

    def test_d2d_spread_matches_sigma(self):
        sampler = VariationSampler(NODE_32NM, VariationParams.typical(), seed=3)
        d2d = [sampler.sample_chip().delta_l_d2d for _ in range(800)]
        assert np.std(d2d) == pytest.approx(0.05 * 32e-9, rel=0.1)

    def test_subarray_spread_matches_sigma(self):
        sampler = VariationSampler(NODE_32NM, VariationParams.severe(), seed=3)
        values = np.concatenate(
            [sampler.sample_chip().delta_l_subarray for _ in range(400)]
        )
        assert np.std(values) == pytest.approx(0.07 * 32e-9, rel=0.1)


class TestChipVariation:
    def test_delta_l_total_combines_components(self, sampler):
        chip = sampler.sample_chip()
        total = chip.delta_l_total(3)
        assert total == pytest.approx(
            chip.delta_l_d2d + chip.delta_l_subarray[3]
        )

    def test_delta_l_total_index_validation(self, sampler):
        chip = sampler.sample_chip()
        with pytest.raises(ConfigurationError):
            chip.delta_l_total(99)

    def test_zero_variation_chip_is_all_zeros(self):
        params = VariationParams.none()
        chip = VariationSampler(NODE_32NM, params, seed=4).sample_chip()
        assert chip.delta_l_d2d == 0.0
        assert np.all(chip.delta_l_subarray == 0.0)
        sigma = params.sigma_vth(chip.node)
        assert np.all(normal_draws(chip.rng, sigma, size=100) == 0.0)
