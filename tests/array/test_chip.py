"""Chip-level Monte-Carlo sampling."""

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.technology import NODE_32NM, TechnologyNode
from repro.variation import VariationParams
from repro.array import CacheGeometry, ChipSampler


#: Digest of access_time_by_line, worst access time, exact leakage and
#: flip count of the first 6T chip of ChipSampler(node, typical,
#: seed=2007) per (node, size factor), recorded before chip sampling
#: moved to in-place per-pair buffers.
GOLDEN_SRAM_CHIPS = {
    ("65nm", 1.0): (
        "8bdbfad5e2793f9096faadde319e3d6a62baa0b5"
        "76cd0d584e983408ee403c2b",
        3.5716641270398275e-10,
        0.01684236893793983,
        2296,
    ),
    ("65nm", 2.0): (
        "4df904279cfd23a5cdb8c009c7667f20d6ec83f5"
        "04d974bb20efc8c0684b54b6",
        3.155609300482719e-10,
        0.02386989110692302,
        0,
    ),
    ("45nm", 1.0): (
        "0ac4988dcf85962e98240c4414c26ac0f7c666b6"
        "3583dd0402681ad632d1c550",
        3.094187790076657e-10,
        0.0364672347674614,
        2296,
    ),
    ("45nm", 2.0): (
        "5f35afa996c337a7da7eb24793c03ae4cc0d2208"
        "9087608b3940ad3d4d358379",
        2.7611349948980975e-10,
        0.05369817458169137,
        0,
    ),
    ("32nm", 1.0): (
        "56beccd921e45c74cd6c553be6dc51721a58256d"
        "832ef175cea80e330fcc3624",
        2.5078379915176543e-10,
        0.07379624305192013,
        2296,
    ),
    ("32nm", 2.0): (
        "c99ccb4cd9f48ac280360ba8c53d89b83611a98f"
        "8d7c80f1b147105e9202c07b",
        2.2676804897332887e-10,
        0.11459591257538203,
        0,
    ),
}


@pytest.fixture(scope="module")
def typical_sampler():
    return ChipSampler(NODE_32NM, VariationParams.typical(), seed=100)


@pytest.fixture(scope="module")
def sram_chip():
    sampler = ChipSampler(NODE_32NM, VariationParams.typical(), seed=101)
    return sampler.sample_sram_chip()


@pytest.fixture(scope="module")
def dram_chip():
    sampler = ChipSampler(NODE_32NM, VariationParams.typical(), seed=102)
    return sampler.sample_3t1d_chip()


class TestSRAMChipSample:
    def test_worst_access_slower_than_nominal(self, sram_chip):
        assert sram_chip.worst_access_time > sram_chip.nominal_access_time

    def test_normalized_frequency_below_one(self, sram_chip):
        assert 0.5 < sram_chip.normalized_frequency < 1.0

    def test_frequency_scales_node(self, sram_chip):
        assert sram_chip.frequency == pytest.approx(
            sram_chip.normalized_frequency * NODE_32NM.frequency
        )

    def test_leakage_positive(self, sram_chip):
        assert sram_chip.leakage_power > 0
        assert sram_chip.normalized_leakage > 0

    def test_has_some_unstable_cells_at_typical(self, sram_chip):
        # 0.4% of ~560k cells: thousands of flips expected.
        assert sram_chip.flip_count > 1000
        assert sram_chip.flip_rate == pytest.approx(0.004, rel=0.3)

    def test_golden_chip_is_ideal(self):
        golden = ChipSampler.golden_sram_chip(NODE_32NM)
        assert golden.normalized_frequency == pytest.approx(1.0)
        assert golden.normalized_leakage == pytest.approx(1.0)
        assert golden.flip_count == 0

    def test_2x_chips_faster_than_1x(self):
        sampler_a = ChipSampler(NODE_32NM, VariationParams.typical(), seed=7)
        sampler_b = ChipSampler(NODE_32NM, VariationParams.typical(), seed=7)
        freq_1x = np.median(
            [c.normalized_frequency for c in sampler_a.sample_sram_chips(10, 1.0)]
        )
        freq_2x = np.median(
            [c.normalized_frequency for c in sampler_b.sample_sram_chips(10, 2.0)]
        )
        assert freq_2x > freq_1x


class TestDRAMChipSample:
    def test_retention_shape(self, dram_chip):
        assert dram_chip.retention_by_line.shape == (1024,)
        assert dram_chip.retention_grid.shape == (256, 4)

    def test_grid_matches_flat_layout(self, dram_chip):
        flat = dram_chip.retention_by_line
        grid = dram_chip.retention_grid
        assert grid[10, 2] == flat[10 * 4 + 2]

    def test_chip_retention_is_worst_line(self, dram_chip):
        assert dram_chip.chip_retention_time == pytest.approx(
            float(np.min(dram_chip.retention_by_line))
        )

    def test_retention_spread_below_nominal(self, dram_chip):
        # Every line's retention is at most the nominal cell retention.
        assert float(np.max(dram_chip.retention_by_line)) < 5.8e-6
        assert dram_chip.mean_line_retention < 5.8e-6

    def test_typical_chip_has_no_dead_lines(self, dram_chip):
        assert dram_chip.dead_line_fraction() == pytest.approx(0.0, abs=0.01)

    def test_dead_lines_threshold_monotone(self, dram_chip):
        low = dram_chip.dead_line_fraction(100e-9)
        high = dram_chip.dead_line_fraction(1000e-9)
        assert high >= low

    def test_threshold_validation(self, dram_chip):
        with pytest.raises(ConfigurationError):
            dram_chip.dead_lines(-1.0)

    def test_reinterpret_associativity(self, dram_chip):
        eight_way = dram_chip.with_geometry(CacheGeometry(ways=8))
        assert eight_way.retention_grid.shape == (128, 8)
        assert np.array_equal(
            eight_way.retention_by_line, dram_chip.retention_by_line
        )

    def test_golden_chip_uniform(self):
        golden = ChipSampler.golden_3t1d_chip(NODE_32NM)
        assert np.all(golden.retention_by_line == golden.retention_by_line[0])
        assert golden.chip_retention_time == pytest.approx(5.8e-6)

    def test_severe_chips_have_dead_lines(self):
        sampler = ChipSampler(NODE_32NM, VariationParams.severe(), seed=55)
        chips = sampler.sample_3t1d_chips(8)
        dead_500ns = [c.dead_line_fraction(500e-9) for c in chips]
        assert max(dead_500ns) > 0.01

    def test_deterministic_given_seed(self):
        a = ChipSampler(NODE_32NM, VariationParams.typical(), seed=200)
        b = ChipSampler(NODE_32NM, VariationParams.typical(), seed=200)
        assert np.array_equal(
            a.sample_3t1d_chip().retention_by_line,
            b.sample_3t1d_chip().retention_by_line,
        )



class TestSRAMChipGoldens:
    """6T chips equal the digests recorded before in-place sampling."""

    @pytest.mark.parametrize("case", sorted(GOLDEN_SRAM_CHIPS))
    def test_sram_chip_matches_golden(self, case):
        node_name, size_factor = case
        sampler = ChipSampler(
            TechnologyNode.from_name(node_name),
            VariationParams.typical(),
            seed=2007,
        )
        chip = sampler.sample_sram_chip(size_factor)
        access_sha, worst, leakage, flips = GOLDEN_SRAM_CHIPS[case]
        assert (
            hashlib.sha256(chip.access_time_by_line.tobytes()).hexdigest()
            == access_sha
        )
        assert chip.worst_access_time == worst
        assert chip.leakage_power == leakage
        assert chip.flip_count == flips


class TestSamplerValidation:
    def test_accepts_swept_subarray_counts(self):
        # Non-paper banking used to be rejected; the variation grid now
        # follows the geometry's die placement.
        geometry = CacheGeometry(
            n_subarrays=4, subarray_rows=256, subarray_cols=512
        )
        sampler = ChipSampler(
            NODE_32NM, VariationParams.typical(), geometry=geometry
        )
        chip = sampler.sample_3t1d_chip()
        assert chip.retention_by_line.shape == (geometry.n_lines,)
        assert sampler._sampler.n_subarrays == 4

    def test_correlation_grid_follows_die_grid(self):
        from repro.array.geometry import CacheGeometry as G

        geometry = G.from_capacity(256 * 1024, 8, banks=16)
        sampler = ChipSampler(
            NODE_32NM, VariationParams.severe(), geometry=geometry
        )
        assert sampler._sampler.n_subarrays == geometry.n_subarrays
        rows, cols = geometry.die_grid
        assert (sampler._sampler.subarray_rows,
                sampler._sampler.subarray_cols) == (rows, cols)
        chip = sampler.sample_3t1d_chip()
        assert chip.retention_by_line.shape == (geometry.n_lines,)
