"""3T1D DRAM cell model."""

import numpy as np
import pytest

from repro.technology import NODE_32NM, NODE_45NM, NODE_65NM, calibration
from repro.cells import DRAM3T1DCell, SRAM6TCell
from repro.cells.dram3t1d import (
    BOOST_RATIO,
    read_overdrive_required,
)


@pytest.fixture
def cell():
    return DRAM3T1DCell(NODE_32NM)


class TestStoredVoltage:
    def test_nominal_is_degraded_level(self, cell):
        # Paper Figure 3b: ~0.6 V stored for a "1".
        assert float(cell.stored_voltage()) == pytest.approx(0.6, abs=0.01)

    def test_higher_t1_vth_stores_less(self, cell):
        assert float(cell.stored_voltage(delta_vth_t1=0.05)) < float(
            cell.stored_voltage()
        )

    def test_clamps_at_zero(self, cell):
        assert float(cell.stored_voltage(delta_vth_t1=2.0)) == 0.0

    def test_boost_matches_paper(self, cell):
        # Paper: 0.6 V boosts to ~1.13 V.
        boosted = float(cell.boosted_voltage(cell.stored_voltage()))
        assert boosted == pytest.approx(1.13, abs=0.02)

    def test_boost_ratio_in_paper_range(self):
        assert 1.5 < BOOST_RATIO < 2.5


class TestRequiredVoltage:
    def test_nominal_below_stored(self, cell):
        assert float(cell.required_storage_voltage()) < float(
            cell.stored_voltage()
        )

    def test_weaker_read_stack_needs_more(self, cell):
        assert float(
            cell.required_storage_voltage(delta_vth_t2=0.05)
        ) > float(cell.required_storage_voltage())

    def test_weaker_boost_needs_more(self, cell):
        assert float(
            cell.required_storage_voltage(boost_eps=-0.1)
        ) > float(cell.required_storage_voltage())

    def test_margin_positive_at_all_nodes(self):
        for node in (NODE_65NM, NODE_45NM, NODE_32NM):
            assert DRAM3T1DCell(node).nominal_margin() > 0.1

    def test_margin_scales_with_vth(self):
        # The design rule keeps margin proportional to the node's Vth.
        m65 = DRAM3T1DCell(NODE_65NM).nominal_margin()
        m32 = DRAM3T1DCell(NODE_32NM).nominal_margin()
        assert m65 / m32 == pytest.approx(0.35 / 0.30, rel=0.02)

    def test_read_overdrive_positive(self):
        for node in (NODE_65NM, NODE_45NM, NODE_32NM):
            assert read_overdrive_required(node) > 0

    def test_scaled_vdd_uses_reference_design(self):
        # The cell is designed once per node; lowering Vdd must not
        # silently redesign it.
        low = NODE_32NM.scaled(vdd=0.9)
        assert read_overdrive_required(low) == pytest.approx(
            read_overdrive_required(NODE_32NM)
        )

    def test_lower_vdd_shrinks_margin(self):
        low = DRAM3T1DCell(NODE_32NM.scaled(vdd=0.9))
        assert low.nominal_margin() < DRAM3T1DCell(NODE_32NM).nominal_margin()

    def test_overdrive_is_computed_once_per_node(self, monkeypatch):
        from repro.technology import TechnologyNode

        node = NODE_45NM.scaled(vdd=1.05)
        builds = []
        original = TechnologyNode.from_name

        def counting_from_name(name):
            builds.append(name)
            return original(name)

        monkeypatch.setattr(
            TechnologyNode, "from_name", staticmethod(counting_from_name)
        )
        cell = DRAM3T1DCell(node)
        values = {cell.read_overdrive_required for _ in range(5)}
        values.add(DRAM3T1DCell(node).read_overdrive_required)
        assert len(values) == 1
        assert builds.count("45nm") <= 1

    def test_memoised_cell_keeps_equality_hash_and_pickle(self):
        import pickle

        fresh = DRAM3T1DCell(NODE_32NM)
        used = DRAM3T1DCell(NODE_32NM)
        used.read_overdrive_required
        used.nominal_decay_rate()
        used.nominal_cell_leakage_power()
        assert used == fresh and hash(used) == hash(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        assert pickle.loads(pickle.dumps(used)) == fresh


class TestDecayRate:
    def test_nominal_consistent_with_retention_anchor(self, cell):
        rate = cell.nominal_decay_rate()
        retention = cell.nominal_margin() / rate
        assert retention == pytest.approx(
            calibration.nominal_retention_time(NODE_32NM)
        )

    def test_leakier_t1_decays_faster(self, cell):
        assert float(cell.decay_rate(delta_vth_t1=-0.05)) > float(
            cell.decay_rate()
        )

    def test_decay_has_insensitive_floor(self, cell):
        # Even a very high-Vth T1 cannot stop the gate/junction floor.
        floor_ratio = float(cell.decay_rate(delta_vth_t1=1.0)) / float(
            cell.decay_rate()
        )
        assert floor_ratio == pytest.approx(0.8, abs=0.02)


class TestLeakagePower:
    def test_nominal_cache_total_matches_anchor(self, cell):
        total = cell.nominal_cell_leakage_power() * calibration.CACHE_TOTAL_CELLS
        assert total == pytest.approx(24.4e-3, rel=1e-6)

    def test_well_below_6t(self, cell):
        assert (
            cell.nominal_cell_leakage_power()
            < 0.5 * SRAM6TCell(NODE_32NM).nominal_cell_leakage_power()
        )

    def test_spread_compressed_vs_6t(self, cell):
        rng = np.random.default_rng(1)
        deltas = rng.normal(0, 0.045, 20000)
        sram = SRAM6TCell(NODE_32NM)
        spread_3t1d = np.std(
            cell.leakage_power(deltas) / cell.nominal_cell_leakage_power()
        )
        spread_6t = np.std(
            sram.leakage_power(deltas) / sram.nominal_cell_leakage_power()
        )
        assert spread_3t1d < spread_6t

    @pytest.mark.parametrize(
        "node, mw", [(NODE_65NM, 3.36), (NODE_45NM, 5.68), (NODE_32NM, 24.4)]
    )
    def test_per_node_anchor(self, node, mw):
        total = (
            DRAM3T1DCell(node).nominal_cell_leakage_power()
            * calibration.CACHE_TOTAL_CELLS
        )
        assert total == pytest.approx(mw * 1e-3, rel=1e-6)
