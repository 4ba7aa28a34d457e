"""Experiment drivers: every figure runs at tiny scale and reports sanely."""

import numpy as np
import pytest

from repro.array import ChipBuildTask
from repro.engine.config import EngineConfig
from repro.errors import ConfigurationError
from repro.experiments import ExperimentContext, reporting
from repro.experiments import (
    fig01_reuse,
    fig04_retention_curve,
    fig06_typical,
    fig07_leakage,
    fig08_line_retention,
    fig09_schemes,
    fig10_hundred_chips,
    fig11_associativity,
    fig12_sensitivity,
    table3,
    techcompare,
)


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(n_chips=8, n_references=2500, seed=123)


class TestRunnerAndReporting:
    def test_scenarios(self, context):
        assert context.scenario("typical").name == "typical"
        assert context.scenario("severe").name == "severe"
        with pytest.raises(ConfigurationError):
            context.scenario("apocalyptic")

    def test_chip_batches_cached(self, context):
        assert context.chips_3t1d("typical") is context.chips_3t1d("typical")
        assert len(context.chips_3t1d("typical")) == 8

    def test_evaluator_cached_per_ways(self, context):
        assert context.evaluator(4) is context.evaluator(4)
        assert context.evaluator(2) is not context.evaluator(4)

    def test_format_table(self):
        text = reporting.format_table(
            ["a", "b"], [[1, 2.5], ["x", "y"]], title="T"
        )
        assert "T" in text and "2.5" in text

    def test_format_table_width_mismatch(self):
        with pytest.raises(ConfigurationError):
            reporting.format_table(["a"], [[1, 2]])

    def test_format_histogram(self):
        text = reporting.format_histogram(["lo", "hi"], [0.25, 0.75])
        assert "75.0%" in text

    def test_format_histogram_mismatch(self):
        with pytest.raises(ConfigurationError):
            reporting.format_histogram(["lo"], [0.5, 0.5])


class TestFig01(object):
    def test_runs_and_reports(self, context):
        result = fig01_reuse.run(context)
        assert set(result.measured) == set(result.modeled)
        average = result.average_measured
        assert np.all(np.diff(average) >= 0)  # CDFs rise
        assert 0.8 < average[list(result.grid).index(6000)] < 1.0
        assert "Average" in fig01_reuse.report(result)


class TestFig04:
    def test_curves_and_retention(self):
        result = fig04_retention_curve.run()
        assert result.retention_us["nominal"] == pytest.approx(5.8, rel=0.01)
        assert result.retention_us["weak"] < result.retention_us["nominal"]
        assert (
            result.retention_us["strong"] >= result.retention_us["nominal"]
        )
        assert "retention" in fig04_retention_curve.report(result)


class TestFig06:
    def test_panels(self, context):
        result = fig06_typical.run(context)
        assert result.frequency_histogram_1x.sum() == pytest.approx(1.0)
        assert result.frequency_histogram_2x.sum() == pytest.approx(1.0)
        assert len(result.points) + result.discard_rate * 8 == pytest.approx(
            8, abs=0.51
        )
        # 2X chips bin faster than 1X chips.
        centers = np.arange(0.775, 1.076, 0.025)
        mean_1x = np.dot(centers, result.frequency_histogram_1x)
        mean_2x = np.dot(centers, result.frequency_histogram_2x)
        assert mean_2x > mean_1x
        assert "Figure 6b" in fig06_typical.report(result)

    def test_power_declines_with_retention(self, context):
        result = fig06_typical.run(context)
        if len(result.points) >= 4:
            first, last = result.points[0], result.points[-1]
            assert first.total_dynamic_power >= last.total_dynamic_power


class TestFig07:
    def test_distributions(self, context):
        result = fig07_leakage.run(context)
        assert result.histogram_6t.sum() == pytest.approx(1.0)
        assert result.histogram_3t1d.sum() == pytest.approx(1.0)
        assert result.fraction_3t1d_above_golden < 0.5
        assert np.median(result.samples_3t1d) < np.median(result.samples_6t)
        assert "Figure 7a" in fig07_leakage.report(result)


class TestFig08:
    def test_chips_ordered(self, context):
        result = fig08_line_retention.run(context)
        assert set(result.histograms) == {"good", "median", "bad"}
        assert (
            result.dead_fractions["bad"] >= result.dead_fractions["good"]
        )
        assert 0.0 <= result.discard_rate <= 1.0
        assert "dead lines" in fig08_line_retention.report(result)


class TestFig09:
    def test_matrix(self, context):
        result = fig09_schemes.run(context)
        assert len(result.performance) == 8
        for by_chip in result.performance.values():
            assert set(by_chip) == {"good", "median", "bad"}
        # The retention-aware schemes beat plain LRU on the bad chip.
        assert (
            result.performance["RSP-FIFO"]["bad"]
            > result.performance["no-refresh/LRU"]["bad"]
        )
        assert "Figure 9" in fig09_schemes.report(result)


class TestFig10:
    def test_series(self, context):
        result = fig10_hundred_chips.run(context)
        first = next(iter(result.performance))
        series = result.performance[first]
        assert len(series) == 8
        assert np.all(np.diff(series) <= 1e-12)  # sorted descending
        assert result.worst_performance("RSP-FIFO") > result.worst_performance(
            "no-refresh/LRU"
        ) - 1e-9
        assert "Figure 10" in fig10_hundred_chips.report(result)


class TestFig11:
    def test_sweep(self, context):
        result = fig11_associativity.run(
            context, ways_sweep=(1, 4)
        )
        assert result.spread_at("bad", 1) <= result.spread_at("bad", 4) + 0.02
        assert "Figure 11" in fig11_associativity.report(result)


class TestFig12:
    def test_surface_shapes(self, context):
        result = fig12_sensitivity.run(
            context,
            mu_cycles=(2000, 20000),
            sigma_ratios=(0.05, 0.35),
            benchmarks=("gcc",),
            include_design_points=False,
        )
        for surface in result.surfaces.values():
            assert surface.shape == (2, 2)
            assert np.all(surface > 0.3)
        # no-refresh collapses in the bad corner relative to the good one.
        no_refresh = result.surfaces["no-refresh/LRU"]
        assert no_refresh[1, 0] > no_refresh[0, 1]
        assert "Figure 12" in fig12_sensitivity.report(result)

    def test_synthetic_chip_statistics(self, context):
        chip = fig12_sensitivity.synthetic_chip(
            context.node, mu_cycles=10000, sigma_ratio=0.2, seed=1
        )
        cycles = chip.retention_by_line * context.node.frequency
        assert np.mean(cycles) == pytest.approx(10000, rel=0.05)
        assert np.std(cycles) == pytest.approx(2000, rel=0.15)

    def test_design_points_ordered(self, context):
        points = fig12_sensitivity.locate_design_points(
            context, n_chips=3, seed=2
        )
        by_label = {p.label.split(":")[0]: p for p in points}
        # Scaling and severity shrink mu (points 1 -> 3 -> 4).
        assert by_label["1"].mu_cycles > by_label["3"].mu_cycles
        assert by_label["4"].sigma_ratio > by_label["3"].sigma_ratio

    def test_design_points_resume_from_the_journal(
        self, tmp_path, monkeypatch
    ):
        def locate(resume):
            engine = EngineConfig(
                workers=1, checkpoint_dir=tmp_path, resume=resume
            )
            with ExperimentContext(n_chips=2, engine=engine) as context:
                return fig12_sensitivity.locate_design_points(
                    context, n_chips=2, seed=2
                )

        first = locate(resume=False)

        def rebuild(task):
            raise AssertionError("a journaled design-point chip was rebuilt")

        monkeypatch.setattr(ChipBuildTask, "build", rebuild)
        assert locate(resume=True) == first


class TestTable3:
    def test_rows(self):
        context = ExperimentContext(n_chips=6, n_references=2500, seed=5)
        result = table3.run(context)
        assert len(result.rows) == 9
        ideal = result.row("32nm", "ideal 6T")
        assert ideal.access_time_ps == pytest.approx(208)
        sram = result.row("32nm", "1X 6T median")
        assert sram.access_time_ps > ideal.access_time_ps
        assert sram.bips < ideal.bips
        dram = result.row("32nm", "3T1D median")
        assert dram.retention_ns and dram.retention_ns > 400
        assert dram.bips > sram.bips  # the paper's headline
        assert dram.leakage_power_mw < ideal.leakage_power_mw
        assert "Table 3" in table3.report(result)


class TestTechCompare:
    def test_sweeps_all_backends_on_batched_kernels(self):
        context = ExperimentContext(n_chips=2, n_references=1200, seed=9)
        result = techcompare.run(context)
        assert len(result.rows) == (
            len(techcompare.TECHNOLOGIES)
            * len(techcompare.SEVERITIES)
            * len(techcompare.SCHEMES)
        )
        assert {r.technology for r in result.rows} == set(
            techcompare.TECHNOLOGIES
        )
        # Every cell of every backend must replay on the batched
        # flattened/timeline kernels -- no event-path fallbacks.
        assert result.fast_path_coverage == 1.0
        for row in result.rows:
            assert row.chips >= 1
            assert row.mean_performance > 0
            assert row.energy_delay > 0
        # The latency-variation model only exists in vardram.
        vardram = result.rows_for("vardram")
        assert all(r.mean_latency_factor > 1.0 for r in vardram)
        assert all(
            r.mean_latency_factor == 1.0
            for r in result.rows_for("3t1d") + result.rows_for("sttram")
        )
        text = techcompare.report(result)
        assert "fast_path_coverage: 1.000" in text
        assert "sttram" in text and "vardram" in text
        exports = techcompare.csv_rows(result)
        assert exports[0].filename == "techcompare.csv"
        assert len(exports[0].rows) == len(result.rows)


class TestCsvExport:
    def test_write_csv_round_trip(self, tmp_path):
        import csv

        path = tmp_path / "out.csv"
        reporting.write_csv(path, ["a", "b"], [[1, 2], ["x", "y"]])
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows == [["a", "b"], ["1", "2"], ["x", "y"]]

    def test_write_csv_validates_width(self, tmp_path):
        with pytest.raises(ConfigurationError):
            reporting.write_csv(tmp_path / "bad.csv", ["a"], [[1, 2]])
