"""The run-everything driver (registry-driven, cached, observable)."""

from repro.engine.cache import ResultCache
from repro.engine.observer import JSONMetricsObserver
from repro.engine.registry import all_experiments, experiment_names
from repro.experiments.runner import ExperimentContext
from repro.experiments.run_all import run_all


def _cached_flags(observer):
    return [e["cached"] for e in observer.metrics["experiments"]]


def test_run_all_writes_reports(tmp_path):
    observer = JSONMetricsObserver(tmp_path / "metrics.json")
    context = ExperimentContext(
        n_chips=4, n_references=1500, seed=3, observer=observer
    )
    summary = run_all(context, tmp_path)

    assert summary.exists()
    combined = summary.read_text()
    for experiment in all_experiments():
        assert (tmp_path / f"{experiment.name}.txt").exists()
        assert experiment.name in combined or experiment.name == "table3"
    assert len(_cached_flags(observer)) == len(all_experiments())
    assert "Figure 9" in combined
    assert "Table 3" in combined
    # Machine-readable exports come from the experiments' csv_rows hooks.
    for csv_name in (
        "fig01_reuse.csv",
        "fig10_hundred_chips.csv",
        "fig12_sensitivity.csv",
    ):
        assert (tmp_path / csv_name).exists()


def test_run_all_summary_contains_no_timings(tmp_path):
    import re

    context = ExperimentContext(n_chips=2, n_references=800, seed=9)
    summary = run_all(context, tmp_path)
    # Timing lives in progress lines and metrics, never in the summary --
    # that is what keeps serial/parallel/cached summaries byte-identical.
    text = summary.read_text()
    assert not re.search(r"\(\d+\.\d+s\)", text)
    for name in experiment_names():
        assert f"\n{name}\n" in text


def test_run_all_reuses_result_cache(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    first_observer = JSONMetricsObserver(tmp_path / "first.json")
    context = ExperimentContext(
        n_chips=2, n_references=800, seed=11, observer=first_observer
    )
    first = run_all(context, tmp_path / "a", cache=cache)
    assert not any(_cached_flags(first_observer))

    second_observer = JSONMetricsObserver(tmp_path / "second.json")
    context.observer = second_observer
    second = run_all(context, tmp_path / "b", cache=cache)
    assert all(_cached_flags(second_observer))
    assert len(_cached_flags(second_observer)) == len(all_experiments())
    assert first.read_text() == second.read_text()


def test_run_all_emits_observer_events(tmp_path):
    observer = JSONMetricsObserver(tmp_path / "metrics.json")
    context = ExperimentContext(
        n_chips=2, n_references=800, seed=13, observer=observer
    )
    run_all(context, tmp_path)
    assert (tmp_path / "metrics.json").exists()
    recorded = [e["name"] for e in observer.metrics["experiments"]]
    assert recorded == list(experiment_names())
    assert observer.metrics["total_elapsed_s"] is not None


def test_cli_main_small_scale(tmp_path):
    from repro.experiments import run_all as run_all_module

    run_all_module.main(
        [
            "--chips", "3",
            "--refs", "1000",
            "--seed", "5",
            "--out", str(tmp_path / "reports"),
        ]
    )
    assert (tmp_path / "reports" / "summary.txt").exists()
    assert (tmp_path / "reports" / "metrics.json").exists()
    assert (tmp_path / "reports" / ".cache").is_dir()
