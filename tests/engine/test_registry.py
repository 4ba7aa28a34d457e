"""The Experiment protocol and registry."""

import pytest

from repro.errors import ConfigurationError
from repro.engine.registry import (
    Experiment,
    all_experiments,
    experiment_names,
    get_experiment,
    register_experiment,
)
from repro.experiments.runner import ExperimentContext

PAPER_ORDER = (
    "fig01_reuse",
    "fig04_retention_curve",
    "fig06_typical",
    "fig07_leakage",
    "fig08_line_retention",
    "fig09_schemes",
    "fig10_hundred_chips",
    "fig11_associativity",
    "fig12_sensitivity",
    "table3",
    # Extensions ride after the paper's own figures.
    "techcompare",
    "geomsweep",
)


def test_registry_holds_every_experiment_in_paper_order():
    assert experiment_names() == PAPER_ORDER


def test_unknown_experiment_raises():
    with pytest.raises(ConfigurationError):
        get_experiment("fig99_nonexistent")


def test_every_experiment_has_uniform_surface():
    import importlib

    for experiment in all_experiments():
        assert callable(experiment.run)
        assert callable(experiment.report)
        assert experiment.module is not None
        # Each module also keeps the historical run/report surface.
        module = importlib.import_module(experiment.module)
        assert callable(module.run) and callable(module.report)


def test_plot_shaped_experiments_export_csv():
    with_csv = {
        e.name for e in all_experiments() if e.csv_rows is not None
    }
    assert with_csv == {
        "fig01_reuse", "fig10_hundred_chips", "fig12_sensitivity",
        "techcompare", "geomsweep",
    }


def test_table3_overrides_halve_the_chip_count():
    table3 = get_experiment("table3")
    derived = table3.context_for(ExperimentContext(n_chips=60))
    assert derived.n_chips == 30
    # The floor keeps medians stable at tiny base scales.
    floored = table3.context_for(ExperimentContext(n_chips=4))
    assert floored.n_chips == 10
    # Everything else is inherited.
    assert derived.seed == ExperimentContext().seed


def test_context_for_defaults_to_identity():
    fig10 = get_experiment("fig10_hundred_chips")
    context = ExperimentContext(n_chips=7)
    assert fig10.context_for(context) is context


def test_register_requires_a_name():
    with pytest.raises(ConfigurationError):
        register_experiment(
            Experiment(name="", run=lambda c: None, report=lambda r: "")
        )


def test_csv_exports_empty_without_hook():
    experiment = Experiment(
        name="adhoc", run=lambda c: None, report=lambda r: ""
    )
    assert experiment.csv_exports(object()) == ()
