"""One supervisor over three executors: inline, process pool, fleet.

The same batch runs on every route and must come back with the same
results and the same robustness counters, because retries, backoff and
quarantine live in ``ParallelChipRunner.map``, not in the executors.
"""

import importlib
import os
import sys
import textwrap

import pytest

from repro.engine.config import EngineConfig, SUBPROCESS_FLEET_BACKEND
from repro.engine.parallel import ParallelChipRunner
from repro.errors import ConfigurationError, ExecutionError

ROUTES = {
    "inline": dict(workers=1),
    "pool": dict(workers=2),
    "fleet": dict(workers=1, backend=SUBPROCESS_FLEET_BACKEND, fleet_size=2),
}

# Fleet workers import task functions by name in fresh interpreters, so
# the tasks live in a module written to disk and put on PYTHONPATH.
HELPER_MODULE = textwrap.dedent(
    """
    import pathlib

    def flaky_square(task):
        marker_dir, value = task
        marker = pathlib.Path(marker_dir) / f"{value}.failed"
        if not marker.exists():
            marker.write_text("")
            raise ValueError(f"first attempt of task {value} fails")
        return value * value

    def always_fails(value):
        raise ValueError(f"task {value} always fails")
    """
)


@pytest.fixture
def helper(tmp_path, monkeypatch):
    helper_dir = tmp_path / "helpers"
    helper_dir.mkdir()
    (helper_dir / "route_test_helper.py").write_text(HELPER_MODULE)
    monkeypatch.syspath_prepend(str(helper_dir))
    existing = os.environ.get("PYTHONPATH")
    monkeypatch.setenv(
        "PYTHONPATH",
        str(helper_dir) if not existing
        else os.pathsep.join([str(helper_dir), existing]),
    )
    importlib.invalidate_caches()
    try:
        yield importlib.import_module("route_test_helper")
    finally:
        sys.modules.pop("route_test_helper", None)


def route_config(route, tmp_path, **overrides):
    fields = dict(ROUTES[route], retry_backoff_s=0.001)
    if route == "fleet":
        fields["queue_dir"] = tmp_path / "queue"
    fields.update(overrides)
    return EngineConfig(**fields)


@pytest.mark.parametrize("route", sorted(ROUTES))
class TestEveryRoute:
    def test_failed_tasks_are_retried_to_serial_results(
        self, route, helper, tmp_path
    ):
        markers = tmp_path / "markers"
        markers.mkdir()
        values = [1, 2, 3, 4]
        tasks = [(str(markers), value) for value in values]
        with ParallelChipRunner(route_config(route, tmp_path)) as runner:
            results = runner.map(helper.flaky_square, tasks, label=route)
        assert results == [value * value for value in values]
        # Each task fails exactly once, whichever executor ran it.
        assert runner.stats.task_retries == len(values)
        assert runner.stats.tasks_quarantined == 0

    def test_retry_exhaustion_raises_execution_error(
        self, route, helper, tmp_path
    ):
        config = route_config(route, tmp_path, max_retries=1)
        with ParallelChipRunner(config) as runner:
            with pytest.raises(ExecutionError, match="giving up"):
                runner.map(helper.always_fails, [1, 2], label=route)


def test_unknown_backend_rejected_at_construction():
    with pytest.raises(ConfigurationError, match="carrier-pigeon"):
        EngineConfig(backend="carrier-pigeon")
