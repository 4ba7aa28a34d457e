"""Chip batches of several scenarios built in one context request.

Every scenario of a context reserves the same chip seeds, so a plural
request (``chips_3t1d_batches`` / ``chips_sram_batches``) builds each
chip once for all of its scenarios.  The batches it caches must be the
ones per-scenario requests build, byte for byte, and a context must
build only what a driver asks for.
"""

import pickle

import pytest

from repro.array import CacheGeometry
from repro.engine.parallel import ParallelChipRunner
from repro.experiments import ExperimentContext, fig10_hundred_chips

GEOMETRY = CacheGeometry.from_capacity(16 * 1024, 4, banks=2)


def make_context(technology="3t1d", **overrides):
    return ExperimentContext(
        n_chips=3, n_references=300, seed=11, technology=technology,
        geometry=GEOMETRY, **overrides,
    )


@pytest.fixture
def built(monkeypatch):
    """Every task list handed to ``ParallelChipRunner.build_chips``."""
    requests = []
    original = ParallelChipRunner.build_chips

    def build_chips(self, tasks, *args, **kwargs):
        requests.append(list(tasks))
        return original(self, tasks, *args, **kwargs)

    monkeypatch.setattr(ParallelChipRunner, "build_chips", build_chips)
    return requests


def same_bytes(a, b):
    assert pickle.dumps(a) == pickle.dumps(b)


class TestSharedRequests:
    @pytest.mark.parametrize("technology", ["3t1d", "sttram", "vardram"])
    def test_request_equals_per_scenario_requests(self, technology):
        scenarios = ("typical", "none", "severe")
        batches = make_context(technology).chips_3t1d_batches(scenarios)
        assert list(batches) == list(scenarios)
        for scenario in scenarios:
            alone = make_context(technology).chips_3t1d(scenario)
            assert len(batches[scenario]) == 3
            same_bytes(batches[scenario], alone)

    def test_sram_request_equals_per_key_requests(self):
        keys = (("typical", 1.0), ("typical", 2.0), ("severe", 1.0))
        batches = make_context().chips_sram_batches(keys)
        for scenario, size_factor in keys:
            same_bytes(
                batches[scenario, size_factor],
                make_context().chips_sram(scenario, size_factor),
            )

    def test_one_request_merges_scenarios_with_variation(self, built):
        make_context().chips_3t1d_batches(("typical", "none", "severe"))
        (tasks,) = built
        merged = [task for task in tasks if len(task.points) > 1]
        alone = [task for task in tasks if len(task.points) == 1]
        assert len(merged) == 3 and len(alone) == 3
        assert all(
            [p.params.name for p in task.points] == ["typical", "severe"]
            for task in merged
        )
        # "none" draws no per-cell fields, so it cannot share them.
        assert all(task.points[0].params.name == "none" for task in alone)

    def test_repeat_request_builds_nothing(self, built):
        context = make_context()
        first = context.chips_3t1d_batches(("typical", "severe"))
        assert len(built) == 1
        again = context.chips_3t1d_batches(("severe", "typical"))
        assert context.chips_3t1d("typical") is first["typical"]
        assert again["severe"] is first["severe"]
        assert len(built) == 1

    def test_request_builds_only_uncached_scenarios(self, built):
        context = make_context()
        context.chips_3t1d("typical")
        context.chips_3t1d_batches(("typical", "severe"))
        assert [len(tasks) for tasks in built] == [3, 3]
        assert all(
            task.points[0].params.name == "severe" for task in built[1]
        )

    def test_fig10_context_builds_one_scenario(self, built):
        # A service job runs fig10 alone on a fresh context: it must
        # build the severe chips and nothing for other scenarios.
        context = make_context()
        fig10_hundred_chips.run(context)
        tasks = [task for request in built for task in request]
        assert len(tasks) == context.n_chips
        assert all(
            [p.params.name for p in task.points] == ["severe"]
            for task in tasks
        )
